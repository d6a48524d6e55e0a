import dataclasses
import math
import warnings

import numpy as np
import pytest

from demuon.diagnostics import (
    MetricsRow,
    PotentialParams,
    consensus_bound,
    consensus_error,
    consensus_error_nuclear,
    csv_header,
    min_horizon,
    potential,
    theorem_potential_params,
    u_dm_constant,
)
from demuon.linalg import frobenius_norm, nuclear_norm, spectral_norm
from demuon.optimizers import theoretical_schedule
from demuon.problems import exact_gradient, make_quadratic, objective_at
from reference_engine import local_gradient


def test_consensus_error_fixed_cases():
    xs = np.ones((3, 2, 2))
    assert consensus_error(xs) == 0.0
    two = np.array([[[1.0]], [[-1.0]]])
    assert consensus_error(two) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_consensus_error_upper_bound(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        xs = rng.standard_normal((n, 3, 2))
        dev = xs - xs.mean(axis=0)
        per_block = math.sqrt(sum(spectral_norm(d) ** 2 for d in dev))
        assert consensus_error(xs) <= per_block + 1e-12


@pytest.mark.parametrize("error", [consensus_error, consensus_error_nuclear])
@pytest.mark.parametrize("xs", [np.ones((2, 3)), np.zeros((0, 2, 3))], ids=["2d", "empty"])
def test_consensus_errors_reject_a_non_stack_before_averaging(error, xs):
    # The mean of an empty stack would warn first; every warning is an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonempty"):
            error(xs)


def test_stacked_norm_sandwich(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        ys = rng.standard_normal((n, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        stacked = ys.reshape(-1, ys.shape[-1])  # the (N m) x n vertical stack
        sp = spectral_norm(stacked)
        nu = nuclear_norm(stacked)
        per_sp = [spectral_norm(y) for y in ys]
        per_nu = [nuclear_norm(y) for y in ys]
        assert sp - np.mean(per_sp) >= -1e-12
        assert math.sqrt(sum(v**2 for v in per_sp)) - sp >= -1e-12
        assert nu - np.mean(per_nu) >= -1e-12
        assert sum(per_nu) - nu >= -1e-12


def test_consensus_bound_values():
    assert consensus_bound(0.3, 0.0, 5) == 0.0
    assert consensus_bound(0.1, 1.0 / 3.0, 4) == pytest.approx(0.1, abs=1e-15)
    assert consensus_bound(2.0, 0.0, 1) == 0.0
    with pytest.raises(ValueError):
        consensus_bound(0.1, 1.0, 4)
    with pytest.raises(ValueError):
        consensus_bound(0.0, 0.5, 4)


def test_potential_degenerate_params_is_objective(rng):
    prob = make_quadratic(3, 3, 2, 4, heterogeneity=0.5, seed=1)
    xs = rng.standard_normal((3, 3, 2))
    ms = rng.standard_normal((3, 3, 2))
    vs = rng.standard_normal((3, 3, 2))
    params = PotentialParams(0.0, 0.0, 2.0)
    assert potential(
        objective_at(prob, xs.mean(axis=0)), exact_gradient(prob, xs), ms, consensus_error_nuclear(vs), params
    ) == pytest.approx(
        objective_at(prob, xs.mean(axis=0)), rel=1e-14
    )
    with pytest.raises(ValueError, match="expected N stacked matrices"):
        potential(0.0, ms[0], ms[0], 0.0, params)


def test_potential_vanishing_penalties(rng):
    # momenta equal to exact gradients + equal trackers: only f(mean) remains
    prob = make_quadratic(2, 2, 2, 3, heterogeneity=0.2, seed=2)
    xs = rng.standard_normal((2, 2, 2))
    ms = np.stack([local_gradient(prob, i, xs[i]) for i in range(2)])
    vs = np.broadcast_to(rng.standard_normal((2, 2)), (2, 2, 2)).copy()
    params = PotentialParams(0.8, 1.3, 2.0)
    assert potential(
        objective_at(prob, xs.mean(axis=0)), exact_gradient(prob, xs), ms, consensus_error_nuclear(vs), params
    ) == pytest.approx(
        objective_at(prob, xs.mean(axis=0)), abs=1e-12
    )


def test_potential_matches_brute_force(rng):
    prob = make_quadratic(3, 2, 2, 3, heterogeneity=0.4, seed=3)
    xs = rng.standard_normal((3, 2, 2))
    ms = rng.standard_normal((3, 2, 2))
    vs = rng.standard_normal((3, 2, 2))
    params = PotentialParams(0.37, 1.21, 1.7)

    # independent recomputation from raw matrices
    f_mean = np.mean([0.5 * np.sum((prob.a[i] @ xs.mean(axis=0) - prob.b[i]) ** 2) for i in range(3)])
    grad_stack = np.vstack([prob.a[i].T @ (prob.a[i] @ xs[i] - prob.b[i]) - ms[i] for i in range(3)])
    term_m = params.p * np.sqrt(np.sum(grad_stack**2)) ** params.alpha
    v_dev = np.vstack([vs[i] - vs.mean(axis=0) for i in range(3)])
    term_v = params.q * np.sum(np.linalg.svd(v_dev, compute_uv=False))
    expected = f_mean + term_m + term_v
    assert potential(
        objective_at(prob, xs.mean(axis=0)), exact_gradient(prob, xs), ms, consensus_error_nuclear(vs), params
    ) == pytest.approx(expected, abs=1e-12)


def test_theorem_potential_params():
    params = theorem_potential_params(16, 2.0, 0.0)
    assert params.p == pytest.approx(1.0)  # alpha=2 exponent is 0
    assert params.q == pytest.approx(2.0 * 16 ** (-0.75))
    params_hetero = theorem_potential_params(256, 1.5, 0.5)
    assert params_hetero.p == pytest.approx(256.0 ** ((1.5**2 - 4.5 + 2) / 2.5))
    assert params_hetero.p <= 1.0
    with pytest.raises(ValueError):
        theorem_potential_params(3, 2.0, 0.0)
    with pytest.raises(ValueError, match="^mixing rate must lie in"):
        theorem_potential_params(16, 2.0, 1.0)


def test_theorem_potential_shares_the_schedule_step():
    for horizon, alpha, lam in ((4, 2.0, 0.0), (64, 1.5, 0.3), (1000, 1.1, 0.9)):
        eta = theoretical_schedule(horizon, alpha).eta
        assert theorem_potential_params(horizon, alpha, lam).q == 2.0 * eta / (1.0 - lam)


def test_u_dm_fixed_substitutions():
    assert u_dm_constant(1.0, 1, 0.0, 2.0, 0.0, 1.0, 1, 1) == pytest.approx(5.5, abs=1e-12)
    assert u_dm_constant(0.0, 1, 0.0, 2.0, 0.0, 0.0, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_u_dm_positive_and_validated(rng):
    for _ in range(50):
        val = u_dm_constant(
            float(rng.uniform(0.1, 5.0)), int(rng.integers(1, 9)),
            float(rng.uniform(0.0, 2.0)), float(rng.uniform(1.1, 2.0)),
            float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, 3.0)),
            int(rng.integers(1, 9)), int(rng.integers(1, 9)),
        )
        assert val > 0.0
    with pytest.raises(ValueError):
        u_dm_constant(1.0, 2, 0.1, 2.0, 1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        u_dm_constant(1.0, 2, 0.1, 2.5, 0.2, 1.0, 2, 2)


def test_min_horizon_values():
    assert min_horizon(0.3, 0.5, 2.0) == 4  # floor dominates when u_dm <= eps
    assert min_horizon(5.5, 0.5, 2.0) == 14641
    # alpha = 1.5 exponent is (3a-2)/(a-1) = 5
    assert min_horizon(2.0, 0.5, 1.5) == math.ceil(4.0**5)
    with pytest.raises(ValueError):
        min_horizon(5.5, 1.5, 2.0)
    with pytest.raises(ValueError):
        min_horizon(-1.0, 0.5, 2.0)


def test_min_horizon_monotonicity():
    base = min_horizon(3.0, 0.4, 2.0)
    assert min_horizon(3.0, 0.2, 2.0) >= base  # smaller eps: more iterations
    assert min_horizon(6.0, 0.4, 2.0) >= base  # larger constant: more iterations


def test_metrics_row_csv():
    assert csv_header().split(",")[0] == "iter"
    assert len(csv_header().split(",")) == 9
    row = MetricsRow(3, 0.5, None, 1.25, None, None, None, 2.0, wall_time_ms=7.3)
    line = row.csv_line()
    cells = line.split(",")
    assert cells[0] == "3"
    assert cells[1] == "0.5"
    assert cells[2] == ""  # consensus bound not applicable
    assert cells[3] == "1.25"
    assert cells[8] == ""  # timing blank unless requested
    assert row.csv_line(include_timing=True).split(",")[8] == "7.3"
    # Every field distinct: each column reads back as the field its header names.
    fields = [f.name for f in dataclasses.fields(MetricsRow)]
    distinct = MetricsRow(1, *(k + 0.25 for k in range(2, len(fields) + 1)))
    columns = csv_header().split(",")
    cells = distinct.csv_line(include_timing=True).split(",")
    assert sorted(columns) == sorted(fields)
    assert len(cells) == len(columns)
    for column, cell in zip(columns, cells):
        assert float(cell) == getattr(distinct, column)
