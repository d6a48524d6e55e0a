from dataclasses import replace

import numpy as np
import pytest

from demuon.diagnostics import (
    consensus_bound,
    consensus_error_nuclear,
    potential,
    theorem_potential_params,
)
from demuon.linalg import frobenius_norm, spectral_norm
from demuon.noise import NoiseModel
from demuon.optimizers import (
    BaselineParams,
    ScheduleParams,
    clip_to_frobenius,
    initial_state,
    parse_orthogonalizer,
    run,
    step,
    theoretical_schedule,
)
from demuon.problems import ProblemSet, QUADRATIC, make_quadratic
from demuon.topology import MixingSpec, build_complete, build_directed_exponential, build_ring

NOISELESS = NoiseModel("gaussian", 2.0, 0.0)


def scalar_quadratic(targets):
    """Per-node f_i(x) = 0.5 (x - t_i)^2 on 1x1 matrices."""
    targets = [np.asarray(t, dtype=float).reshape(1, 1) for t in targets]
    n = len(targets)
    return ProblemSet(QUADRATIC, n, 1, 1, a=tuple(np.eye(1) for _ in range(n)), b=tuple(targets))


def test_theoretical_schedule_values():
    s = theoretical_schedule(16, 2.0)
    assert (s.eta, s.theta) == (0.125, 0.25)
    assert s.derived_from_theorem
    s2 = theoretical_schedule(256, 1.5)
    assert s2.eta == pytest.approx(256.0 ** (-0.8))
    assert s2.theta == pytest.approx(256.0 ** (-0.6))
    with pytest.raises(ValueError):
        theoretical_schedule(3, 2.0)
    with pytest.raises(ValueError):
        theoretical_schedule(16, 2.5)


def test_schedule_params_validation():
    with pytest.raises(ValueError):
        ScheduleParams(eta=0.0, theta=0.5)
    with pytest.raises(ValueError):
        ScheduleParams(eta=0.1, theta=1.5)
    with pytest.raises(ValueError):
        ScheduleParams(eta=0.5, theta=0.5, horizon=16, derived_from_theorem=True)
    with pytest.raises(ValueError):
        BaselineParams(clip_tau=-1.0)


def test_parse_orthogonalizer():
    assert parse_orthogonalizer("svd") == ("svd", 0)
    assert parse_orthogonalizer("ns:15") == ("ns", 15)
    for bad in ("ns:0", "ns:x", "qr"):
        with pytest.raises(ValueError):
            parse_orthogonalizer(bad)


def test_initial_state_replicates_start():
    st = initial_state("demuon", 3, np.ones((2, 2)))
    assert st.iter == 0
    assert st.x.shape == (3, 2, 2)
    assert np.all(st.x == 1.0)
    assert not st.m.any() and not st.v.any()
    with pytest.raises(ValueError):
        initial_state("adam", 3, np.ones((2, 2)))


def test_single_node_hand_simulation():
    # f(x) = 0.5 (x - 2)^2, x0 = 0, theta = 1, eta = 0.5 -> x1 = 0.5
    prob = scalar_quadratic([2.0])
    st = initial_state("demuon", 1, np.zeros((1, 1)))
    st, _ = step(st, prob, build_complete(1), NOISELESS, ScheduleParams(0.5, 1.0))
    assert st.m[0, 0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert st.v[0, 0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert st.x[0, 0, 0] == pytest.approx(0.5, abs=1e-12)


def test_two_node_hand_simulation():
    prob = scalar_quadratic([0.0, 2.0])
    st = initial_state("demuon", 2, np.zeros((1, 1)))
    st, _ = step(st, prob, build_complete(2), NOISELESS, ScheduleParams(0.5, 1.0))
    np.testing.assert_allclose(st.m[:, 0, 0], [0.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(st.v[:, 0, 0], [-1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(st.x[:, 0, 0], [0.5, 0.5], atol=1e-12)


def test_dsgd_hand_simulation():
    prob = scalar_quadratic([0.0, 2.0])
    st = initial_state("dsgd", 2, np.zeros((1, 1)))
    st, _ = step(st, prob, build_complete(2), NOISELESS, BaselineParams(dsgd_eta=0.1))
    np.testing.assert_allclose(st.x[:, 0, 0], [0.1, 0.1], atol=1e-12)


def test_dsgd_reduces_to_gradient_descent():
    prob = scalar_quadratic([2.0])
    st = initial_state("dsgd", 1, np.zeros((1, 1)))
    st, _ = step(st, prob, build_complete(1), NOISELESS, BaselineParams(dsgd_eta=0.25))
    assert st.x[0, 0, 0] == pytest.approx(0.25 * 2.0, abs=1e-15)


def test_dsgd_zero_gradient_fixed_point():
    prob = scalar_quadratic([0.0, 0.0])
    st = initial_state("dsgd", 2, np.zeros((1, 1)))
    st, _ = step(st, prob, build_complete(2), NOISELESS, BaselineParams())
    assert not st.x.any()


def test_clip_schedule_and_norms():
    prob = scalar_quadratic([5.0, -5.0])
    params = BaselineParams(clip_eta=10.0, clip_tau=0.1)
    st = initial_state("dsgd_clip", 2, np.zeros((1, 1)))
    st, info = step(st, prob, build_complete(2), NOISELESS, params)
    assert info["eta"] == 10.0
    assert info["tau"] == pytest.approx(0.1)
    assert all(n <= info["tau"] + 1e-15 for n in np.linalg.norm(info["directions"], axis=(1, 2)))
    # k = 31: eta_31 = 10/32, tau_31 = 0.1 * 32^(2/5) = 0.4
    st31 = replace(initial_state("dsgd_clip", 2, np.zeros((1, 1))), iter=31)
    _, info31 = step(st31, prob, build_complete(2), NOISELESS, params)
    assert info31["eta"] == pytest.approx(0.3125, abs=1e-15)
    assert info31["tau"] == pytest.approx(0.4, abs=1e-12)


def test_clip_to_frobenius():
    g = np.array([[2.0, 0.0], [0.0, 0.0]])
    clipped = clip_to_frobenius(g, 1.0)
    assert frobenius_norm(clipped) == pytest.approx(1.0, abs=1e-15)
    small = np.array([[0.1]])
    assert clip_to_frobenius(small, 1.0) is small
    zero = np.zeros((2, 2))
    assert not clip_to_frobenius(zero, 1.0).any()


def test_gt_directions_are_unit_or_zero(rng):
    prob = make_quadratic(3, 3, 2, 4, heterogeneity=0.4, seed=5)
    noise = NoiseModel("gaussian", 2.0, 0.2, base_seed=7)
    st = initial_state("gt_nsgdm", 3, np.zeros((3, 2)))
    mixing = build_ring(3)
    for _ in range(25):
        st, info = step(st, prob, mixing, noise, ScheduleParams(0.1, 0.2))
        for i in range(3):
            norm = frobenius_norm(info["directions"][i])
            assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0


def test_gt_zero_tracker_gives_zero_direction():
    prob = scalar_quadratic([0.0])
    st = initial_state("gt_nsgdm", 1, np.zeros((1, 1)))
    st, info = step(st, prob, build_complete(1), NOISELESS, ScheduleParams(0.1, 0.2))
    assert not info["directions"].any()
    assert not st.x.any()


def test_gt_single_node_normalized_step():
    # f(x) = 0.5 ||x - T||_F^2, theta = 1: x1 = x0 - eta (x0 - T)/||x0 - T||_F
    t = np.array([[3.0, 0.0], [0.0, 4.0]])
    prob = ProblemSet(QUADRATIC, 1, 2, 2, a=(np.eye(2),), b=(t,))
    st = initial_state("gt_nsgdm", 1, np.zeros((2, 2)))
    params = ScheduleParams(0.5, 1.0)
    st, _ = step(st, prob, build_complete(1), NOISELESS, params)
    expected = 0.5 * t / frobenius_norm(t)
    np.testing.assert_allclose(st.x[0], expected, atol=1e-12)


def test_scalar_demuon_equals_gt_nsgdm(rng):
    # sign(v) == v/|v| on 1x1 matrices, so the trajectories coincide
    for trial in range(100):
        target = float(rng.uniform(-3, 3))
        eta = float(rng.uniform(0.01, 0.5))
        theta = float(rng.uniform(0.05, 0.95))
        seed = int(rng.integers(2**31))
        prob = scalar_quadratic([target])
        noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=seed)
        mix = build_complete(1)
        st_d = initial_state("demuon", 1, np.zeros((1, 1)))
        st_g = initial_state("gt_nsgdm", 1, np.zeros((1, 1)))
        sched = ScheduleParams(eta, theta)
        params = ScheduleParams(eta, theta)
        for _ in range(12):
            st_d, _ = step(st_d, prob, mix, noise, sched)
            st_g, _ = step(st_g, prob, mix, noise, params)
        assert abs(st_d.x[0, 0, 0] - st_g.x[0, 0, 0]) <= 1e-10


def test_complete_graph_keeps_nodes_identical():
    # identical objectives, zero noise: exact node equality for all algorithms
    a = np.array([[1.2, 0.0], [0.3, 0.8]])
    b = np.array([[0.4], [0.9]])
    prob = ProblemSet(QUADRATIC, 4, 2, 1, a=(a,) * 4, b=(b,) * 4)
    mix = build_complete(4)
    sched = ScheduleParams(0.1, 0.3)
    base = BaselineParams()
    for algorithm, params in (
        ("demuon", sched), ("dsgd", base), ("dsgd_clip", base),
        ("gt_nsgdm", ScheduleParams(0.1, 0.2)),
    ):
        st = initial_state(algorithm, 4, np.zeros((2, 1)))
        for _ in range(20):
            st, _ = step(st, prob, mix, NOISELESS, params)
            for i in range(1, 4):
                np.testing.assert_array_equal(st.x[i], st.x[0])


def test_demuon_directions_have_unit_spectral_norm(rng):
    prob = make_quadratic(4, 3, 3, 5, heterogeneity=0.6, seed=8)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=11)
    st = initial_state("demuon", 4, np.zeros((3, 3)))
    mixing = build_ring(4)
    sched = ScheduleParams(0.1, 0.2)
    for _ in range(20):
        st, info = step(st, prob, mixing, noise, sched)
        for i in range(4):
            assert spectral_norm(info["directions"][i]) <= 1.0 + 1e-10


def test_run_emits_one_row_per_iteration():
    prob = make_quadratic(2, 2, 2, 3, seed=1)
    res = run("dsgd", prob, build_complete(2), NOISELESS, BaselineParams(), horizon=1, seed=0)
    assert len(res.rows) == 1
    assert res.rows[0].iter == 0
    assert 0 <= res.iota < 1


def test_run_is_deterministic():
    prob = make_quadratic(3, 3, 2, 4, heterogeneity=0.3, seed=4)
    noise = NoiseModel("student_t", 1.6, 0.4, dof=2.0, base_seed=21)
    kw = dict(horizon=40, seed=21)
    r1 = run("demuon", prob, build_ring(3), noise, ScheduleParams(0.1, 0.2), **kw)
    r2 = run("demuon", prob, build_ring(3), noise, ScheduleParams(0.1, 0.2), **kw)
    for a, b in zip(r1.rows, r2.rows):
        assert a.consensus_error_x == b.consensus_error_x
        assert a.avg_grad_nuclear == b.avg_grad_nuclear
        assert a.objective_at_mean == b.objective_at_mean
    assert r1.iota == r2.iota


def test_run_single_node_convergence():
    prob = make_quadratic(1, 4, 3, 6, heterogeneity=0.0, seed=3)
    res = run("demuon", prob, build_complete(1), NOISELESS, ScheduleParams(0.05, 0.5),
              horizon=80, seed=1)
    assert res.rows[-1].avg_grad_nuclear < res.rows[0].avg_grad_nuclear


def test_run_tracking_and_average_iterate_identities():
    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.5, seed=6)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=9)
    res = run("demuon", prob, build_ring(4), noise, ScheduleParams(0.1, 0.2),
              horizon=60, seed=9)
    assert res.max_tracking_residual <= 1e-9
    assert res.max_avg_iterate_residual <= 1e-9
    res_gt = run("gt_nsgdm", prob, build_ring(4), noise, ScheduleParams(0.1, 0.2), horizon=60, seed=9)
    assert res_gt.max_tracking_residual <= 1e-9


@pytest.mark.parametrize(
    "algorithm, params",
    [
        ("demuon", ScheduleParams(0.1, 0.2)),
        ("dsgd", BaselineParams()),
        ("dsgd_clip", BaselineParams()),
        ("gt_nsgdm", ScheduleParams(0.1, 0.2)),
    ],
)
def test_run_checks_mean_iterate_recursion_for_every_algorithm(algorithm, params):
    # Rows sum to 1 but columns do not, so mixing moves the mean iterate and
    # mean X+ = mean X - eta * mean(D) fails for every algorithm.
    prob = make_quadratic(2, 3, 2, 4, heterogeneity=0.5, seed=6)
    mixing = MixingSpec(2, np.array([[0.5, 0.5], [0.0, 1.0]]), 0.5, "custom")
    res = run(algorithm, prob, mixing, NOISELESS, params, horizon=5, seed=0)
    assert res.max_avg_iterate_residual > 1e-3


def test_run_consensus_bound_holds():
    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.5, seed=10)
    noise = NoiseModel("gaussian", 2.0, 0.4, base_seed=2)
    mixing = build_ring(4)
    res = run("demuon", prob, mixing, noise, ScheduleParams(0.1, 0.2), horizon=100, seed=2)
    assert res.consensus_violations == 0
    bound = consensus_bound(0.1, mixing.mixing_rate, 4)
    assert all(row.consensus_error_x <= bound + 1e-9 for row in res.rows)


def test_run_rejects_mismatched_params():
    prob = make_quadratic(2, 2, 2, 3, seed=0)
    with pytest.raises(TypeError):
        run("demuon", prob, build_complete(2), NOISELESS, BaselineParams(), horizon=5)
    with pytest.raises(TypeError):
        run("dsgd", prob, build_complete(2), NOISELESS, ScheduleParams(0.1, 0.2), horizon=5)
    with pytest.raises(ValueError):
        run("demuon", prob, build_complete(3), NOISELESS, ScheduleParams(0.1, 0.2), horizon=5)


@pytest.mark.parametrize("algorithm", ["demuon", "gt_nsgdm"])
def test_run_theorem_schedule_horizon_locked(algorithm):
    prob = make_quadratic(2, 2, 2, 3, seed=0)
    sched = theoretical_schedule(16, 2.0)
    with pytest.raises(ValueError):
        run(algorithm, prob, build_complete(2), NOISELESS, sched, horizon=8)
    res = run(algorithm, prob, build_complete(2), NOISELESS, sched)  # horizon from schedule
    assert res.horizon == 16


def test_run_iota_uniform_and_seeded():
    prob = make_quadratic(1, 2, 2, 3, seed=0)
    iotas = {
        run("dsgd", prob, build_complete(1), NOISELESS, BaselineParams(),
            horizon=50, seed=s).iota
        for s in range(30)
    }
    assert all(0 <= i < 50 for i in iotas)
    assert len(iotas) > 5  # the draw varies with the seed


def test_run_newton_schulz_orthogonalizer():
    prob = make_quadratic(2, 3, 3, 4, heterogeneity=0.2, seed=12)
    noise = NoiseModel("gaussian", 2.0, 0.1, base_seed=3)
    res = run("demuon", prob, build_complete(2), noise, ScheduleParams(0.1, 0.2),
              horizon=30, seed=3, orthogonalizer="ns:15")
    assert res.consensus_violations == 0
    assert res.max_tracking_residual <= 1e-9
    assert res.max_avg_iterate_residual <= 1e-9


def test_run_metrics_sink_receives_rows():
    prob = make_quadratic(2, 2, 2, 3, seed=1)
    seen = []
    run("dsgd", prob, build_complete(2), NOISELESS, BaselineParams(),
        horizon=7, seed=0, sink=seen.append)
    assert [r.iter for r in seen] == list(range(7))


def test_two_route_consensus_norms_sandwich_each_iteration():
    # logged stacked-norm consensus errors agree with per-block computations
    import math

    from demuon.linalg import nuclear_norm
    from demuon.diagnostics import consensus_error, consensus_error_nuclear

    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.5, seed=13)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=4)
    mixing = build_ring(4)
    st = initial_state("demuon", 4, np.zeros((3, 2)))
    sched = ScheduleParams(0.1, 0.2)
    for _ in range(60):
        x_dev = st.x - st.x.mean(axis=0)
        per_sp = [spectral_norm(d) for d in x_dev]
        stacked_sp = consensus_error(st.x)
        assert stacked_sp >= np.mean(per_sp) - 1e-12
        assert stacked_sp <= math.sqrt(sum(v**2 for v in per_sp)) + 1e-12
        st, _ = step(st, prob, mixing, noise, sched)
        v_dev = st.v - st.v.mean(axis=0)
        per_nu = [nuclear_norm(d) for d in v_dev]
        stacked_nu = consensus_error_nuclear(st.v)
        assert stacked_nu >= np.mean(per_nu) - 1e-12
        assert stacked_nu <= sum(per_nu) + 1e-12


def test_potential_trend_on_noiseless_run(monkeypatch):
    import demuon.diagnostics as diagnostics
    import demuon.problems as problems

    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.3, seed=17)
    mixing = build_ring(4)
    sched = theoretical_schedule(200, 2.0)
    # The theorem schedule alone fills the potential, and the potential reuses
    # the round's exact gradients, objective at the mean and tracker consensus.
    calls = {"exact_gradient": 0, "objective_at": 0, "consensus_error_nuclear": 0}
    for module, name in (
        (problems, "exact_gradient"),
        (problems, "objective_at"),
        (diagnostics, "consensus_error_nuclear"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    res = run("demuon", prob, mixing, NOISELESS, sched, seed=0)
    assert calls == {"exact_gradient": 200, "objective_at": 200, "consensus_error_nuclear": 200}
    monkeypatch.undo()
    st0 = initial_state("demuon", 4, np.zeros((3, 2)))
    st1, info = step(st0, prob, mixing, NOISELESS, sched)
    by_hand = potential(
        problems.objective_at(prob, st0.x.mean(axis=0)),
        info["exact_grads"],
        st1.m,
        consensus_error_nuclear(st1.v),
        theorem_potential_params(200, 2.0, mixing.mixing_rate),
    )
    assert res.rows[0].potential == by_hand
    pots = [row.potential for row in res.rows]
    assert all(np.isfinite(p) for p in pots)
    best = np.minimum.accumulate(pots)
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert best[-1] < 0.9 * pots[0]  # the trend actually descends


def test_run_warns_when_ball_exited():
    from demuon.problems import make_nonconvex_gram

    prob = make_nonconvex_gram(2, 3, 2, heterogeneity=0.0, seed=5, ball_radius=1e-3)
    noise = NoiseModel("gaussian", 2.0, 0.5, base_seed=1)
    with pytest.warns(RuntimeWarning, match="certified ball"):
        res = run("demuon", prob, build_complete(2), noise, ScheduleParams(0.3, 0.5),
                  horizon=10, seed=1)
    assert res.ball_exited


BALL_CASES = [
    ("demuon", ScheduleParams(0.3, 0.5), 1.0),
    ("dsgd", BaselineParams(dsgd_eta=0.05), 0.5),
    ("gt_nsgdm", ScheduleParams(0.1, 0.2), 1.0),
]


@pytest.mark.parametrize("algorithm, params, radius", BALL_CASES)
def test_ball_exit_warns_at_the_per_node_reference_iteration(algorithm, params, radius):
    import re
    import warnings

    from demuon.problems import make_nonconvex_gram

    prob = make_nonconvex_gram(3, 4, 3, heterogeneity=0.5, seed=5, ball_radius=radius)
    noise = NoiseModel("gaussian", 2.0, 0.5, base_seed=1)
    mixing = build_ring(3)
    # Reference: every node's spectral norm after every round.
    st = initial_state(algorithm, 3, np.zeros((4, 3)))
    expected = None
    for k in range(40):
        st, _ = step(st, prob, mixing, noise, params)
        if max(spectral_norm(st.x[i]) for i in range(3)) > radius:
            expected = k
            break
    assert expected is not None and expected > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run(algorithm, prob, mixing, noise, params, horizon=40, seed=1)
    exits = [str(w.message) for w in caught if "certified ball" in str(w.message)]
    assert res.ball_exited
    assert len(exits) == 1
    assert int(re.search(r"at iteration (\d+)", exits[0]).group(1)) == expected


def test_ball_check_decomposes_no_iterate_inside_the_ball(monkeypatch):
    import demuon.optimizers as optimizers
    from demuon.problems import make_nonconvex_gram

    decomposed = []
    monkeypatch.setattr(optimizers, "spectral_norm", lambda a: decomposed.append(a) or spectral_norm(a))
    prob = make_nonconvex_gram(3, 4, 3, heterogeneity=0.5, seed=5)
    noise = NoiseModel("gaussian", 2.0, 0.5, base_seed=1)
    for algorithm, params in (("demuon", ScheduleParams(0.05, 0.5)), ("dsgd", BaselineParams(dsgd_eta=0.05))):
        res = run(algorithm, prob, build_ring(3), noise, params, horizon=60, seed=1)
        assert not res.ball_exited
    assert decomposed == []


def dsgd_divergence_setup():
    """The divergence repro: dsgd at eta = 1 on the Gram family under Student-t noise (dof 1.3)."""
    from demuon.problems import make_nonconvex_gram

    prob = make_nonconvex_gram(4, 4, 3, seed=0)
    noise = NoiseModel("student_t", 1.2, 0.3, dof=1.3, base_seed=0)
    return prob, build_ring(4), noise, BaselineParams(dsgd_eta=1.0)


def test_dsgd_divergence_stops_at_the_round_with_context():
    from demuon.optimizers import Diverged

    prob, mixing, noise, params = dsgd_divergence_setup()
    st = initial_state("dsgd", 4, np.zeros((4, 3)))
    with pytest.raises(Diverged) as caught:
        for _ in range(50):
            assert np.isfinite(st.x).all()
            st, _ = step(st, prob, mixing, noise, params)
    exc = caught.value
    assert isinstance(exc, ValueError)
    assert (exc.algorithm, exc.iteration, exc.quantity) == ("dsgd", st.iter, "iterate")
    assert 0 <= exc.node < 4
    # The run leaves the certified ball before it diverges; that is its only warning.
    with pytest.raises(Diverged) as from_run, pytest.warns(RuntimeWarning, match="certified ball"):
        run("dsgd", prob, mixing, noise, params, horizon=50, seed=0)
    assert (from_run.value.iteration, from_run.value.node) == (exc.iteration, exc.node)
    assert f"iteration {exc.iteration}" in str(from_run.value)
