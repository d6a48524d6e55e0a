"""The engine against `reference_engine`, a literal per-node loop of the README's recursions.

Two comparisons, since heavy tails can amplify round-off: single rounds
started from the engine's own state (replayed with `step`), and whole
trajectories of up to 30 rounds (`run` against the loop running the lanes
one after another, on every metrics column and summary field, on the
iteration of each ball-exit warning, and on the first diverging lane's
`Diverged`). A demuon lane on `ns:<k>` is checked against the loop with the
Newton-Schulz kernel written out as its polar factor. On the complete graph
the tracked lanes and dsgd are also checked against their exact reduction,
a centralized loop on the mean iterate (`centralized_run`).
"""

import importlib.util
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon.noise import NoiseModel
from demuon.optimizers import (
    ALGORITHMS,
    TRACKER_ALGORITHMS,
    BaselineParams,
    Diverged,
    Lane,
    ScheduleParams,
    initial_state,
    run,
    theoretical_schedule,
    _round_schedule,
)
from demuon.problems import ProblemSet, make_nonconvex_gram, make_quadratic
from demuon.topology import MixingSpec, build_family, validate_mixing
from linalg_oracles import polar_oracle
import reference_engine
from reference_engine import centralized_run, newton_schulz, reference_round, reference_run
from stepping import step_with_buffers
from test_topology import _doubly_stochastic

ROOT = Path(__file__).resolve().parent.parent
# A round repeats the engine's arithmetic up to summation order; a
# trajectory lets that round-off grow for up to 30 rounds.
ROUND_RTOL = 1e-10
TRAJECTORY_RTOL = 1e-7
# On the complete graph the engine and `centralized_run` differ only in
# summation order (a node mean or a mix with weights 1/N against a Python
# sum, the Gram route against the SVD), a few ulps a round that the
# contracting quadratic does not amplify: 60 rounds stayed within 2e-15
# relative. A slip in a formula (theta, eta, a round's noise) is orders of
# magnitude above this.
REDUCTION_RTOL = 1e-12
# The text of `run`'s ball-exit RuntimeWarning; group 1 is the exit round.
BALL_EXIT = re.compile(r"iterates left the certified ball \(radius .*\) at iteration (\d+); ")


def polar_of(lane):
    """The reference loop's polar kernel for the lane's orthogonalizer."""
    if lane.orthogonalizer == "svd":
        return polar_oracle
    return newton_schulz(int(lane.orthogonalizer[3:]))


def close(engine, oracle, rtol, scale=1.0):
    """Whether the engine's values match the oracle's to `rtol` of their finite size (at least `scale`).

    A value the oracle reads as inf or nan must read the same in the engine.
    """
    engine, oracle = np.asarray(engine, dtype=float), np.asarray(oracle, dtype=float)
    if engine.shape != oracle.shape:
        return False
    finite = np.isfinite(oracle)
    if not np.array_equal(engine[~finite], oracle[~finite], equal_nan=True):
        return False
    size = max(scale, float(np.max(np.abs(oracle[finite]), initial=0.0)))
    return bool(np.all(np.abs(engine[finite] - oracle[finite]) <= rtol * size))


@st.composite
def mixings(draw):
    family = draw(st.sampled_from(["ring", "complete", "directed_exponential", "random"]), label="family")
    if family == "ring":
        return build_family("ring", draw(st.integers(3, 5), label="n"))
    if family == "complete":
        return build_family("complete", draw(st.integers(1, 5), label="n"))
    if family == "directed_exponential":
        return build_family("directed_exponential", draw(st.sampled_from([2, 4]), label="n"))
    n = draw(st.integers(1, 5), label="n")
    w = _doubly_stochastic(n, draw(st.floats(0.05, 1.0), label="c"), draw(st.permutations(range(n)), label="perm"))
    return MixingSpec(w, validate_mixing(w))


@st.composite
def oracle_cases(draw):
    """(lanes, their horizons, problem, mixing, noise model): every algorithm as a lane of one run, and more."""
    mixing = draw(mixings())
    # (13, 12) and (12, 14) take `msgn_exact`'s Newton-Schulz Gram route, the rest its SVD.
    m, n = draw(st.sampled_from([(1, 1), (2, 3), (3, 2), (1, 4), (3, 3), (13, 12), (12, 14)]), label="shape")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    if draw(st.booleans(), label="quadratic"):
        p = draw(st.integers(1, 4), label="p")
        problem = make_quadratic(mixing.n_nodes, m, n, p, heterogeneity=0.5, seed=seed)
    else:
        problem = make_nonconvex_gram(mixing.n_nodes, m, n, heterogeneity=0.5, seed=seed)
    alpha = draw(st.sampled_from([2.0, 1.6, 1.3]), label="alpha")
    if alpha == 2.0 and draw(st.booleans(), label="gaussian"):
        noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=seed)
    else:
        noise = NoiseModel("student_t", alpha, 0.3, dof=alpha + 0.5, base_seed=seed)
    algorithms = list(ALGORITHMS) + draw(st.lists(st.sampled_from(ALGORITHMS), max_size=2), label="extra")
    algorithms = draw(st.permutations(algorithms), label="order")
    lanes = []
    for algorithm in algorithms:
        horizon = draw(st.integers(4, 30), label="horizon")
        if algorithm not in TRACKER_ALGORITHMS:
            lanes.append(Lane(algorithm, BaselineParams(), horizon=horizon))
            continue
        kernel = "svd"
        if algorithm == "demuon":
            kernel = draw(st.one_of(st.just("svd"), st.integers(1, 8).map(lambda k: f"ns:{k}")), label="kernel")
        if draw(st.booleans(), label="theorem"):
            lanes.append(Lane(algorithm, theoretical_schedule(horizon, alpha), orthogonalizer=kernel))
        else:
            eta = draw(st.sampled_from([0.02, 0.1, 0.3]), label="eta")
            theta = draw(st.sampled_from([0.1, 0.5, 1.0]), label="theta")
            lanes.append(Lane(algorithm, ScheduleParams(eta, theta), orthogonalizer=kernel, horizon=horizon))
    # A lane that diverges: at iteration 1 with a non-finite iterate (dsgd at
    # eta = 1e200) or momentum (demuon at eta = 1e200 on the Gram problem), or
    # at a round the noise decides (dsgd at eta = 1 on the Gram problem).
    diverging = [Lane("dsgd", BaselineParams(dsgd_eta=1e200), horizon=30)]
    if problem.kind == "nonconvex_gram":
        diverging += [Lane("demuon", ScheduleParams(1e200, 0.5), horizon=30),
                      Lane("dsgd", BaselineParams(dsgd_eta=1.0), horizon=30)]
    if draw(st.booleans(), label="diverging"):
        lane = draw(st.sampled_from(diverging), label="diverging lane")
        lanes.insert(draw(st.integers(0, len(lanes)), label="diverging position"), lane)
    horizons = [lane.horizon or lane.params.horizon for lane in lanes]
    return lanes, horizons, problem, mixing, noise


def assert_rounds_match(lanes, horizons, problem, mixing, noise):
    """Every round of every lane, replayed with `step`, against one reference round from the engine's state.

    The lanes must all run to their horizons.
    """
    state = initial_state(lanes, mixing.n_nodes, np.zeros((problem.m, problem.n)))
    for k in range(max(horizons)):
        nxt, bufs = step_with_buffers(state, problem, mixing, noise)
        for j, lane in enumerate(lanes):
            ref = reference_round(lane, problem, mixing.weights, noise, k, list(state.x[j]), list(state.m[j]),
                                  list(state.v[j]), polar_of(lane))
            where = f"round {k}, lane {j} ({lane.algorithm})"
            assert _round_schedule(lane, k)[0] == ref["eta"], where
            np.testing.assert_array_equal(bufs.noise, ref["noise"], err_msg=where)
            for name, engine in (("x", nxt.x[j]), ("m", nxt.m[j]), ("v", nxt.v[j]),
                                 ("directions", bufs.directions[j])):
                assert close(engine, ref[name], ROUND_RTOL), f"{where}: {name}"
        state = nxt


def assert_rows_match(engine_rows, rows, where):
    """The engine's rows against the reference loop's, on every metrics column but the wall time."""
    assert len(engine_rows) == len(rows), where
    scale = max([1.0] + [abs(row["objective_at_mean"]) for row in rows if math.isfinite(row["objective_at_mean"])])
    for engine, ref in zip(engine_rows, rows):
        for name, value in ref.items():
            got, at = getattr(engine, name), f"{where}, iteration {ref['iter']}: {name}"
            if value is None or name == "iter":
                assert got == value, at
            else:
                assert close(got, value, TRAJECTORY_RTOL, scale), f"{at} {got} != {value}"


def assert_runs_match(lanes, horizons, problem, mixing, noise) -> int:
    """`run`'s outcome against the reference loop running the lanes one after another.

    Every lane before the first diverging one must match on its rows and
    summary; that lane must be the `Diverged` `run` raises, with its rows.
    The ball-exit warnings, one per lane that left the ball up to the
    diverging one, in lane order, must name the loop's exit rounds; `run`
    may emit no other warning. Returns the number of lanes that ran to their
    horizons.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            results, failure = run(lanes, problem, mixing, noise), None
        except Diverged as exc:
            results, failure = exc.finished, exc
    exits = []
    for warning in caught:
        found = BALL_EXIT.match(str(warning.message))
        assert found and warning.category is RuntimeWarning, warning
        exits.append(int(found.group(1)))
    expected = []
    for j, lane in enumerate(lanes):
        rows, summary, stop = reference_run(lane, horizons[j], problem, mixing, noise, polar_of(lane))
        where = f"lane {j} ({lane.algorithm})"
        if summary["ball_exit"] is not None:
            expected.append(summary["ball_exit"])
        if stop is not None:
            assert failure is not None and len(results) == j, f"{where} diverges: {stop}"
            assert (failure.algorithm, failure.iteration, failure.node, failure.quantity) == (lane.algorithm, *stop)
            assert_rows_match(failure.rows, rows, where)
            assert exits == expected, f"ball exits {exits} != {expected}"
            return j
        assert j < len(results), f"{where} runs to its horizon in the reference loop: {failure}"
        result = results[j]
        assert (result.algorithm, result.horizon, result.seed) == (lane.algorithm, horizons[j], noise.base_seed)
        assert_rows_match(result.rows, rows, where)
        for name in ("iota", "consensus_violations", "ball_exited"):
            assert getattr(result, name) == summary[name], f"{where}: {name}"
        for name in ("grad_nuclear_at_iota", "avg_grad_nuclear_mean", "noise_alpha_moment"):
            assert close(getattr(result, name), summary[name], TRAJECTORY_RTOL), f"{where}: {name}"
        # Round-off only, on both sides: the identities hold exactly in exact
        # arithmetic. An objective that overflowed leaves no size to check it against.
        scale = max(1.0, max(abs(row["objective_at_mean"]) for row in rows))
        for name in ("max_tracking_residual", "max_avg_iterate_residual"):
            assert max(getattr(result, name), summary[name]) <= 1e-9 * scale, f"{where}: {name}"
    assert failure is None, failure
    assert exits == expected, f"ball exits {exits} != {expected}"
    return len(lanes)


@settings(max_examples=25, deadline=None)
@given(oracle_cases())
def test_engine_matches_the_per_node_reference_loop(case):
    lanes, horizons, problem, mixing, noise = case
    finished = assert_runs_match(lanes, horizons, problem, mixing, noise)
    if finished:
        assert_rounds_match(lanes[:finished], horizons[:finished], problem, mixing, noise)



@pytest.mark.parametrize("m, n", [(13, 12), (12, 14)])
def test_engine_matches_the_reference_loop_on_the_gram_route(m, n):
    # Every draw above may miss the two shapes on which `msgn_exact` takes its
    # Newton-Schulz Gram route; this case always takes it, tall and wide.
    problem = make_quadratic(4, m, n, 5, heterogeneity=0.5, seed=m + n)
    noise = NoiseModel("student_t", 1.6, 0.3, dof=2.1, base_seed=m + n)
    lanes = [Lane("demuon", ScheduleParams(0.1, 0.5), horizon=20), Lane("demuon", theoretical_schedule(20, 1.6))]
    horizons = [20, 20]
    mixing = build_family("ring", 4)
    assert assert_runs_match(lanes, horizons, problem, mixing, noise) == 2
    assert_rounds_match(lanes, horizons, problem, mixing, noise)


@pytest.mark.parametrize("m, n", [(8, 5), (24, 12)])  # the SVD and the Gram route of `msgn_exact`
@pytest.mark.parametrize("algorithm", ["demuon", "gt_nsgdm", "dsgd"])
def test_complete_graph_runs_are_centralized_muon(algorithm, m, n):
    # With W = 1 1^T / N every node holds the mean iterate after each mix and
    # every tracker is the mean momentum, so a heterogeneous run under heavy
    # tails is the centralized loop, round by round.
    problem = make_quadratic(5, m, n, 6, heterogeneity=0.5, seed=m)
    noise = NoiseModel("student_t", 1.6, 0.3, dof=2.0, base_seed=n)
    params = BaselineParams(dsgd_eta=0.01) if algorithm == "dsgd" else ScheduleParams(0.05, 0.2)
    [result] = run([Lane(algorithm, params, horizon=60)], problem, build_family("complete", 5), noise)
    rows = centralized_run(algorithm, params, 60, problem, noise)
    for row, (objective, grad_nuclear) in zip(result.rows, rows, strict=True):
        assert row.objective_at_mean == pytest.approx(objective, rel=REDUCTION_RTOL, abs=0.0), row.iter
        assert row.avg_grad_nuclear == pytest.approx(grad_nuclear, rel=REDUCTION_RTOL, abs=0.0), row.iter
        # The iterates stay within a few units of zero, so this is rounding level.
        assert row.consensus_error_x <= REDUCTION_RTOL, row.iter


def test_the_oracle_and_the_benchmark_checks_agree_with_the_algorithm_table():
    # Both keep their own literal lists, so that a mistake in the engine's
    # table is not shared; this catches the lists drifting apart instead.
    from demuon import optimizers

    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    tracked = tuple(name for name, (on, _) in optimizers._TABLE.items() if on)
    assert reference_engine.TRACKED == checks.TRACKER_ALGORITHMS == TRACKER_ALGORITHMS == tracked
    v, g = np.array([[3.0, 0.0], [0.0, 4.0]]), np.array([[0.0, 6.0], [8.0, 0.0]])
    for algorithm in ALGORITHMS:
        params = ScheduleParams(0.1, 0.5) if algorithm in tracked else BaselineParams()
        eta, tau = reference_engine.schedule(Lane(algorithm, params, horizon=4), 3)
        assert eta > 0.0 and (tau is None) == (algorithm != "dsgd_clip"), algorithm
        assert np.isfinite(reference_engine.direction(algorithm, v, g, tau, polar_oracle)).all(), algorithm
    unknown = SimpleNamespace(algorithm="dsgd_typo", params=BaselineParams())
    with pytest.raises(ValueError, match="dsgd_typo"):
        reference_engine.schedule(unknown, 3)
    with pytest.raises(ValueError, match="dsgd_typo"):
        reference_engine.direction("dsgd_typo", v, g, 1.0, polar_oracle)


def test_reference_loop_reproduces_a_hand_computed_round():
    # The loop itself on N = 2 scalars f_i(x) = 0.5 (x - t_i)^2, noiseless,
    # complete mixing: one demuon round from zero moves both nodes by -eta sign(mean V).
    problem = ProblemSet("quadratic", 2, 1, 1, a=(np.eye(1), np.eye(1)), b=(np.full((1, 1), 3.0), np.full((1, 1), -1.0)))
    lane = Lane("demuon", ScheduleParams(0.25, 0.5), horizon=1)
    zero = [np.zeros((1, 1))] * 2
    w = build_family("complete", 2).weights
    ref = reference_round(lane, problem, w, NoiseModel("gaussian", 2.0, 0.0), 0, zero, zero, zero)
    assert [g.item() for g in ref["exact"]] == [-3.0, 1.0]
    assert [m.item() for m in ref["m"]] == [-1.5, 0.5]
    assert [v.item() for v in ref["v"]] == [-0.5, -0.5]
    assert [x.item() for x in ref["x"]] == [0.25, 0.25]
    assert ref["eta"] == 0.25
