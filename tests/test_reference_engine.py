"""The engine against `reference_engine`, a literal per-node loop of the README's recursions.

Two comparisons, since heavy tails can amplify round-off: single rounds
started from the engine's own state (replayed with `step`), and whole
trajectories of up to 30 rounds (`run` against the loop run alone, on
every metrics column and summary field).
"""

import numpy as np
from hypothesis import assume, given, settings
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
    step,
    theoretical_schedule,
)
from demuon.problems import ProblemSet, make_nonconvex_gram, make_quadratic
from demuon.topology import MixingSpec, build_complete, build_directed_exponential, build_ring, validate_mixing
from reference_engine import reference_round, reference_run
from test_topology import _doubly_stochastic

# A round repeats the engine's arithmetic up to summation order; a
# trajectory lets that round-off grow for up to 30 rounds.
ROUND_RTOL = 1e-10
TRAJECTORY_RTOL = 1e-7


def close(engine, oracle, rtol, scale=1.0):
    """Whether the engine's values match the oracle's to `rtol` of their size (at least `scale`)."""
    engine, oracle = np.asarray(engine, dtype=float), np.asarray(oracle, dtype=float)
    size = max(scale, float(np.max(np.abs(oracle), initial=0.0)))
    return engine.shape == oracle.shape and bool(np.all(np.abs(engine - oracle) <= rtol * size))


@st.composite
def mixings(draw):
    family = draw(st.sampled_from(["ring", "complete", "directed_exponential", "random"]), label="family")
    if family == "ring":
        return build_ring(draw(st.integers(3, 5), label="n"))
    if family == "complete":
        return build_complete(draw(st.integers(1, 5), label="n"))
    if family == "directed_exponential":
        return build_directed_exponential(draw(st.sampled_from([2, 4]), label="n"))
    n = draw(st.integers(1, 5), label="n")
    w = _doubly_stochastic(n, draw(st.floats(0.05, 1.0), label="c"), draw(st.permutations(range(n)), label="perm"))
    return MixingSpec(n, w, validate_mixing(w).mixing_rate, "custom")


@st.composite
def oracle_cases(draw):
    """(lanes, their horizons, problem, mixing, noise model): every algorithm as a lane of one run, and more."""
    mixing = draw(mixings())
    m, n = draw(st.sampled_from([(1, 1), (2, 3), (3, 2), (1, 4), (3, 3)]), label="shape")
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
        elif draw(st.booleans(), label="theorem"):
            lanes.append(Lane(algorithm, theoretical_schedule(horizon, alpha)))
        else:
            eta = draw(st.sampled_from([0.02, 0.1, 0.3]), label="eta")
            theta = draw(st.sampled_from([0.1, 0.5, 1.0]), label="theta")
            lanes.append(Lane(algorithm, ScheduleParams(eta, theta), horizon=horizon))
    horizons = [lane.horizon or lane.params.horizon for lane in lanes]
    return lanes, horizons, problem, mixing, noise


def assert_rounds_match(lanes, horizons, problem, mixing, noise):
    """Every round of every lane, replayed with `step`, against one reference round from the engine's state."""
    state = initial_state(lanes, mixing.n_nodes, np.zeros((problem.m, problem.n)))
    for k in range(max(horizons)):
        nxt, info = step(state, problem, mixing, noise)
        assert info["failure"] is None
        for j, lane in enumerate(lanes):
            ref = reference_round(lane, problem, mixing.weights, noise, k, list(state.x[j]), list(state.m[j]),
                                  list(state.v[j]))
            where = f"round {k}, lane {j} ({lane.algorithm})"
            assert info["eta"][j] == ref["eta"], where
            np.testing.assert_array_equal(info["noise"], ref["noise"], err_msg=where)
            for name, engine in (("x", nxt.x[j]), ("m", nxt.m[j]), ("v", nxt.v[j]),
                                 ("directions", info["directions"][j])):
                assert close(engine, ref[name], ROUND_RTOL), f"{where}: {name}"
        state = nxt


def assert_runs_match(lanes, horizons, problem, mixing, noise):
    """`run`'s rows and summary of every lane against the reference loop run alone."""
    results = run(lanes, problem, mixing, noise)
    for j, (lane, result) in enumerate(zip(lanes, results)):
        rows, summary = reference_run(lane, horizons[j], problem, mixing, noise)
        assert (result.algorithm, result.horizon, result.seed) == (lane.algorithm, horizons[j], noise.base_seed)
        assert len(result.rows) == len(rows)
        scale = max(1.0, max(abs(row["objective_at_mean"]) for row in rows))
        for engine, ref in zip(result.rows, rows):
            where = f"lane {j} ({lane.algorithm}), iteration {ref['iter']}"
            for name, value in ref.items():
                got = getattr(engine, name)
                if value is None or name == "iter":
                    assert got == value, f"{where}: {name}"
                else:
                    assert close(got, value, TRAJECTORY_RTOL, scale), f"{where}: {name} {got} != {value}"
        for name in ("iota", "consensus_violations", "ball_exited"):
            assert getattr(result, name) == summary[name], f"lane {j}: {name}"
        for name in ("grad_nuclear_at_iota", "avg_grad_nuclear_mean", "noise_alpha_moment"):
            assert close(getattr(result, name), summary[name], TRAJECTORY_RTOL), f"lane {j}: {name}"
        # Round-off only, on both sides: the identities hold exactly in exact arithmetic.
        for name in ("max_tracking_residual", "max_avg_iterate_residual"):
            assert max(getattr(result, name), summary[name]) <= 1e-9 * scale, f"lane {j}: {name}"


@settings(max_examples=25, deadline=None)
@given(oracle_cases())
def test_engine_matches_the_per_node_reference_loop(case):
    lanes, horizons, problem, mixing, noise = case
    try:
        assert_runs_match(lanes, horizons, problem, mixing, noise)
    except Diverged:
        # A heavy-tail draw can make dsgd diverge on the Gram problem; the
        # reference loop has no divergence handling to compare with.
        assume(False)
    assert_rounds_match(lanes, horizons, problem, mixing, noise)


def test_reference_loop_reproduces_a_hand_computed_round():
    # The loop itself on N = 2 scalars f_i(x) = 0.5 (x - t_i)^2, noiseless,
    # complete mixing: one demuon round from zero moves both nodes by -eta sign(mean V).
    problem = ProblemSet("quadratic", 2, 1, 1, a=(np.eye(1), np.eye(1)), b=(np.full((1, 1), 3.0), np.full((1, 1), -1.0)))
    lane = Lane("demuon", ScheduleParams(0.25, 0.5), horizon=1)
    zero = [np.zeros((1, 1))] * 2
    ref = reference_round(lane, problem, build_complete(2).weights, NoiseModel("gaussian", 2.0, 0.0), 0, zero, zero,
                          zero)
    assert [g.item() for g in ref["exact"]] == [-3.0, 1.0]
    assert [m.item() for m in ref["m"]] == [-1.5, 0.5]
    assert [v.item() for v in ref["v"]] == [-0.5, -0.5]
    assert [x.item() for x in ref["x"]] == [0.25, 0.25]
    assert ref["eta"] == 0.25
