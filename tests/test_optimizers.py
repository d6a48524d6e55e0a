import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon.diagnostics import (
    consensus_bound,
    consensus_error_nuclear,
    potential,
    theorem_potential_params,
)
from demuon.linalg import frobenius_norm, spectral_norm
from demuon.noise import NoiseModel
from demuon.optimizers import (
    TRACKER_ALGORITHMS,
    BaselineParams,
    Lane,
    ScheduleParams,
    clip_to_frobenius,
    initial_state,
    parse_orthogonalizer,
    run,
    step,
    theoretical_schedule,
)
from demuon.problems import ProblemSet, QUADRATIC, make_quadratic
from demuon.topology import MixingSpec, build_family, validate_mixing
from test_topology import _doubly_stochastic

NOISELESS = NoiseModel("gaussian", 2.0, 0.0)


def scalar_quadratic(targets):
    """Per-node f_i(x) = 0.5 (x - t_i)^2 on 1x1 matrices."""
    targets = [np.asarray(t, dtype=float).reshape(1, 1) for t in targets]
    n = len(targets)
    return ProblemSet(QUADRATIC, n, 1, 1, a=tuple(np.eye(1) for _ in range(n)), b=tuple(targets))


def lane_state(algorithm, params, n_nodes, x0):
    """The state of a one-lane stack entering round 0."""
    return initial_state([Lane(algorithm, params)], n_nodes, x0)


def test_theoretical_schedule_values():
    s = theoretical_schedule(16, 2.0)
    assert (s.eta, s.theta, s.horizon) == (0.125, 0.25, 16)
    assert ScheduleParams(0.125, 0.25, 16) == s  # the theorem schedule, spelled out
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
        ScheduleParams(eta=0.5, theta=0.5, horizon=16)
    # A horizon marks a theorem schedule: an explicit one names none.
    assert ScheduleParams(0.1, 0.2).horizon is None
    with pytest.raises(ValueError, match="not its power law"):
        ScheduleParams(0.1, 0.2, horizon=7)
    with pytest.raises(ValueError, match="^theorem schedule needs horizon >= 4"):
        ScheduleParams(0.1, 0.2, horizon=3)
    with pytest.raises(ValueError, match="^alpha must lie in"):
        ScheduleParams(0.1, 0.2, alpha=2.5)
    with pytest.raises(ValueError):
        BaselineParams(clip_tau=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_step_sizes_must_be_finite(bad):
    with pytest.raises(ValueError, match=r"^eta .*finite"):
        ScheduleParams(eta=bad, theta=0.5)
    for name in ("dsgd_eta", "clip_eta", "clip_tau"):
        with pytest.raises(ValueError, match=rf"^{name} .*finite"):
            BaselineParams(**{name: bad})


def test_parse_orthogonalizer():
    assert parse_orthogonalizer("svd") == ("svd", 0)
    assert parse_orthogonalizer("ns:15") == ("ns", 15)
    assert parse_orthogonalizer("ns:100") == ("ns", 100)
    # Only the canonical spelling: each variant would get its own run id.
    noncanonical = ("ns: 5", "ns:5 ", "ns:+5", "ns:1_0", "ns:05", "ns:\u0665", "ns:\u00b2")
    for bad in ("ns:0", "ns:x", "ns:", "ns:-1", "ns", "qr", *noncanonical):
        with pytest.raises(ValueError):
            parse_orthogonalizer(bad)


def test_initial_state_replicates_start():
    lanes = (
        Lane("demuon", ScheduleParams(0.1, 0.2)),
        Lane("dsgd", BaselineParams()),
        Lane("dsgd_clip", BaselineParams()),
    )
    st = initial_state(lanes, 3, np.ones((2, 2)))
    assert st.iter == 0
    assert st.x.shape == (3, 3, 2, 2)
    assert np.all(st.x == 1.0)
    assert not st.m.any() and not st.v.any()
    assert st.lanes == lanes and st.n_nodes == 3
    with pytest.raises(ValueError, match="starting point"):
        initial_state(lanes, 3, np.ones(2))


def test_initial_state_rejects_an_empty_lane_list():
    # An empty stack would only fail later, inside the next step's gradient call.
    with pytest.raises(ValueError, match="at least one lane"):
        initial_state([], 3, np.ones((2, 2)))


def test_take_cuts_the_stacks_and_the_lanes_together():
    lanes = tuple(Lane("dsgd", BaselineParams(dsgd_eta=eta)) for eta in (0.1, 0.2, 0.3))
    st = initial_state(lanes, 2, np.zeros((1, 1)))
    st = replace(st, x=np.arange(6.0).reshape(3, 2, 1, 1))
    for idx in ([1, 2], [0, 2], [], range(1)):
        taken = st.take(idx)
        assert taken.lanes == tuple(lanes[j] for j in idx)
        for name in ("x", "m", "v"):
            np.testing.assert_array_equal(getattr(taken, name), getattr(st, name)[list(idx)])
    # Consecutive lanes are views of the stacks.
    assert np.shares_memory(st.take([1, 2]).x, st.x)


def test_single_node_hand_simulation():
    # f(x) = 0.5 (x - 2)^2, x0 = 0, theta = 1, eta = 0.5 -> x1 = 0.5
    prob = scalar_quadratic([2.0])
    st = lane_state("demuon", ScheduleParams(0.5, 1.0), 1, np.zeros((1, 1)))
    st, _ = step(st, prob, build_family("complete", 1), NOISELESS)
    assert st.m[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert st.v[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert st.x[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)


def test_two_node_hand_simulation():
    prob = scalar_quadratic([0.0, 2.0])
    st = lane_state("demuon", ScheduleParams(0.5, 1.0), 2, np.zeros((1, 1)))
    st, _ = step(st, prob, build_family("complete", 2), NOISELESS)
    np.testing.assert_allclose(st.m[0, :, 0, 0], [0.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(st.v[0, :, 0, 0], [-1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(st.x[0, :, 0, 0], [0.5, 0.5], atol=1e-12)


def test_dsgd_hand_simulation():
    prob = scalar_quadratic([0.0, 2.0])
    st = lane_state("dsgd", BaselineParams(dsgd_eta=0.1), 2, np.zeros((1, 1)))
    st, _ = step(st, prob, build_family("complete", 2), NOISELESS)
    np.testing.assert_allclose(st.x[0, :, 0, 0], [0.1, 0.1], atol=1e-12)


def test_dsgd_reduces_to_gradient_descent():
    prob = scalar_quadratic([2.0])
    st = lane_state("dsgd", BaselineParams(dsgd_eta=0.25), 1, np.zeros((1, 1)))
    st, _ = step(st, prob, build_family("complete", 1), NOISELESS)
    assert st.x[0, 0, 0, 0] == pytest.approx(0.25 * 2.0, abs=1e-15)


def test_dsgd_zero_gradient_fixed_point():
    prob = scalar_quadratic([0.0, 0.0])
    st = lane_state("dsgd", BaselineParams(), 2, np.zeros((1, 1)))
    st, _ = step(st, prob, build_family("complete", 2), NOISELESS)
    assert not st.x.any()


def test_clip_schedule_and_norms():
    prob = scalar_quadratic([5.0, -5.0])
    params = BaselineParams(clip_eta=10.0, clip_tau=0.1)
    st = lane_state("dsgd_clip", params, 2, np.zeros((1, 1)))
    st, info = step(st, prob, build_family("complete", 2), NOISELESS)
    assert info["eta"] == [10.0]
    assert info["tau"][0] == pytest.approx(0.1)
    assert all(n <= info["tau"][0] + 1e-15 for n in np.linalg.norm(info["directions"][0], axis=(1, 2)))
    # k = 31: eta_31 = 10/32, tau_31 = 0.1 * 32^(2/5) = 0.4
    st31 = replace(lane_state("dsgd_clip", params, 2, np.zeros((1, 1))), iter=31)
    _, info31 = step(st31, prob, build_family("complete", 2), NOISELESS)
    assert info31["eta"][0] == pytest.approx(0.3125, abs=1e-15)
    assert info31["tau"][0] == pytest.approx(0.4, abs=1e-12)


def test_clip_to_frobenius():
    g = np.array([[2.0, 0.0], [0.0, 0.0]])
    clipped = clip_to_frobenius(g, 1.0)
    assert frobenius_norm(clipped) == pytest.approx(1.0, abs=1e-15)
    small = np.array([[0.1]])
    assert clip_to_frobenius(small, 1.0) is small
    zero = np.zeros((2, 2))
    assert not clip_to_frobenius(zero, 1.0).any()
    # 2^32 squared wraps to 0 in int64; the norm is taken in floats.
    np.testing.assert_array_equal(clip_to_frobenius(np.array([[2**32, 0]]), 1.0), [[1.0, 0.0]])


# The problem of the scale test: a 4-node quadratic with A_i and B_i
# multiplied by `scale`, so every gradient is scale^2 times that at scale 1.
SCALE_LANES = (
    Lane("demuon", ScheduleParams(0.1, 0.5)),
    Lane("demuon", ScheduleParams(0.1, 0.5), orthogonalizer="ns:8"),
    Lane("gt_nsgdm", ScheduleParams(0.1, 0.5)),
    Lane("dsgd_clip", BaselineParams()),
)


def scaled_rounds(scale):
    """The directions (rounds, lanes, N, m, n), clipping radii and final state of 4 noiseless rounds of SCALE_LANES."""
    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.5, seed=1)
    prob = replace(prob, a=prob.a * scale, b=prob.b * scale)
    state = initial_state(SCALE_LANES, 4, np.zeros((3, 2)))
    directions, taus = [], []
    for _ in range(4):
        state, info = step(state, prob, build_family("ring", 4), NOISELESS)
        directions.append(info["directions"])
        taus.append(info["tau"][3])
    return np.array(directions), taus, state


def test_direction_kernels_do_not_depend_on_the_scale():
    # Gradient entries near 1e-180 underflow a plain Frobenius norm's sum of
    # squares, and near 1e160 overflow it; the directions must not notice.
    base, _, _ = scaled_rounds(1.0)
    for scale in (1e-90, 1.0, 1e80):
        directions, taus, state = scaled_rounds(scale)
        assert state.x.any(axis=(1, 2, 3)).all(), f"scale {scale}: a lane never moved"
        for j in range(3):  # demuon on both kernels and gt_nsgdm are scale-free
            size = np.abs(base[:, j]).max()
            assert np.abs(directions[:, j] - base[:, j]).max() <= 1e-12 * size, f"scale {scale}, lane {j}"
        if scale == 1e80:  # every clipped gradient lands on its ball
            for k, tau in enumerate(taus):
                norms = [frobenius_norm(d) for d in directions[k, 3]]
                np.testing.assert_allclose(norms, tau, rtol=1e-12)


def test_gt_directions_are_unit_or_zero(rng):
    prob = make_quadratic(3, 3, 2, 4, heterogeneity=0.4, seed=5)
    noise = NoiseModel("gaussian", 2.0, 0.2, base_seed=7)
    st = lane_state("gt_nsgdm", ScheduleParams(0.1, 0.2), 3, np.zeros((3, 2)))
    mixing = build_family("ring", 3)
    for _ in range(25):
        st, info = step(st, prob, mixing, noise)
        for i in range(3):
            norm = frobenius_norm(info["directions"][0][i])
            assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0


def test_gt_zero_tracker_gives_zero_direction():
    prob = scalar_quadratic([0.0])
    st = lane_state("gt_nsgdm", ScheduleParams(0.1, 0.2), 1, np.zeros((1, 1)))
    st, info = step(st, prob, build_family("complete", 1), NOISELESS)
    assert not info["directions"].any()
    assert not st.x.any()


def test_gt_single_node_normalized_step():
    # f(x) = 0.5 ||x - T||_F^2, theta = 1: x1 = x0 - eta (x0 - T)/||x0 - T||_F
    t = np.array([[3.0, 0.0], [0.0, 4.0]])
    prob = ProblemSet(QUADRATIC, 1, 2, 2, a=(np.eye(2),), b=(t,))
    st = lane_state("gt_nsgdm", ScheduleParams(0.5, 1.0), 1, np.zeros((2, 2)))
    st, _ = step(st, prob, build_family("complete", 1), NOISELESS)
    expected = 0.5 * t / frobenius_norm(t)
    np.testing.assert_allclose(st.x[0, 0], expected, atol=1e-12)


def test_scalar_demuon_equals_gt_nsgdm(rng):
    # sign(v) == v/|v| on 1x1 matrices, so the trajectories coincide
    for trial in range(100):
        target = float(rng.uniform(-3, 3))
        eta = float(rng.uniform(0.01, 0.5))
        theta = float(rng.uniform(0.05, 0.95))
        seed = int(rng.integers(2**31))
        prob = scalar_quadratic([target])
        noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=seed)
        mix = build_family("complete", 1)
        st_d = lane_state("demuon", ScheduleParams(eta, theta), 1, np.zeros((1, 1)))
        st_g = lane_state("gt_nsgdm", ScheduleParams(eta, theta), 1, np.zeros((1, 1)))
        for _ in range(12):
            st_d, _ = step(st_d, prob, mix, noise)
            st_g, _ = step(st_g, prob, mix, noise)
        assert abs(st_d.x[0, 0, 0, 0] - st_g.x[0, 0, 0, 0]) <= 1e-10


def test_complete_graph_keeps_nodes_identical():
    # identical objectives, zero noise: exact node equality for all algorithms
    a = np.array([[1.2, 0.0], [0.3, 0.8]])
    b = np.array([[0.4], [0.9]])
    prob = ProblemSet(QUADRATIC, 4, 2, 1, a=(a,) * 4, b=(b,) * 4)
    mix = build_family("complete", 4)
    sched = ScheduleParams(0.1, 0.3)
    base = BaselineParams()
    for algorithm, params in (
        ("demuon", sched), ("dsgd", base), ("dsgd_clip", base),
        ("gt_nsgdm", ScheduleParams(0.1, 0.2)),
    ):
        st = lane_state(algorithm, params, 4, np.zeros((2, 1)))
        for _ in range(20):
            st, _ = step(st, prob, mix, NOISELESS)
            for i in range(1, 4):
                np.testing.assert_array_equal(st.x[0, i], st.x[0, 0])


# 32x16 and 16x32 take the Gram-eigh polar factor; p = 40 rows keep the
# gradients, and so the trackers, at full rank.
@pytest.mark.parametrize("m, n, p", [(3, 3, 5), (32, 16, 40), (16, 32, 40)])
def test_demuon_directions_have_unit_spectral_norm(m, n, p):
    prob = make_quadratic(4, m, n, p, heterogeneity=0.6, seed=8)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=11)
    st = lane_state("demuon", ScheduleParams(0.1, 0.2), 4, np.zeros((m, n)))
    mixing = build_family("ring", 4)
    for _ in range(20):
        st, info = step(st, prob, mixing, noise)
        for i in range(4):
            assert spectral_norm(info["directions"][0][i]) <= 1.0 + 1e-10


def test_run_emits_one_row_per_iteration():
    prob = make_quadratic(2, 2, 2, 3, seed=1)
    res = run([Lane("dsgd", BaselineParams(), horizon=1)], prob, build_family("complete", 2), NOISELESS)[0]
    assert len(res.rows) == 1
    assert res.rows[0].iter == 0
    assert 0 <= res.iota < 1


def test_run_is_deterministic():
    prob = make_quadratic(3, 3, 2, 4, heterogeneity=0.3, seed=4)
    noise = NoiseModel("student_t", 1.6, 0.4, dof=2.0, base_seed=21)
    r1 = run([Lane("demuon", ScheduleParams(0.1, 0.2), horizon=40)], prob, build_family("ring", 3), noise)[0]
    r2 = run([Lane("demuon", ScheduleParams(0.1, 0.2), horizon=40)], prob, build_family("ring", 3), noise)[0]
    for a, b in zip(r1.rows, r2.rows):
        assert a.consensus_error_x == b.consensus_error_x
        assert a.avg_grad_nuclear == b.avg_grad_nuclear
        assert a.objective_at_mean == b.objective_at_mean
    assert r1.iota == r2.iota


def test_run_single_node_convergence():
    prob = make_quadratic(1, 4, 3, 6, heterogeneity=0.0, seed=3)
    res = run([Lane("demuon", ScheduleParams(0.05, 0.5), horizon=80)], prob, build_family("complete", 1), NOISELESS)[0]
    assert res.rows[-1].avg_grad_nuclear < res.rows[0].avg_grad_nuclear


# One run per algorithm, with the schedule type each takes.
ALGORITHM_PARAMS = [
    ("demuon", ScheduleParams(0.1, 0.2)),
    ("dsgd", BaselineParams()),
    ("dsgd_clip", BaselineParams()),
    ("gt_nsgdm", ScheduleParams(0.1, 0.2)),
]


@pytest.mark.parametrize("algorithm, params", ALGORITHM_PARAMS)
def test_run_tracking_and_average_iterate_identities(algorithm, params):
    # On a doubly stochastic W, mean X+ = mean X - eta * mean(D) for every algorithm.
    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.5, seed=6)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=9)
    res = run([Lane(algorithm, params, horizon=60)], prob, build_family("ring", 4), noise)[0]
    assert res.max_avg_iterate_residual <= 1e-9
    if algorithm in TRACKER_ALGORITHMS:
        assert res.max_tracking_residual <= 1e-9


def _circulant(weights):
    """The circulant matrix whose row i is `weights` shifted right by i: doubly stochastic when they sum to 1."""
    n = len(weights)
    return np.array([[weights[(j - i) % n] for j in range(n)] for i in range(n)])


@st.composite
def doubly_stochastic_mixings(draw):
    """A MixingSpec on a random positive doubly stochastic W, with the rate `validate_mixing` gives."""
    n = draw(st.integers(1, 6), label="n")
    if draw(st.booleans(), label="circulant"):
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n), label="weights"))
        w = _circulant(weights / weights.sum())
    else:
        w = _doubly_stochastic(n, draw(st.floats(0.05, 1.0), label="c"), draw(st.permutations(range(n)), label="perm"))
    return MixingSpec(w, validate_mixing(w))


@settings(max_examples=60, deadline=None)
@given(mixing=doubly_stochastic_mixings(), data=st.data())
def test_identities_hold_on_random_doubly_stochastic_mixing(mixing, data):
    # Not only on the built families: on any doubly stochastic W every
    # algorithm keeps the mean-iterate recursion, the tracked ones the
    # tracking identity, and demuon the consensus envelope.
    m, n = data.draw(st.sampled_from([(1, 1), (2, 3), (1, 4), (3, 2), (3, 3)]), label="shape")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    horizon = data.draw(st.integers(1, 30), label="horizon")
    prob = make_quadratic(mixing.n_nodes, m, n, 3, heterogeneity=0.5, seed=seed)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=seed)
    lanes = [Lane(algorithm, params, horizon=horizon) for algorithm, params in ALGORITHM_PARAMS]
    for res in run(lanes, prob, mixing, noise):
        assert res.max_avg_iterate_residual <= 1e-9
        if res.algorithm in TRACKER_ALGORITHMS:
            assert res.max_tracking_residual <= 1e-9
        if res.algorithm == "demuon":
            assert res.consensus_violations == 0


@pytest.mark.parametrize("algorithm, params", ALGORITHM_PARAMS)
def test_run_checks_mean_iterate_recursion_for_every_algorithm(algorithm, params):
    # Rows sum to 1 but columns do not, so mixing moves the mean iterate and
    # mean X+ = mean X - eta * mean(D) fails for every algorithm.
    prob = make_quadratic(2, 3, 2, 4, heterogeneity=0.5, seed=6)
    mixing = MixingSpec(np.array([[0.5, 0.5], [0.0, 1.0]]), 0.5)
    res = run([Lane(algorithm, params, horizon=5)], prob, mixing, NOISELESS)[0]
    assert res.max_avg_iterate_residual > 1e-3


def test_run_consensus_bound_holds():
    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.5, seed=10)
    noise = NoiseModel("gaussian", 2.0, 0.4, base_seed=2)
    mixing = build_family("ring", 4)
    res = run([Lane("demuon", ScheduleParams(0.1, 0.2), horizon=100)], prob, mixing, noise)[0]
    assert res.consensus_violations == 0
    bound = consensus_bound(0.1, mixing.mixing_rate, 4)
    assert all(row.consensus_error_x <= bound + 1e-9 for row in res.rows)


def test_run_rejects_mismatched_params():
    prob = make_quadratic(2, 2, 2, 3, seed=0)
    with pytest.raises(TypeError):
        run([Lane("demuon", BaselineParams(), horizon=5)], prob, build_family("complete", 2), NOISELESS)
    with pytest.raises(TypeError):
        run([Lane("dsgd", ScheduleParams(0.1, 0.2), horizon=5)], prob, build_family("complete", 2), NOISELESS)
    with pytest.raises(ValueError):
        run([Lane("demuon", ScheduleParams(0.1, 0.2), horizon=5)], prob, build_family("complete", 3), NOISELESS)


@pytest.mark.parametrize("algorithm", ["demuon", "gt_nsgdm"])
def test_run_theorem_schedule_horizon_locked(algorithm):
    prob = make_quadratic(2, 2, 2, 3, seed=0)
    sched = theoretical_schedule(16, 2.0)
    with pytest.raises(ValueError):
        run([Lane(algorithm, sched, horizon=8)], prob, build_family("complete", 2), NOISELESS)
    res = run([Lane(algorithm, sched)], prob, build_family("complete", 2), NOISELESS)[0]  # horizon from schedule
    assert res.horizon == 16


def test_run_iota_uniform_and_seeded():
    prob = make_quadratic(1, 2, 2, 3, seed=0)
    mixing = build_family("complete", 1)
    results = [
        run([Lane("dsgd", BaselineParams(), horizon=50)], prob, mixing, replace(NOISELESS, base_seed=s))[0]
        for s in range(30)
    ]
    assert [r.seed for r in results] == list(range(30))  # the report seed is the noise model's
    iotas = {r.iota for r in results}
    assert all(0 <= i < 50 for i in iotas)
    assert len(iotas) > 5  # the draw varies with the seed


def test_run_iota_reaches_every_round_of_a_short_horizon():
    # Uniform on {0, ..., K-1}: over 40 seeds at K = 4, the first and the last round are drawn too.
    prob = make_quadratic(1, 2, 2, 3, seed=0)
    lane, mixing = Lane("dsgd", BaselineParams(), horizon=4), build_family("complete", 1)
    iotas = {run([lane], prob, mixing, replace(NOISELESS, base_seed=s))[0].iota for s in range(40)}
    assert iotas == {0, 1, 2, 3}


def test_run_newton_schulz_orthogonalizer():
    prob = make_quadratic(2, 3, 3, 4, heterogeneity=0.2, seed=12)
    noise = NoiseModel("gaussian", 2.0, 0.1, base_seed=3)
    res = run([Lane("demuon", ScheduleParams(0.1, 0.2), orthogonalizer="ns:15", horizon=30)], prob,
              build_family("complete", 2), noise)[0]
    assert res.consensus_violations == 0
    assert res.max_tracking_residual <= 1e-9
    assert res.max_avg_iterate_residual <= 1e-9


def test_run_results_hold_every_round_row_in_order():
    prob = make_quadratic(2, 2, 2, 3, seed=1)
    [res] = run([Lane("dsgd", BaselineParams(), horizon=7)], prob, build_family("complete", 2), NOISELESS)
    assert [r.iter for r in res.rows] == list(range(7))


def test_two_route_consensus_norms_sandwich_each_iteration():
    # logged stacked-norm consensus errors agree with per-block computations
    import math

    from demuon.linalg import nuclear_norm
    from demuon.diagnostics import consensus_error, consensus_error_nuclear

    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.5, seed=13)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=4)
    mixing = build_family("ring", 4)
    st = lane_state("demuon", ScheduleParams(0.1, 0.2), 4, np.zeros((3, 2)))
    for _ in range(60):
        x = st.x[0]
        x_dev = x - x.mean(axis=0)
        per_sp = [spectral_norm(d) for d in x_dev]
        stacked_sp = consensus_error(x)
        assert stacked_sp >= np.mean(per_sp) - 1e-12
        assert stacked_sp <= math.sqrt(sum(v**2 for v in per_sp)) + 1e-12
        st, _ = step(st, prob, mixing, noise)
        v = st.v[0]
        v_dev = v - v.mean(axis=0)
        per_nu = [nuclear_norm(d) for d in v_dev]
        stacked_nu = consensus_error_nuclear(v)
        assert stacked_nu >= np.mean(per_nu) - 1e-12
        assert stacked_nu <= sum(per_nu) + 1e-12


def test_potential_trend_on_noiseless_run(monkeypatch):
    import demuon.diagnostics as diagnostics
    import demuon.optimizers as optimizers
    import demuon.problems as problems

    prob = make_quadratic(4, 3, 2, 4, heterogeneity=0.3, seed=17)
    mixing = build_family("ring", 4)
    sched = theoretical_schedule(200, 2.0)
    # The theorem schedule alone fills the potential, and the potential reuses
    # the round's exact gradients, and its window's objective at the mean and
    # tracker consensus: one call each per window of rounds, none per potential.
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
    rows = []
    for window in (1, 7, 64):  # 200, 29 and 4 windows of the 200 rounds
        monkeypatch.setattr(optimizers, "_WINDOW_ROUNDS", window)
        calls.update(dict.fromkeys(calls, 0))
        res = run([Lane("demuon", sched)], prob, mixing, NOISELESS)[0]
        windows = -(-200 // window)
        assert calls == {"exact_gradient": 200, "objective_at": windows, "consensus_error_nuclear": windows}
        rows.append([replace(row, wall_time_ms=None) for row in res.rows])
    assert rows[0] == rows[1] == rows[2]
    monkeypatch.undo()
    st0 = lane_state("demuon", sched, 4, np.zeros((3, 2)))
    st1, info = step(st0, prob, mixing, NOISELESS)
    by_hand = potential(
        [problems.objective_at(prob, st0.x[0].mean(axis=0))],
        info["exact_grads"][:1],
        st1.m[:1],
        [consensus_error_nuclear(st1.v[0])],
        [theorem_potential_params(200, 2.0, mixing.mixing_rate)],
    )[0]
    assert res.rows[0].potential == by_hand
    pots = [row.potential for row in res.rows]
    assert all(np.isfinite(p) for p in pots)
    best = np.minimum.accumulate(pots)
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert best[-1] < 0.9 * pots[0]  # the trend actually descends


def test_run_warns_when_ball_exited():
    from demuon.problems import make_nonconvex_gram

    prob = replace(make_nonconvex_gram(2, 3, 2, heterogeneity=0.0, seed=5), ball_radius=1e-3)
    noise = NoiseModel("gaussian", 2.0, 0.5, base_seed=1)
    with pytest.warns(RuntimeWarning, match="certified ball"):
        res = run([Lane("demuon", ScheduleParams(0.3, 0.5), horizon=10)], prob, build_family("complete", 2), noise)[0]
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

    prob = replace(make_nonconvex_gram(3, 4, 3, heterogeneity=0.5, seed=5), ball_radius=radius)
    noise = NoiseModel("gaussian", 2.0, 0.5, base_seed=1)
    mixing = build_family("ring", 3)
    # Reference: every node's spectral norm after every round.
    st = lane_state(algorithm, params, 3, np.zeros((4, 3)))
    expected = None
    for k in range(40):
        st, _ = step(st, prob, mixing, noise)
        if max(spectral_norm(st.x[0, i]) for i in range(3)) > radius:
            expected = k
            break
    assert expected is not None and expected > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run([Lane(algorithm, params, horizon=40)], prob, mixing, noise)[0]
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
        res = run([Lane(algorithm, params, horizon=60)], prob, build_family("ring", 3), noise)[0]
        assert not res.ball_exited
    assert decomposed == []


@pytest.mark.parametrize("radius", [2.0, 1e-100, 1e100])
def test_ball_screen_decides_as_the_spectral_norm(monkeypatch, radius):
    import demuon.optimizers as optimizers

    # Each lane holds a probe and a node far inside the ball. The first five
    # probes have Frobenius norm above the radius and spectral norm far
    # below it (their Gram bound is below it too), just below it, at it,
    # just above it and far above it; the rest are rank-1 nodes at the
    # radius up to a few ulps, where the Gram bound is the spectral norm; the
    # last is far outside, and its Gram overflows.
    rng = np.random.default_rng(11)

    def node(s):
        u = np.linalg.qr(rng.standard_normal((4, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return (u * (radius * np.asarray(s))) @ v.T

    spectra = ([0.8, 0.75, 0.7], [1.0 - 1e-9, 0.9, 0.9], [1.0, 0.9, 0.9], [1.0 + 1e-9, 0.9, 0.9], [1.5, 1.0, 1.0])
    probes = [node(s) for s in spectra]
    probes += [node([1.0 + j * 2.2e-16, 0.0, 0.0]) for j in range(-3, 4)]
    probes.append(radius * 1e200 * np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    xs = np.stack([np.stack([p, node([1e-3] * 3)]) for p in probes])
    decomposed = []
    monkeypatch.setattr(optimizers, "spectral_norm", lambda a: decomposed.append(a.copy()) or spectral_norm(a))
    with np.errstate(over="ignore"):  # the Frobenius norm of the last probe overflows at radius 2
        got = optimizers._outside_ball(xs, radius)
    assert got.tolist() == [spectral_norm(p) > radius for p in probes]
    assert sum(map(len, decomposed)) == len(probes) - 1  # the first probe is screened out by its Gram bound
    # A (W, L, N, m, n) window of such stacks, as `_window_rows` passes it, and
    # its reversed view, as `_Stores.carry` leaves the slots: one value per
    # (round, lane), from the matrices that one call per round decomposes.
    window = np.stack([xs, np.zeros_like(xs), xs[::-1], np.roll(xs, 3, axis=0)])
    with np.errstate(over="ignore"):
        for stack in (window, window[::-1]):
            decomposed.clear()
            got = optimizers._outside_ball(stack, radius)
            stacked = np.concatenate(decomposed)
            decomposed.clear()
            assert got.tolist() == [optimizers._outside_ball(rows, radius).tolist() for rows in stack]
            assert stacked.tobytes() == np.concatenate(decomposed).tobytes()


def dsgd_divergence_setup():
    """The divergence repro: dsgd at eta = 1 on the Gram family under Student-t noise (dof 1.3)."""
    from demuon.problems import make_nonconvex_gram

    prob = make_nonconvex_gram(4, 4, 3, seed=0)
    noise = NoiseModel("student_t", 1.2, 0.3, dof=1.3, base_seed=0)
    return prob, build_family("ring", 4), noise, BaselineParams(dsgd_eta=1.0)


def test_a_mean_gradient_that_overflows_reads_inf():
    # Round 5's node gradients are finite, so its iterates are too, but their
    # sum overflows: the row reads inf, and round 6 diverges.
    from demuon.optimizers import Diverged
    from demuon.problems import make_nonconvex_gram

    prob = make_nonconvex_gram(2, 13, 12, heterogeneity=0.5, seed=245)
    noise = NoiseModel("student_t", 1.2, 0.5, dof=1.3, base_seed=245)
    lane = Lane("dsgd", BaselineParams(dsgd_eta=1.0), horizon=7)
    with warnings.catch_warnings(), pytest.raises(Diverged) as caught:
        warnings.simplefilter("ignore")  # the lane leaves the certified ball first
        run([lane], prob, build_family("complete", 2), noise)
    assert (caught.value.iteration, caught.value.quantity) == (6, "iterate")
    norms = [row.avg_grad_nuclear for row in caught.value.rows]
    assert np.isfinite(norms[:5]).all() and norms[5] == np.inf


def test_dsgd_divergence_stops_at_the_round_with_context():
    from demuon.optimizers import Diverged

    prob, mixing, noise, params = dsgd_divergence_setup()
    st = lane_state("dsgd", params, 4, np.zeros((4, 3)))
    # step raises the failing lane's Diverged; the state entering the round is left whole.
    with pytest.raises(Diverged) as caught:
        for _ in range(50):
            assert np.isfinite(st.x).all()
            st = step(st, prob, mixing, noise)[0]
    exc = caught.value
    assert isinstance(exc, ValueError)
    assert len(st.lanes) == 1 and st.x.shape == (1, 4, 4, 3) and np.isfinite(st.x).all()
    assert (exc.algorithm, exc.iteration, exc.quantity, exc.lane) == ("dsgd", st.iter, "iterate", 0)
    assert 0 <= exc.node < 4
    # The run leaves the certified ball before it diverges; that is its only warning.
    with pytest.raises(Diverged) as from_run, pytest.warns(RuntimeWarning, match="certified ball"):
        run([Lane("dsgd", params, horizon=50)], prob, mixing, noise)
    assert (from_run.value.iteration, from_run.value.node) == (exc.iteration, exc.node)
    assert [row.iter for row in from_run.value.rows] == list(range(exc.iteration))
    assert f"iteration {exc.iteration}" in str(from_run.value)


def test_step_raises_the_first_failing_lane_and_a_prefix_reruns_the_round():
    # Lane 1's iterate and lane 2's momentum overflow in the same round. The
    # momenta are checked first, so lane 2's Diverged is raised; the lanes
    # before it then rerun the round, which surfaces lane 1's iterate, and
    # lane 0 alone steps as a one-lane stack does.
    from demuon.optimizers import Diverged, RunState
    from demuon.problems import make_nonconvex_gram

    prob = make_nonconvex_gram(3, 4, 3, heterogeneity=0.5, seed=0)
    mixing, noise = build_family("ring", 3), NoiseModel("gaussian", 2.0, 0.3, base_seed=1)
    lanes = (
        Lane("demuon", ScheduleParams(0.05, 0.5)),
        Lane("dsgd", BaselineParams(dsgd_eta=1e10)),  # a finite gradient near 1e300, a step past overflow
        Lane("gt_nsgdm", ScheduleParams(0.1, 0.5)),  # a gradient past overflow
    )
    x = np.broadcast_to(np.array([0.0, 1e100, 1e200]).reshape(3, 1, 1, 1), (3, 3, 4, 3)).copy()
    state = RunState(5, x, np.zeros_like(x), np.zeros_like(x), lanes)
    for kept, quantity in ((3, "momentum"), (2, "iterate")):
        with pytest.raises(Diverged) as caught:
            step(state.take(range(kept)), prob, mixing, noise)
        exc = caught.value
        assert (exc.lane, exc.algorithm, exc.iteration, exc.quantity, exc.node) == (
            kept - 1, lanes[kept - 1].algorithm, 5, quantity, 0
        )
    nxt, info = step(state.take(range(1)), prob, mixing, noise)
    one = RunState(5, x[:1].copy(), np.zeros((1, 3, 4, 3)), np.zeros((1, 3, 4, 3)), lanes[:1])
    alone, alone_info = step(one, prob, mixing, noise)
    for name in ("x", "m", "v"):
        np.testing.assert_array_equal(getattr(nxt, name), getattr(alone, name))
    assert nxt.iter == alone.iter == 6 and nxt.lanes == alone.lanes
    for name in ("exact_grads", "noise", "directions"):
        np.testing.assert_array_equal(info[name], alone_info[name])
    assert (info["eta"], info["tau"]) == (alone_info["eta"], alone_info["tau"])


def _untimed_rows(rows):
    """The rows without their wall time."""
    return [replace(row, wall_time_ms=None) for row in rows]


def _untimed(result):
    """The result as text, rows without their wall time: repr is exact for every float."""
    return repr(replace(result, rows=_untimed_rows(result.rows)))


def _lanes(horizon):
    baseline = st.builds(BaselineParams, dsgd_eta=st.sampled_from([3.0, 1.0, 0.01]))
    schedule = st.one_of(
        st.builds(ScheduleParams, st.sampled_from([1.0, 0.05]), st.sampled_from([1.0, 0.2])),
        st.builds(theoretical_schedule, st.just(horizon), st.sampled_from([1.5, 2.0])),
    )
    kernel = st.one_of(st.just("svd"), st.integers(1, 8).map(lambda k: f"ns:{k}"))
    return st.one_of(
        st.builds(Lane, st.sampled_from(["dsgd", "dsgd_clip"]), baseline, horizon=st.just(horizon)),
        st.builds(Lane, st.just("gt_nsgdm"), schedule, horizon=st.just(horizon)),
        st.builds(Lane, st.just("demuon"), schedule, kernel, horizon=st.just(horizon)),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lockstep_lanes_equal_one_lane_runs(data):
    # Random lanes, divergence and ball exits included: one lockstep run gives
    # what running the lanes one after another gives, float for float.
    from demuon.problems import make_nonconvex_gram

    n_nodes = data.draw(st.integers(1, 4), label="n_nodes")
    m, n = data.draw(st.sampled_from([(3, 2), (2, 3), (1, 1), (3, 3), (13, 12)]), label="shape")
    horizon = data.draw(st.integers(4, 24), label="horizon")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    if data.draw(st.sampled_from([True, False]), label="gram"):
        prob = make_nonconvex_gram(n_nodes, m, n, heterogeneity=0.5, seed=seed)
    else:
        prob = make_quadratic(n_nodes, m, n, 3, heterogeneity=0.5, seed=seed)
    families = ["complete"] + ["ring"] * (n_nodes >= 3) + ["directed_exponential"] * (n_nodes in (2, 4))
    mixing = build_family(data.draw(st.sampled_from(families), label="mixing"), n_nodes)
    noise = data.draw(st.sampled_from([
        NoiseModel("student_t", 1.2, 0.5, dof=1.3, base_seed=seed),
        NoiseModel("gaussian", 2.0, 0.3, base_seed=seed),
    ]), label="noise")
    lanes = data.draw(st.lists(_lanes(horizon), min_size=1, max_size=4), label="lanes")

    results, failure, caught = _outcome(lambda: run(lanes, prob, mixing, noise))
    assert (results, failure, caught) == _outcome(lambda: _one_by_one(lanes, prob, mixing, noise))
    assert failure is not None or len(results) == len(lanes)


def test_run_takes_each_lanes_horizon():
    prob = make_quadratic(2, 2, 2, 3, seed=0)
    args = (prob, build_family("complete", 2), NOISELESS)
    with pytest.raises(ValueError, match="at least one lane"):
        run([], *args)
    with pytest.raises(ValueError, match="horizon"):
        run([Lane("dsgd", BaselineParams())], *args)  # a baseline has no schedule horizon
    with pytest.raises(ValueError, match="horizon"):
        run([Lane("demuon", theoretical_schedule(16), horizon=0)], *args)
    with pytest.raises(ValueError, match="K=16"):
        run([Lane("demuon", theoretical_schedule(16), horizon=8), Lane("dsgd", BaselineParams(), horizon=8)], *args)
    lanes = [
        Lane("demuon", theoretical_schedule(16)),
        Lane("gt_nsgdm", theoretical_schedule(32), horizon=32),
        Lane("dsgd", BaselineParams(), horizon=5),
        Lane("demuon", ScheduleParams(0.1, 0.2), horizon=7),
        Lane("dsgd_clip", BaselineParams(), horizon=11),
    ]
    results = run(lanes, *args)
    assert [r.horizon for r in results] == [16, 32, 5, 7, 11]
    assert [len(r.rows) for r in results] == [16, 32, 5, 7, 11]
    with pytest.raises(ValueError, match="algorithm"):
        Lane("sgd", BaselineParams())


@pytest.mark.parametrize("algorithm", ["demuon", "gt_nsgdm"])
def test_a_lane_on_an_explicit_schedule_names_its_own_horizon(algorithm):
    # An explicit schedule has no horizon: a lane on one that names none is
    # rejected instead of running a default number of rounds.
    args = (make_quadratic(2, 2, 2, 3, seed=0), build_family("complete", 2), NOISELESS)
    with pytest.raises(ValueError, match="horizon must be a positive integer, got None"):
        run([Lane(algorithm, ScheduleParams(0.1, 0.2))], *args)
    [result] = run([Lane(algorithm, ScheduleParams(0.1, 0.2), horizon=3)], *args)
    assert result.horizon == 3 and len(result.rows) == 3


def test_lane_rejects_an_unknown_orthogonalizer_where_it_is_built():
    with pytest.raises(ValueError, match="orthogonalizer must be"):
        Lane("demuon", ScheduleParams(0.1, 0.2), orthogonalizer="qr")
    with pytest.raises(ValueError, match="orthogonalizer must be"):
        Lane("dsgd", BaselineParams(), orthogonalizer="ns:0")
    assert Lane("demuon", ScheduleParams(0.1, 0.2), orthogonalizer="ns:5").orthogonalizer == "ns:5"


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)], ids=["float", "bool", "numpy-float"])
def test_run_rejects_a_horizon_that_is_not_an_integer(bad):
    args = (make_quadratic(2, 2, 2, 3, seed=0), build_family("complete", 2), NOISELESS)
    with pytest.raises(ValueError, match="horizon must be a positive integer"):
        run([Lane("dsgd", BaselineParams(), horizon=bad)], *args)
    with pytest.raises(ValueError, match="horizon must be a positive integer"):
        run([Lane("demuon", ScheduleParams(0.1, 0.2), horizon=bad)], *args)
    # numpy integers are integers.
    [result] = run([Lane("dsgd", BaselineParams(), horizon=np.int64(3))], *args)
    assert result.horizon == 3 and len(result.rows) == 3


def _own_horizon_lanes():
    baseline = st.builds(
        BaselineParams,
        dsgd_eta=st.sampled_from([3.0, 1.0, 0.01]),
        clip_eta=st.sampled_from([10.0, 1.0]),
        clip_tau=st.sampled_from([0.1, 0.5]),
    )
    kernel = st.one_of(st.just("svd"), st.integers(1, 8).map(lambda k: f"ns:{k}"))
    horizons = st.integers(1, 14)
    # eta = 1e200 makes a tracked lane on a Gram problem diverge at its momentum.
    explicit = st.builds(ScheduleParams, st.sampled_from([1.0, 0.05, 1e200]), st.sampled_from([1.0, 0.2]))
    theorem = st.builds(theoretical_schedule, st.integers(4, 14), st.sampled_from([1.5, 2.0]))
    # (schedule, lane horizon): a lane on an explicit schedule names its
    # horizon; one on a theorem schedule runs the schedule's, or names it.
    tracked = st.one_of(
        st.tuples(explicit, horizons),
        theorem.flatmap(lambda s: st.tuples(st.just(s), st.sampled_from([None, s.horizon]))),
    )
    return st.one_of(
        st.builds(Lane, st.sampled_from(["dsgd", "dsgd_clip"]), baseline, horizon=horizons),
        tracked.map(lambda t: Lane("gt_nsgdm", t[0], horizon=t[1])),
        st.tuples(tracked, kernel).map(lambda t: Lane("demuon", t[0][0], t[1], horizon=t[0][1])),
    )


def _outcome(call):
    """(results as exact text, the Diverged's fields or None, warning texts) of a run call."""
    from demuon.optimizers import Diverged

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            results, failure = call(), None
        except Diverged as exc:
            results, failure = exc.finished, exc
    failure = failure and (
        failure.algorithm, failure.iteration, failure.node, failure.quantity, str(failure),
        repr(_untimed_rows(failure.rows)),
    )
    return [_untimed(r) for r in results], failure, [str(w.message) for w in caught]


def _one_by_one(lanes, *args, **kwargs):
    """The lanes run one after another, stopping at the first Diverged as a sequential caller would."""
    from demuon.optimizers import Diverged

    results = []
    for lane in lanes:
        try:
            results += run([lane], *args, **kwargs)
        except Diverged as exc:
            exc.finished = results
            raise
    return results


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lanes_with_their_own_horizons_equal_one_lane_runs(data):
    # Lanes of every kernel group and their own horizons, retiring mid-pass,
    # diverging anywhere in the lane order: one stacked pass gives what running
    # the lanes one after another gives, float for float.
    from demuon.problems import make_nonconvex_gram

    m, n = data.draw(st.sampled_from([(8, 6), (6, 5), (32, 16), (16, 32), (1, 1), (2, 3)]), label="shape")
    n_nodes = data.draw(st.integers(1, 4), label="n_nodes")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    if data.draw(st.booleans(), label="gram"):
        prob = make_nonconvex_gram(n_nodes, m, n, heterogeneity=0.5, seed=seed)
    else:
        prob = make_quadratic(n_nodes, m, n, 3, heterogeneity=0.5, seed=seed)
    families = ["complete"] + ["ring"] * (n_nodes >= 3) + ["directed_exponential"] * (n_nodes in (2, 4))
    mixing = build_family(data.draw(st.sampled_from(families), label="mixing"), n_nodes)
    noise = data.draw(st.sampled_from([
        NoiseModel("student_t", 1.2, 0.5, dof=1.3, base_seed=seed),
        NoiseModel("gaussian", 2.0, 0.3, base_seed=seed),
    ]), label="noise")
    lanes = data.draw(st.lists(_own_horizon_lanes(), min_size=1, max_size=5), label="lanes")
    args = (prob, mixing, noise)

    stacked = _outcome(lambda: run(lanes, *args))
    assert stacked == _outcome(lambda: _one_by_one(lanes, *args))
    results, failure, _ = stacked
    assert failure is not None or len(results) == len(lanes)


# dsgd at eta = 1 diverges at iteration 6 with a non-finite iterate; demuon
# at eta = 1e200 at iteration 1, with a non-finite momentum.
DIVERGING_LANES = {
    "dsgd-iterate": Lane("dsgd", BaselineParams(dsgd_eta=1.0), horizon=40),
    "demuon-momentum": Lane("demuon", ScheduleParams(1e200, 0.5), horizon=40),
}


@pytest.mark.parametrize("diverging", sorted(DIVERGING_LANES))
@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_diverging_lane_keeps_the_sequential_outcome(position, diverging):
    # All four kernel groups, lanes that retire before, at and after the
    # divergence, and one lane that diverges.
    from demuon.optimizers import Diverged

    prob, mixing, noise, _ = dsgd_divergence_setup()
    lanes = [
        Lane("demuon", theoretical_schedule(12)),
        Lane("gt_nsgdm", ScheduleParams(0.1, 0.2), horizon=3),
        Lane("dsgd_clip", BaselineParams(), horizon=30),
        Lane("demuon", ScheduleParams(0.05, 0.5), orthogonalizer="ns:5", horizon=4),
    ]
    lanes.insert(position, DIVERGING_LANES[diverging])
    stacked = _outcome(lambda: run(lanes, prob, mixing, noise))
    assert stacked == _outcome(lambda: _one_by_one(lanes, prob, mixing, noise))
    results, failure, _ = stacked
    assert f"{failure[0]}-{failure[3]}" == diverging and len(results) == position
    with warnings.catch_warnings(), pytest.raises(Diverged) as caught:
        warnings.simplefilter("ignore")
        run(lanes, prob, mixing, noise)
    expected = [lane.horizon or lane.params.horizon for lane in lanes[:position]]
    assert [r.horizon for r in caught.value.finished] == expected and caught.value.lane == position


# Lanes passed so that their own order splits the demuon kind and the tracked lanes.
INTERLEAVED = [
    Lane("demuon", ScheduleParams(0.05, 0.5), horizon=12),
    Lane("dsgd", BaselineParams(), horizon=12),
    Lane("gt_nsgdm", ScheduleParams(0.1, 0.2), horizon=12),
    Lane("demuon", ScheduleParams(0.1, 0.2), horizon=12),
    Lane("dsgd_clip", BaselineParams(clip_tau=1e-3), horizon=12),
]


def _counting(monkeypatch, module, names):
    """Calls of each of `names` in `module`, counted into the returned dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_interleaved_lanes_take_one_call_per_stage_and_equal_one_lane_runs(monkeypatch):
    import demuon.optimizers as optimizers

    prob = make_quadratic(3, 14, 12, 4, heterogeneity=0.5, seed=6)  # the Gram route of the polar factor
    mixing, noise = build_family("ring", 3), NoiseModel("student_t", 1.5, 0.3, dof=2.0, base_seed=6)
    one_by_one = _outcome(lambda: _one_by_one(INTERLEAVED, prob, mixing, noise))
    calls = _counting(monkeypatch, optimizers, ("msgn_exact", "mix_blocks"))
    assert _outcome(lambda: run(INTERLEAVED, prob, mixing, noise)) == one_by_one
    # `run` stacks the two demuon lanes together and the tracked lanes first:
    # each round takes one polar factor, one tracker mix and one iterate mix.
    assert calls == {"msgn_exact": 12, "mix_blocks": 2 * 12}


def test_an_orthogonalizer_splits_only_polar_lanes(monkeypatch):
    # Lanes group by (tracked, kernel): gt_nsgdm ignores its orthogonalizer,
    # so its two lanes share one unit-kernel call per round, while demuon's
    # two take one exact and one Newton-Schulz polar factor per round.
    import demuon.linalg as linalg
    import demuon.optimizers as optimizers

    prob = make_quadratic(3, 14, 12, 4, heterogeneity=0.5, seed=8)
    mixing, noise = build_family("ring", 3), NoiseModel("student_t", 1.5, 0.3, dof=2.0, base_seed=8)
    for algorithm, counted, expected in (
        ("gt_nsgdm", (linalg, ("_unit_frobenius",)), {"_unit_frobenius": 12}),
        ("demuon", (optimizers, ("msgn_exact", "msgn_newton_schulz")), {"msgn_exact": 12, "msgn_newton_schulz": 12}),
    ):
        lanes = [Lane(algorithm, ScheduleParams(0.05, 0.5), spec, horizon=12) for spec in ("svd", "ns:3")]
        one_by_one = _outcome(lambda: _one_by_one(lanes, prob, mixing, noise))
        with monkeypatch.context() as patch:
            calls = _counting(patch, *counted)
            assert _outcome(lambda: run(lanes, prob, mixing, noise)) == one_by_one
        assert calls == expected, algorithm


def test_step_on_an_interleaved_stack_equals_one_lane_steps():
    # A stack in any order gets the same bits, from one call per run of consecutive lanes that share a stage.
    from demuon.optimizers import RunState

    prob = make_quadratic(3, 14, 12, 4, heterogeneity=0.5, seed=7)
    mixing, noise = build_family("ring", 3), NoiseModel("student_t", 1.5, 0.3, dof=2.0, base_seed=7)
    rng = np.random.default_rng(7)
    shape = (len(INTERLEAVED), 3, 14, 12)
    tracked = np.array([lane.algorithm in TRACKER_ALGORITHMS for lane in INTERLEAVED]).reshape(-1, 1, 1, 1)
    x, m, v = rng.standard_normal(shape), tracked * rng.standard_normal(shape), tracked * rng.standard_normal(shape)
    nxt, info = step(RunState(9, x, m, v, tuple(INTERLEAVED)), prob, mixing, noise)
    for i, lane in enumerate(INTERLEAVED):
        alone, alone_info = step(RunState(9, x[i : i + 1], m[i : i + 1], v[i : i + 1], (lane,)), prob, mixing, noise)
        for got, want in ((nxt.x, alone.x), (nxt.m, alone.m), (nxt.v, alone.v)):
            assert got[i : i + 1].tobytes() == want.tobytes(), (i, lane.algorithm)
        for name in ("exact_grads", "directions"):
            assert info[name][i : i + 1].tobytes() == alone_info[name].tobytes(), (i, name)
        assert (info["eta"][i], info["tau"][i]) == (alone_info["eta"][0], alone_info["tau"][0])
        assert info["noise"].tobytes() == alone_info["noise"].tobytes()


def test_a_lane_stacked_ahead_of_its_caller_order_does_not_outlive_a_failure(monkeypatch):
    # `run` stacks tracked lanes first, so a diverging dsgd lane can sit behind
    # lanes passed after it; those leave with it, as in a one-after-another run.
    import demuon.optimizers as optimizers
    from demuon.optimizers import Diverged

    prob, mixing, noise, params = dsgd_divergence_setup()
    diverging = Lane("dsgd", params, horizon=40)  # fails at iteration 6
    demuon, gt = Lane("demuon", theoretical_schedule(12)), Lane("gt_nsgdm", ScheduleParams(0.1, 0.2), horizon=30)
    stacked = []

    def recorded(state, *args, _step=optimizers.step, **kwargs):
        stacked.append(tuple(lane.algorithm for lane in state.lanes))
        return _step(state, *args, **kwargs)

    monkeypatch.setattr(optimizers, "step", recorded)
    for lanes, kept, steps in (
        ([diverging, demuon], [], [("demuon", "dsgd")] * 7),
        ([demuon, diverging, gt], ["demuon"], [("demuon", "gt_nsgdm", "dsgd")] * 7 + [("demuon",)] * 6),
    ):
        stacked.clear()
        with warnings.catch_warnings(), pytest.raises(Diverged) as caught:
            warnings.simplefilter("ignore")
            run(lanes, prob, mixing, noise)
        exc = caught.value
        assert (exc.algorithm, exc.iteration, exc.lane) == ("dsgd", 6, lanes.index(diverging))
        assert [r.algorithm for r in exc.finished] == kept and stacked == steps
        assert _outcome(lambda: run(lanes, prob, mixing, noise)) == _outcome(
            lambda: _one_by_one(lanes, prob, mixing, noise)
        )


def test_two_lanes_failing_in_one_round_raise_the_one_passed_first(monkeypatch):
    # A dsgd lane and a dsgd_clip lane, clipped nowhere, both fail at iteration 6.
    # `run` stacks the later dsgd lane with the first one, ahead of the
    # dsgd_clip lane passed before it, so the stack raises the later lane
    # first; the rerun of the round raises the earlier one.
    import demuon.optimizers as optimizers
    from demuon.optimizers import Diverged

    prob, mixing, noise, params = dsgd_divergence_setup()
    lanes = [
        Lane("dsgd", BaselineParams(), horizon=40),
        Lane("dsgd_clip", BaselineParams(clip_eta=1.0, clip_tau=1e300), horizon=40),
        Lane("dsgd", params, horizon=40),
    ]
    stacked = []

    def recorded(state, *args, _step=optimizers.step, **kwargs):
        stacked.append(tuple(lanes.index(lane) for lane in state.lanes))
        return _step(state, *args, **kwargs)

    monkeypatch.setattr(optimizers, "step", recorded)
    with warnings.catch_warnings(), pytest.raises(Diverged) as caught:
        warnings.simplefilter("ignore")
        run(lanes, prob, mixing, noise)
    exc = caught.value
    assert (exc.iteration, exc.lane, len(exc.finished), len(exc.rows)) == (6, 1, 1, 6)
    assert stacked == [(0, 2, 1)] * 7 + [(0, 1)] + [(0,)] * 34
    assert _outcome(lambda: run(lanes, prob, mixing, noise)) == _outcome(
        lambda: _one_by_one(lanes, prob, mixing, noise)
    )


def _window_invariant(monkeypatch, lanes, *args):
    """The run's outcome at the default window, checked equal at one-round and at full 64-round windows."""
    import demuon.optimizers as optimizers

    windowed = _outcome(lambda: run(lanes, *args))
    for name, value in (("_WINDOW_ROUNDS", 1), ("_WINDOW_BYTES", 2**62)):
        with monkeypatch.context() as patch:
            patch.setattr(optimizers, name, value)
            assert _outcome(lambda: run(lanes, *args)) == windowed
    return windowed


def test_rows_do_not_depend_on_the_window_when_lanes_retire_mid_window(monkeypatch):
    prob = make_quadratic(4, 6, 5, 3, heterogeneity=0.5, seed=2)
    noise = NoiseModel("student_t", 1.5, 0.3, dof=2.0, base_seed=4)
    lanes = [
        Lane("demuon", theoretical_schedule(64, 1.5)),
        Lane("gt_nsgdm", ScheduleParams(0.05, 0.2), horizon=37),
        Lane("dsgd_clip", BaselineParams(), horizon=5),
        Lane("demuon", ScheduleParams(0.05, 0.5), orthogonalizer="ns:5", horizon=37),
    ]
    results, failure, caught = _window_invariant(monkeypatch, lanes, prob, build_family("ring", 4), noise)
    assert failure is None and caught == [] and len(results) == len(lanes)
    assert [[row.iter for row in r.rows] for r in run(lanes, prob, build_family("ring", 4), noise)] == [
        list(range(k)) for k in (64, 37, 5, 37)
    ]


def test_rows_do_not_depend_on_the_window_when_the_ball_is_left_mid_window(monkeypatch):
    import re

    from demuon.problems import make_nonconvex_gram

    prob = replace(make_nonconvex_gram(3, 4, 3, heterogeneity=0.5, seed=5), ball_radius=0.5)
    noise = NoiseModel("gaussian", 2.0, 0.5, base_seed=1)
    lanes = [Lane(algorithm, params, horizon=40) for algorithm, params, _ in BALL_CASES]
    results, failure, caught = _window_invariant(monkeypatch, lanes, prob, build_family("ring", 3), noise)
    exits = [int(re.search(r"at iteration (\d+)", text).group(1)) for text in caught]
    # Each lane leaves the ball at its own round, all inside one window when a window may hold 64 rounds.
    assert failure is None and len(set(exits)) == len(lanes)
    assert all(0 < k < 39 for k in exits)


def test_rows_do_not_depend_on_the_window_when_a_lane_diverges_mid_window(monkeypatch):
    from demuon.optimizers import Diverged

    prob, mixing, noise, params = dsgd_divergence_setup()
    lanes = [
        Lane("demuon", theoretical_schedule(12)),
        Lane("dsgd", params, horizon=40),
        Lane("gt_nsgdm", ScheduleParams(0.1, 0.2), horizon=30),
    ]
    stacked = _window_invariant(monkeypatch, lanes, prob, mixing, noise)
    results, failure, _ = stacked
    algorithm, iteration, _, quantity, _, _ = failure
    assert (algorithm, quantity) == ("dsgd", "iterate") and 0 < iteration < 12
    # The lane before the diverging one finishes, the Diverged holds the
    # diverging lane's rows of every round before its failing one, the
    # rows its one-lane run gives, and the lane after it is dropped.
    assert len(results) == 1
    assert stacked == _outcome(lambda: _one_by_one(lanes, prob, mixing, noise))
    with warnings.catch_warnings(), pytest.raises(Diverged) as caught:
        warnings.simplefilter("ignore")
        run(lanes, prob, mixing, noise)
    exc = caught.value
    assert len(exc.rows) == exc.iteration and [row.iter for row in exc.rows] == list(range(iteration))
    assert [len(r.rows) for r in exc.finished] == [12]


def test_diverged_survives_pickling():
    # A process pool hands a worker's exception back pickled.
    import pickle

    from demuon.optimizers import Diverged

    prob, mixing, noise, params = dsgd_divergence_setup()
    lanes = [Lane("demuon", theoretical_schedule(12)), Lane("dsgd", params, horizon=40)]
    with warnings.catch_warnings(), pytest.raises(Diverged) as caught:
        warnings.simplefilter("ignore")
        run(lanes, prob, mixing, noise)
    exc = caught.value
    assert exc.finished and exc.rows
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is Diverged and str(back) == str(exc)
    fields = ("algorithm", "iteration", "node", "quantity", "lane")
    assert [getattr(back, f) for f in fields] == [getattr(exc, f) for f in fields]
    # repr compares a row that overflowed to nan as text.
    assert repr(back.finished) == repr(exc.finished) and repr(back.rows) == repr(exc.rows)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_window_norms_equal_per_row_norms_bit_for_bit(alpha):
    # A window takes every row's tracking residual, potential and mean-iterate
    # residual from one stacked Frobenius call each. Replaying the rounds with
    # `step`, each must equal its own `np.linalg.norm` and Python float
    # arithmetic, bit for bit, across lanes that retire mid-window.
    from demuon.diagnostics import node_mean

    prob = make_quadratic(4, 6, 5, 3, heterogeneity=0.5, seed=2)
    mixing = build_family("ring", 4)
    noise = NoiseModel("student_t", alpha, 0.3, dof=alpha + 0.5, base_seed=4)
    lanes = [
        Lane("demuon", theoretical_schedule(48, alpha)),
        Lane("dsgd", BaselineParams(), horizon=48),
        Lane("gt_nsgdm", theoretical_schedule(20, alpha)),
        Lane("demuon", ScheduleParams(0.05, 0.2), orthogonalizer="ns:5", horizon=33),
    ]
    results = run(lanes, prob, mixing, noise)
    weights = [
        theorem_potential_params(lane.params.horizon, alpha, mixing.mixing_rate)
        if lane.algorithm != "dsgd" and lane.params.horizon is not None else None
        for lane in lanes
    ]
    state, live = initial_state(lanes, 4, np.zeros((6, 5))), [0, 1, 2, 3]
    max_resid = [0.0] * len(lanes)
    for k in range(48):
        nxt, info = step(state, prob, mixing, noise)
        for pos, j in enumerate(live):
            row = results[j].rows[k]
            applied = info["eta"][pos] * node_mean(info["directions"][pos])
            resid = float(np.linalg.norm(node_mean(nxt.x[pos]) - (node_mean(state.x[pos]) - applied)))
            max_resid[j] = max(max_resid[j], resid)
            if lanes[j].algorithm == "dsgd":
                assert row.tracking_residual is None and row.potential is None
                continue
            assert row.tracking_residual == float(np.linalg.norm(node_mean(nxt.v[pos]) - node_mean(nxt.m[pos])))
            w = weights[j]
            if w is None:
                assert row.potential is None
                continue
            gap = float(np.linalg.norm(info["exact_grads"][pos] - nxt.m[pos]))
            assert row.potential == row.objective_at_mean + w.p * gap**w.alpha + w.q * row.consensus_error_v
        keep = [pos for pos, j in enumerate(live) if results[j].horizon > k + 1]
        state, live = nxt.take(keep), [live[pos] for pos in keep]
    assert [r.max_avg_iterate_residual for r in results] == max_resid


@pytest.mark.parametrize(
    "alpha, family, dof, seed", [(1.6, "student_t", 2.0, 3), (1.3, "student_t", 1.5, 0), (2.0, "gaussian", 2.0, 2)]
)
def test_noise_moment_is_the_python_power_mean_of_the_draws(alpha, family, dof, seed):
    # Each round adds np.add.reduce of its nodes' ||noise||_*^alpha, each
    # power taken by Python's `**`, so the moment does not depend on numpy's
    # power loop. Lanes that retire after a few rounds keep the sums short,
    # so a power that differs in its last bit shows in the moment.
    from demuon.linalg import nuclear_norm
    from demuon.noise import sample_noise

    prob = make_quadratic(5, 6, 4, 3, heterogeneity=0.5, seed=2)
    noise = NoiseModel(family, alpha, 0.3, dof=dof, base_seed=seed)
    horizons = [1, 2, 3, 5, 8, 13, 40]
    lanes = [Lane("demuon", ScheduleParams(0.1, 0.2), horizon=40)]
    lanes += [Lane("dsgd", BaselineParams(), horizon=h) for h in horizons]
    results = run(lanes, prob, build_family("ring", 5), noise)
    moment_sum, checked = 0.0, 0
    for k in range(40):
        draws = sample_noise(noise, 6, 4, 5, k)
        moment_sum += float(np.add.reduce([nuclear_norm(d) ** alpha for d in draws]))
        for result in results:
            if result.horizon == k + 1:
                assert result.noise_alpha_moment == (moment_sum / (5 * result.horizon)) ** (1.0 / alpha)
                checked += 1
    assert checked == len(lanes)


def test_an_overflowing_noise_moment_reads_inf():
    # Norms of about 1e250 overflow their power: the moment is inf, and the run ends normally.
    prob = make_quadratic(4, 6, 5, 8, seed=1)
    noise = NoiseModel("student_t", 1.6, 1e250, dof=2.0, base_seed=3)
    [result] = run([Lane("demuon", ScheduleParams(0.1, 0.2), horizon=5)], prob, build_family("ring", 4), noise)
    assert result.noise_alpha_moment == float("inf") and np.isfinite(result.avg_grad_nuclear_mean)


@st.composite
def zero_and_deficient_tracker_rounds(draw):
    """(lanes, problem, mixing, state) of a round whose new trackers are exactly W V^{k-1}, per node zero, rank deficient or full.

    The problem is nonconvex_gram at X = 0, where every exact gradient is
    exactly 0, and the noise is off, so the momenta stay 0 and the mix of the
    previous trackers is the round's trackers. W mixes one or two
    permutations, so a node whose in-neighbours all hold zero trackers gets an
    exactly zero one, and one whose in-neighbours hold multiples of one
    rank-r matrix a rank-r one. Each lane's previous trackers sum to zero
    over the nodes, so the tracking identity holds entering the round.
    """
    from demuon.optimizers import RunState
    from demuon.problems import make_nonconvex_gram

    n_nodes = draw(st.integers(1, 6), label="n_nodes")
    m, n = draw(st.sampled_from([(1, 1), (3, 1), (1, 4), (4, 3), (3, 5), (4, 4), (13, 12)]), label="shape")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    perms = draw(st.lists(st.permutations(range(n_nodes)), min_size=1, max_size=2), label="perms")
    share = draw(st.floats(0.05, 1.0), label="share") if len(perms) == 2 else 1.0
    w = share * np.eye(n_nodes)[perms[0]] + (1.0 - share) * np.eye(n_nodes)[perms[-1]]
    kinds = [("demuon", "svd"), ("demuon", "ns:6"), ("gt_nsgdm", "svd")]
    lanes = [
        Lane(algorithm, ScheduleParams(0.1, 0.2), spec)
        for algorithm, spec in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3), label="lanes")
    ]
    v = np.zeros((len(lanes), n_nodes, m, n))
    for lane_v in v:
        nodes = draw(st.lists(st.sampled_from(["zero", "deficient", "full"]), min_size=n_nodes, max_size=n_nodes))
        rank = draw(st.integers(0, min(m, n) - 1), label="rank")
        low = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        deficient = [i for i, kind in enumerate(nodes) if kind == "deficient"]
        full = [i for i, kind in enumerate(nodes) if kind == "full"]
        if deficient:
            coeffs = rng.standard_normal(len(deficient))
            for i, c in zip(deficient, coeffs - coeffs.mean()):
                lane_v[i] = c * low
        if full:
            draws = rng.standard_normal((len(full), m, n))
            lane_v[full] = draws - draws.mean(axis=0)
    prob = make_nonconvex_gram(n_nodes, m, n, heterogeneity=0.5, seed=0)
    zeros = np.zeros_like(v)
    state = RunState(0, zeros, zeros, v, tuple(lanes))
    return lanes, prob, MixingSpec(w, 0.5), state


@settings(max_examples=150, deadline=None)
@given(zero_and_deficient_tracker_rounds())
def test_step_maps_zero_trackers_to_zero_and_deficient_ones_to_partial_isometries(case):
    # msgn(0) = 0 inside a round: a zero tracker gives a zero direction under
    # every kernel, and demuon's exact polar factor of a rank-deficient
    # tracker keeps only its nonzero singular values, each mapped to 1.
    from demuon.diagnostics import node_mean
    from demuon.topology import mix_blocks

    lanes, prob, mixing, state = case
    nxt, info = step(state, prob, mixing, NOISELESS)
    assert not nxt.m.any()
    assert np.array_equal(nxt.v, mix_blocks(mixing.weights, state.v))
    for pos, lane in enumerate(lanes):
        for tracker, direction in zip(nxt.v[pos], info["directions"][pos]):
            if not tracker.any():
                assert not direction.any()
            elif lane.orthogonalizer == "svd" and lane.algorithm == "demuon":
                s = np.linalg.svd(tracker, compute_uv=False)
                rank = int((s > 1e-12 * s[0]).sum())
                unit = np.linalg.svd(direction, compute_uv=False)
                np.testing.assert_allclose(unit[:rank], 1.0, rtol=0, atol=1e-9)
                np.testing.assert_allclose(unit[rank:], 0.0, rtol=0, atol=1e-9)
        # The tracking identity and the mean-iterate recursion.
        assert np.abs(node_mean(nxt.v[pos]) - node_mean(nxt.m[pos])).max() <= 1e-9
        expected = node_mean(state.x[pos]) - info["eta"][pos] * node_mean(info["directions"][pos])
        assert np.abs(node_mean(nxt.x[pos]) - expected).max() <= 1e-9
