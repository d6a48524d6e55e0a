"""Rounds written into given buffers (`out=`) against the allocating calls.

`run` recycles its round buffers, so every kernel that produces a round
stack, and `step` itself into `run`'s own buffers, must give the same bits
whether it writes into a given array or a fresh one, must write every element
it returns (the buffers below start as NaN), and must leave the entering state
untouched. `step` takes no other buffers, and a kernel rejects an `out` it
cannot fill in place.
"""

import inspect
import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon.linalg import msgn_exact
from demuon.noise import NoiseModel, sample_noise
from demuon.optimizers import (
    TRACKER_ALGORITHMS,
    BaselineParams,
    Diverged,
    Lane,
    RunState,
    ScheduleParams,
    initial_state,
    _RoundBuffers,
    step,
)
from demuon.problems import exact_gradient, make_nonconvex_gram, make_quadratic
from demuon.topology import build_family, mix_blocks

from test_stacked import build_stack, gram_dims, slice_kinds

seeds = st.integers(0, 2**32 - 1)
# Both sides of the polar factor's Gram-route threshold.
sides = st.integers(1, 5) | st.integers(12, 16)
# Every direction kernel, both polar kernels included.
LANE_KINDS = ("demuon:svd", "demuon:ns:3", "demuon:ns:7", "gt_nsgdm", "dsgd", "dsgd_clip")
# What a tracked lane's new tracker is made to be: the polar factor's Gram
# route takes a full one; a zero or rank-deficient one falls back to the SVD.
TRACKERS = ("full", "deficient", "zero")


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _nan_buffers(shape, tracked) -> _RoundBuffers:
    """`run`'s kind of buffers, holding NaN wherever `step` must write and the zeros `allocate` leaves elsewhere."""
    bufs = _RoundBuffers.allocate(shape)
    for buf in bufs:
        buf.fill(np.nan)
    for buf in (bufs.m, bufs.v):
        buf.fill(0.0)
        buf[list(tracked)] = np.nan
    return bufs


def _lane(kind, theta, clip_tau):
    algorithm, _, polar = kind.partition(":")
    if algorithm in TRACKER_ALGORITHMS:
        return Lane(algorithm, ScheduleParams(0.05, theta), orthogonalizer=polar or "svd")
    return Lane(algorithm, BaselineParams(clip_tau=clip_tau))


@st.composite
def rounds(draw):
    """(state, problem, mixing, noise model) of one round of a mixed lane stack."""
    kind = draw(st.sampled_from(("quadratic", "nonconvex_gram")), label="kind")
    n_nodes, m, n = draw(st.integers(1, 4), label="N"), draw(sides, label="m"), draw(sides, label="n")
    seed = draw(seeds, label="seed")
    if kind == "quadratic":
        problem = make_quadratic(n_nodes, m, n, draw(st.integers(1, 6), label="p"), heterogeneity=0.5, seed=seed)
    else:
        problem = make_nonconvex_gram(n_nodes, m, n, heterogeneity=0.5, seed=seed)
    mixing = build_family(draw(st.sampled_from(("complete", "ring"))) if n_nodes >= 3 else "complete", n_nodes)
    family = draw(st.sampled_from(("gaussian", "student_t")), label="family")
    noise = NoiseModel(family, 2.0, 0.3, base_seed=seed) if family == "gaussian" else NoiseModel(
        family, 1.5, 0.3, dof=2.0, base_seed=seed
    )
    kinds = draw(st.lists(st.sampled_from(LANE_KINDS), min_size=1, max_size=4), label="lanes")
    theta = draw(st.sampled_from((0.1, 0.5, 1.0)), label="theta")
    clip_tau = draw(st.sampled_from((1e-3, 1e3)), label="clip_tau")  # every lane clipped, or none
    lanes = tuple(_lane(k, theta, clip_tau) for k in kinds)
    k = draw(st.integers(0, 200), label="iteration")
    rng = np.random.default_rng(seed)
    shape = (len(lanes), n_nodes, m, n)
    x = rng.standard_normal(shape)
    m_old, v_old = np.zeros(shape), np.zeros(shape)
    # With zero momenta the new momentum is theta * G, and the new tracker is
    # W (v_old + theta * G), which is W D exactly for D = 0 and up to rounding
    # for every other D: v_old = D - theta * G steers it.
    stochastic = exact_gradient(problem, x) + sample_noise(noise, m, n, n_nodes, k)
    for i, lane in enumerate(lanes):
        if lane.algorithm in TRACKER_ALGORITHMS:
            target = draw(st.sampled_from(TRACKERS), label=f"tracker {i}")
            d = build_stack(seed + i, m, n, ["full" if target == "full" else "deficient"])[0]
            d = 0.0 if target == "zero" else d  # one matrix on every node: mixing keeps its rank
            v_old[i] = d - theta * stochastic[i]
    return RunState(k, x, m_old, v_old, lanes), problem, mixing, noise


@settings(max_examples=150, deadline=None)
@given(rounds())
def test_step_into_buffers_equals_the_allocating_step(case):
    state, problem, mixing, noise = case
    entering = [a.copy() for a in (state.x, state.m, state.v)]
    fresh, fresh_info = step(state, problem, mixing, noise)
    tracked = [i for i, lane in enumerate(state.lanes) if lane.algorithm in TRACKER_ALGORITHMS]
    bufs = _nan_buffers(state.x.shape, tracked)
    nxt, info = step(state, problem, mixing, noise, out=bufs)
    written = {
        "x": (nxt.x, bufs.x, fresh.x),
        "m": (nxt.m, bufs.m, fresh.m),
        "v": (nxt.v, bufs.v, fresh.v),
        "grads": (info["exact_grads"], bufs.grads, fresh_info["exact_grads"]),
        "noise": (info["noise"], bufs.noise, fresh_info["noise"]),
        "directions": (info["directions"], bufs.directions, fresh_info["directions"]),
    }
    for name, (got, buf, want) in written.items():
        assert np.shares_memory(got, buf), name
        assert _same(got, want), name
    assert (nxt.iter, nxt.lanes) == (fresh.iter, fresh.lanes)
    assert (info["eta"], info["tau"]) == (fresh_info["eta"], fresh_info["tau"])
    for before, after in zip(entering, (state.x, state.m, state.v)):
        assert _same(before, after)


def test_zero_and_rank_deficient_trackers_fall_back_into_the_buffers():
    # The trackers the cases above steer reach the masked-SVD fallback: a zero
    # tracker maps to a zero direction, a rank-deficient one to a partial isometry.
    problem = make_quadratic(2, 14, 12, 5, heterogeneity=0.5, seed=3)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=3)
    lanes = (Lane("demuon", ScheduleParams(0.05, 0.5)),) * 2
    stochastic = exact_gradient(problem, np.ones((2, 2, 14, 12))) + sample_noise(noise, 14, 12, 2, 0)
    d = build_stack(3, 14, 12, ["full"])[0][:, :1] @ np.ones((1, 12))  # rank 1 on every node
    v_old = np.stack([0.0 - 0.5 * stochastic[0], d - 0.5 * stochastic[1]])
    state = RunState(0, np.ones((2, 2, 14, 12)), np.zeros((2, 2, 14, 12)), v_old, lanes)
    bufs = _nan_buffers(state.x.shape, (0, 1))
    _, info = step(state, problem, build_family("complete", 2), noise, out=bufs)
    assert not info["directions"][0].any()
    s = np.linalg.svd(info["directions"][1], compute_uv=False)
    np.testing.assert_allclose(s[:, 0], 1.0, rtol=1e-12)
    assert (s[:, 1:] < 1e-12).all()


@settings(max_examples=150, deadline=None)
@given(seeds, sides | gram_dims, sides | gram_dims, slice_kinds, st.sampled_from((1.0, 1e200, 1e-170)))
def test_msgn_exact_into_out_equals_the_allocating_call(seed, m, n, kinds, scale):
    # Zero and rank-deficient slices, and a scale that over- or underflows the
    # Gram, are scattered from the masked SVD into `out`.
    a = scale * build_stack(seed, m, n, kinds)
    out = np.full(a.shape, np.nan)
    got = msgn_exact(a, out=out)
    assert got is out and _same(out, msgn_exact(a))


@pytest.mark.parametrize("shape", [(3, 4, 2), (4, 40, 16)])  # the SVD route and the Gram route
def test_msgn_exact_rejects_an_out_it_cannot_fill_in_place(shape):
    # `a` is the front of a buffer whose back can be handed over as `out`.
    memory = np.empty(np.prod(shape) + 7)
    a = memory[: np.prod(shape)].reshape(shape)
    a[...] = entering = build_stack(5, *shape[1:], ["full"] * shape[0])
    layouts = (
        np.empty(shape, order="F"),  # another memory order
        np.empty(shape[:-1] + (shape[-1] + 1,))[..., :-1],  # a strided view
        np.empty(shape[:-2] + shape[:-3:-1]),  # the transposed shape
        np.empty(shape, dtype=np.float32),
    )
    for out in layouts:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            msgn_exact(a, out=out)
    # The result would overwrite the input while the kernel still reads it.
    for out in (a, memory[7:].reshape(shape)):  # the input itself, and memory it shares in part
        with pytest.raises(ValueError, match="must not overlap"):
            msgn_exact(a, out=out)
    assert _same(a, entering)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 5), sides, sides, st.integers(0, 300), st.booleans())
def test_sample_noise_into_out_equals_the_allocating_call(seed, n_nodes, m, n, iteration, heavy):
    model = NoiseModel("student_t", 1.5, 0.5, dof=2.0, base_seed=seed) if heavy else NoiseModel(
        "gaussian", 2.0, 0.5, base_seed=seed
    )
    out = np.full((n_nodes, m, n), np.nan)
    got = sample_noise(model, m, n, n_nodes, iteration, out=out)
    assert got is out and _same(out, sample_noise(model, m, n, n_nodes, iteration))
    with pytest.raises(ValueError, match="shape"):
        sample_noise(model, m, n, n_nodes, iteration, out=np.empty((n_nodes + 1, m, n)))


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex128])
def test_sample_noise_rejects_an_out_that_is_not_float64(dtype):
    # Draws cast into another dtype would be truncated or rounded without a word.
    out = np.zeros((2, 3, 4), dtype=dtype)
    with pytest.raises(ValueError, match=r"C-contiguous float64 array of shape \(2, 3, 4\)"):
        sample_noise(NoiseModel("gaussian", 2.0, 5.0, base_seed=1), 3, 4, 2, 0, out=out)
    assert not out.any()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("quadratic", "nonconvex_gram")), seeds, st.integers(1, 4), sides, sides, st.integers(0, 3))
def test_exact_gradient_into_out_equals_the_allocating_call(kind, seed, n_nodes, m, n, n_lanes):
    if kind == "quadratic":
        problem = make_quadratic(n_nodes, m, n, 4, heterogeneity=0.5, seed=seed)
    else:
        problem = make_nonconvex_gram(n_nodes, m, n, heterogeneity=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    # n_lanes = 0 stands for a bare (N, m, n) node stack.
    x = rng.standard_normal((n_nodes, m, n) if n_lanes == 0 else (n_lanes, n_nodes, m, n))
    want = exact_gradient(problem, x)
    out = np.full(want.shape, np.nan)
    got = exact_gradient(problem, x, out=out)
    assert got is out and _same(out, want)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 5), sides, sides, st.integers(0, 3))
def test_mix_blocks_into_out_equals_the_allocating_call(seed, n_nodes, m, n, n_lanes):
    rng = np.random.default_rng(seed)
    w = rng.random((n_nodes, n_nodes))
    blocks = rng.standard_normal((n_nodes, m, n) if n_lanes == 0 else (n_lanes, n_nodes, m, n))
    out = np.full(blocks.shape, np.nan)
    got = mix_blocks(w, blocks, out=out)
    assert got is out and _same(out, mix_blocks(w, blocks))


def test_mix_blocks_rejects_an_out_it_cannot_fill_in_place():
    w, blocks = np.full((3, 3), 1.0 / 3.0), np.ones((3, 4, 2))
    for out in (np.empty((3, 4, 3))[..., :2], np.empty((3, 2, 4))):  # a strided view, a wrong shape
        with pytest.raises(ValueError, match="C-contiguous"):
            mix_blocks(w, blocks, out=out)


# The kernels of the one `out=` rule (`linalg._out_array`), each called into `out` on a (3, 4, 2) result.
KERNELS = {
    "msgn_exact": lambda out: msgn_exact(build_stack(2, 4, 2, ["full"] * 3), out=out),
    "sample_noise": lambda out: sample_noise(NoiseModel("gaussian", 2.0, 5.0, base_seed=1), 4, 2, 3, 0, out=out),
    "mix_blocks": lambda out: mix_blocks(np.full((3, 3), 1.0 / 3.0), np.ones((3, 4, 2)), out=out),
    "exact_gradient": lambda out: exact_gradient(
        make_quadratic(3, 4, 2, 2, heterogeneity=0.5, seed=1), np.ones((3, 4, 2)), out=out
    ),
}
# Each `out` a kernel cannot fill in place, holding 7 everywhere.
UNFILLABLE = {
    "float32": lambda: np.full((3, 4, 2), 7, dtype=np.float32),
    "int64": lambda: np.full((3, 4, 2), 7, dtype=np.int64),
    "fortran": lambda: np.full((3, 4, 2), 7.0, order="F"),
    "strided": lambda: np.full((3, 4, 3), 7.0)[..., :2],
    "wrong shape": lambda: np.full((3, 2, 4), 7.0),
}


@pytest.mark.parametrize("layout", sorted(UNFILLABLE))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_reject_an_out_they_cannot_fill_in_place_with_one_message(kernel, layout):
    # A float32 or int64 out would round or truncate the result without a word.
    out = UNFILLABLE[layout]()
    with pytest.raises(ValueError, match=re.escape("out must be a C-contiguous float64 array of shape (3, 4, 2)")):
        KERNELS[kernel](out)
    assert (out == 7).all()
    got = KERNELS[kernel](np.full((3, 4, 2), np.nan))
    assert _same(got, KERNELS[kernel](None))


def test_the_exported_callables_with_out_are_the_kernels_of_the_rule():
    # A new kernel with `out=` must join the rule (and the table above) or fail here.
    import demuon

    with_out = set()
    for name in dir(demuon):
        try:
            parameters = inspect.signature(getattr(demuon, name)).parameters
        except (TypeError, ValueError):  # not a callable, or one without a signature
            continue
        if "out" in parameters:
            with_out.add(name)
    # `step`'s `out` takes only `run`'s round buffers, and a TypeError for anything else (see below).
    assert with_out == set(KERNELS) | {"step"}


LANES = (
    Lane("demuon", ScheduleParams(0.05, 0.5)),
    Lane("dsgd", BaselineParams()),
    Lane("gt_nsgdm", ScheduleParams(0.05, 0.5)),
)


# Buffers laid out by a caller, with the fields of `run`'s own.
CallerBuffers = namedtuple("CallerBuffers", _RoundBuffers._fields)


@pytest.mark.parametrize("field", _RoundBuffers._fields)
@pytest.mark.parametrize("quantity", ("x", "m", "v"))
def test_step_rejects_buffers_that_overlap_the_entering_state(field, quantity):
    # Buffers that alias the entering state would make a round read what it
    # has already overwritten; no caller's buffers reach the round at all.
    problem = make_quadratic(3, 4, 3, 2, heterogeneity=0.5, seed=1)
    state = initial_state(LANES, 3, np.ones((4, 3)))
    entering = [a.copy() for a in (state.x, state.m, state.v)]
    shared = getattr(state, quantity)
    bufs = CallerBuffers(*_RoundBuffers.allocate(state.x.shape))._replace(
        **{field: shared[0] if field == "noise" else shared}
    )
    with pytest.raises(TypeError, match="out must be one of run's round buffers, got CallerBuffers"):
        step(state, problem, build_family("ring", 3), NoiseModel("gaussian", 2.0, 0.3), out=bufs)
    for before, after in zip(entering, (state.x, state.m, state.v)):
        assert _same(before, after)


def test_step_rejects_caller_buffers_that_overlap_nothing_too():
    problem = make_quadratic(3, 4, 3, 2, heterogeneity=0.5, seed=1)
    state = initial_state(LANES, 3, np.ones((4, 3)))
    fresh = _RoundBuffers.allocate(state.x.shape)
    for out in (CallerBuffers(*fresh), tuple(fresh)):
        with pytest.raises(TypeError, match="out must be one of run's round buffers"):
            step(state, problem, build_family("ring", 3), NoiseModel("gaussian", 2.0, 0.3), out=out)


def test_a_failed_step_into_buffers_leaves_the_entering_state_whole():
    # The dsgd lane's gradient is finite, near 1e300; its step overflows the iterate.
    problem = make_nonconvex_gram(3, 4, 3, heterogeneity=0.5, seed=0)
    lanes = (Lane("demuon", ScheduleParams(0.05, 0.5)), Lane("dsgd", BaselineParams(dsgd_eta=1e10)))
    x = np.broadcast_to(np.array([0.0, 1e100]).reshape(2, 1, 1, 1), (2, 3, 4, 3)).copy()
    state = RunState(5, x, np.zeros_like(x), np.zeros_like(x), lanes)
    entering = [a.copy() for a in (state.x, state.m, state.v)]
    with pytest.raises(Diverged) as caught:
        bufs = _nan_buffers(state.x.shape, (0,))
        step(state, problem, build_family("ring", 3), NoiseModel("gaussian", 2.0, 0.3), out=bufs)
    assert (caught.value.lane, caught.value.quantity) == (1, "iterate")
    for before, after in zip(entering, (state.x, state.m, state.v)):
        assert _same(before, after)
