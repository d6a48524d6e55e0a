"""Stacked kernels against their per-matrix calls, on generated stacks.

Each stacked call must give, matrix by matrix, exactly what the per-matrix
call gives where the arithmetic is the same; where the summation order
changed (the global objective), the tolerance is 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon.diagnostics import consensus_error, consensus_error_nuclear, node_mean
from demuon.linalg import as_matrix, frobenius_norm, msgn_exact, msgn_newton_schulz, nuclear_norm, spectral_norm
from demuon.problems import (
    exact_gradient,
    make_nonconvex_gram,
    make_quadratic,
    objective_at,
)
from demuon.topology import mix_blocks

from linalg_oracles import polar_oracle
from reference_engine import local_gradient, local_value

SLICE_KINDS = ("full", "deficient", "zero")
dims = st.integers(1, 7)
# Sizes on both sides of the polar factor's Gram-route threshold
# (`linalg._POLAR_GRAM_MIN_SIDE`); the norms take the Gram route at every
# non-square shape.
gram_dims = st.integers(8, 40)
seeds = st.integers(0, 2**32 - 1)


def build_stack(seed, m, n, kinds):
    """One m x n matrix per entry of `kinds`: full rank, rank deficient, or zero."""
    rng = np.random.default_rng(seed)
    out = np.zeros((len(kinds), m, n))
    for i, kind in enumerate(kinds):
        if kind == "full":
            out[i] = rng.standard_normal((m, n))
        elif kind == "deficient":
            r = int(rng.integers(0, min(m, n)))  # rank 0 gives a zero matrix too
            out[i] = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return out


slice_kinds = st.lists(st.sampled_from(SLICE_KINDS), min_size=1, max_size=6)
stacks = st.builds(build_stack, seeds, dims, dims, slice_kinds)
gram_stacks = st.builds(build_stack, seeds, gram_dims, gram_dims, slice_kinds)


# Per-slice scales: 1e200 overflows a slice's Gram and 1e-170 underflows it, so
# a stack can mix slices the Gram route keeps with slices it hands to the SVD.
slice_scales = st.lists(st.sampled_from((1.0, 1e200, 1e-170)), min_size=6, max_size=6)


@settings(max_examples=200, deadline=None)
@given(stacks | gram_stacks, slice_scales)
def test_msgn_exact_stack_matches_per_matrix(stack, scales):
    # The polar factor's route depends on the matrix shape only, never on the
    # stack size, so every slice must equal its own per-matrix call exactly.
    stack = stack * np.array(scales[: len(stack)])[:, None, None]
    out = msgn_exact(stack)
    assert out.shape == stack.shape
    for a, polar in zip(stack, out):
        np.testing.assert_array_equal(polar, msgn_exact(a))
        if not a.any():
            assert not polar.any()
            continue
        # The rank mask keeps what an independent masked SVD keeps.
        np.testing.assert_allclose(polar, polar_oracle(a), rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(stacks, st.integers(1, 12), slice_scales)
def test_newton_schulz_stack_matches_per_matrix(stack, iters, scales):
    # Zero slices included: each maps to zero, on its own and in the stack.
    # The prescale makes each slice's result independent of its scale.
    scaled = stack * np.array(scales[: len(stack)])[:, None, None]
    out = msgn_newton_schulz(scaled, iters)
    for a, s, polar in zip(stack, scaled, out):
        np.testing.assert_array_equal(polar, msgn_newton_schulz(s, iters))
        assert polar.any() == a.any()
        np.testing.assert_allclose(polar, msgn_newton_schulz(a, iters), rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(stacks | gram_stacks)
def test_stacked_norms_match_per_matrix(stack):
    nuc = nuclear_norm(stack)
    spec = spectral_norm(stack)
    assert nuc.shape == spec.shape == (stack.shape[0],)
    for a, nu, sp in zip(stack, nuc, spec):
        assert nu == nuclear_norm(a)
        assert sp == spectral_norm(a)
        if not a.any():
            assert nu == sp == 0.0


# Views of a stack that the engine's windows and lanes produce, and others:
# the whole stack, the lanes at a non-consecutive list of positions (a fancy
# index, so a copy), strided views (one whose matrices flatten to a strided
# vector without a copy), a transposed view and a reversed view.
FROBENIUS_VIEWS = {
    "whole": lambda big, lanes: _contiguous(big),
    "lanes": lambda big, lanes: _contiguous(big)[lanes],
    "strided": lambda big, lanes: big[:, ::2, 1::2, ::3],
    "every_third_column": lambda big, lanes: big[:, :2, : big.shape[-2] // 2, ::3],
    "transposed": lambda big, lanes: np.swapaxes(_contiguous(big), -2, -1),
    "reversed": lambda big, lanes: _contiguous(big)[::-1, :, ::-1],
}


def _contiguous(big):
    """The (6, 2, m, n) C-ordered stack cut from a (6, 4, 2 m, 3 n) one."""
    m, n = big.shape[-2] // 2, big.shape[-1] // 3
    return np.ascontiguousarray(big[:, :2, :m, :n])


@settings(max_examples=200, deadline=None)
@given(
    seeds,
    st.tuples(dims | gram_dims, dims | gram_dims) | st.just((1, 1)),
    st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True).map(sorted),
    st.sampled_from(sorted(FROBENIUS_VIEWS)),
    st.sampled_from((1.0, 1e200, 1e-170)),
)
def test_stacked_frobenius_equals_numpy_norm_per_matrix(seed, shape, lanes, view, scale):
    # The window's residuals and the potential take one stacked Frobenius
    # call; each matrix's value must be bit for bit `np.linalg.norm` of it.
    # 1e200 overflows the sum of squares to inf (both warn), 1e-170 underflows it.
    m, n = shape
    big = scale * np.random.default_rng(seed).standard_normal((6, 4, 2 * m, 3 * n))
    stack = FROBENIUS_VIEWS[view](big, lanes)
    with np.errstate(over="ignore"):
        out = frobenius_norm(stack)
        assert out.shape == stack.shape[:-2]
        for idx in np.ndindex(*stack.shape[:-2]):
            assert out[idx] == np.linalg.norm(stack[idx])
            assert frobenius_norm(stack[idx]) == out[idx]


def test_stack_validation_rejects_any_bad_slice():
    good = np.ones((3, 2, 2))
    for bad_value in (np.nan, np.inf):
        bad = good.copy()
        bad[2, 1, 0] = bad_value
        with pytest.raises(ValueError, match="finite"):
            as_matrix(bad, stack=True)
        with pytest.raises(ValueError, match="finite"):
            msgn_exact(bad)
    with pytest.raises(ValueError):
        as_matrix(good)  # a stack is only accepted where asked for
    with pytest.raises(ValueError):
        as_matrix(np.ones((0, 2, 2)), stack=True)


def build_problem(kind, n_nodes, m, n, p, seed):
    if kind == "quadratic":
        return make_quadratic(n_nodes, m, n, p, heterogeneity=0.5, seed=seed)
    return make_nonconvex_gram(n_nodes, m, n, heterogeneity=0.5, seed=seed)


problems_ = st.builds(
    build_problem, st.sampled_from(("quadratic", "nonconvex_gram")), st.integers(1, 6), dims, dims, dims, seeds
)


@settings(max_examples=100, deadline=None)
@given(problems_, seeds)
def test_stacked_gradient_and_objective_match_per_node(problem, seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((problem.n_nodes, problem.m, problem.n))
    grads = exact_gradient(problem, xs)
    for i in range(problem.n_nodes):
        np.testing.assert_array_equal(grads[i], local_gradient(problem, i, xs[i]))
    np.testing.assert_array_equal(
        grads.mean(axis=0), sum(local_gradient(problem, i, xs[i]) for i in range(problem.n_nodes)) / problem.n_nodes
    )
    loop = sum(local_value(problem, i, xs[0]) for i in range(problem.n_nodes)) / problem.n_nodes
    assert objective_at(problem, xs[0]) == pytest.approx(loop, rel=1e-12, abs=0.0)


def test_stacked_gradient_validates_the_stack():
    problem = make_quadratic(3, 2, 2, 3, seed=0)
    with pytest.raises(ValueError):
        exact_gradient(problem, np.zeros((2, 2, 2)))  # wrong node count
    bad = np.zeros((3, 2, 2))
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        exact_gradient(problem, bad)


lane_problems = st.builds(
    build_problem,
    st.sampled_from(("quadratic", "nonconvex_gram")),
    st.integers(1, 5),
    dims | gram_dims,
    dims | gram_dims,
    dims,
    seeds,
)


@settings(max_examples=100, deadline=None)
@given(lane_problems, st.integers(1, 4), seeds, st.sampled_from((1.0, 1e150, 1e-150)))
def test_lane_stacks_match_per_lane_calls(problem, n_lanes, seed, scale):
    # The engine holds L lanes as one (L, N, m, n) stack; every stacked call it
    # makes gives each lane exactly what that lane's own call gives.
    rng = np.random.default_rng(seed)
    xs = scale * rng.standard_normal((n_lanes, problem.n_nodes, problem.m, problem.n))
    w = rng.random((problem.n_nodes, problem.n_nodes))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        grads = exact_gradient(problem, xs)
    mixed = mix_blocks(w, xs)
    means = node_mean(xs)
    spectral, nuclear = consensus_error(xs), consensus_error_nuclear(xs)
    assert spectral.shape == nuclear.shape == (n_lanes,)
    for lane in range(n_lanes):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            assert grads[lane].tobytes() == exact_gradient(problem, xs[lane]).tobytes()
        assert mixed[lane].tobytes() == mix_blocks(w, xs[lane]).tobytes()
        assert means[lane].tobytes() == xs[lane].mean(axis=0).tobytes()
        assert spectral[lane] == consensus_error(xs[lane])
        assert nuclear[lane] == consensus_error_nuclear(xs[lane])
    # The diagnostics window passes (W, L, N, m, n) views of `run`'s stores,
    # reversed along the window axis after `_Stores.carry`, as they lie.
    window = np.stack([xs, scale * rng.standard_normal(xs.shape), xs[::-1]])
    for stack in (window, window[::-1]):
        spectral, nuclear = consensus_error(stack), consensus_error_nuclear(stack)
        assert spectral.shape == nuclear.shape == (3, n_lanes)
        for idx in np.ndindex(3, n_lanes):
            assert spectral[idx] == consensus_error(stack[idx])
            assert nuclear[idx] == consensus_error_nuclear(stack[idx])
