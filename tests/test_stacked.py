"""Stacked kernels against their per-matrix calls, on generated stacks.

Each stacked call must give, matrix by matrix, exactly what the per-matrix
call gives where the arithmetic is the same; where the summation order
changed (the global objective), the tolerance is 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon.linalg import as_matrix, msgn_exact, msgn_newton_schulz, nuclear_norm, reduced_svd, spectral_norm
from demuon.problems import (
    average_gradient,
    exact_gradient,
    make_nonconvex_gram,
    make_quadratic,
    objective_at,
    value,
)

SLICE_KINDS = ("full", "deficient", "zero")
dims = st.integers(1, 7)
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


stacks = st.builds(build_stack, seeds, dims, dims, st.lists(st.sampled_from(SLICE_KINDS), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(stacks)
def test_msgn_exact_stack_matches_per_matrix(stack):
    out = msgn_exact(stack)
    assert out.shape == stack.shape
    for a, polar in zip(stack, out):
        np.testing.assert_array_equal(polar, msgn_exact(a))
        if not a.any():
            assert not polar.any()
            continue
        # The rank mask keeps what reduced_svd keeps.
        f = reduced_svd(a)
        np.testing.assert_allclose(polar, f.u @ f.v.T, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(stacks, st.integers(1, 12))
def test_newton_schulz_stack_matches_per_matrix(stack, iters):
    live = stack[stack.any(axis=(1, 2))]
    if live.shape[0] == 0:
        with pytest.raises(ValueError):
            msgn_newton_schulz(stack, iters)
        return
    out = msgn_newton_schulz(live, iters)
    for a, polar in zip(live, out):
        np.testing.assert_array_equal(polar, msgn_newton_schulz(a, iters))
    if live.shape[0] < stack.shape[0]:
        with pytest.raises(ValueError):
            msgn_newton_schulz(stack, iters)


@settings(max_examples=150, deadline=None)
@given(stacks)
def test_stacked_norms_match_per_matrix(stack):
    nuc = nuclear_norm(stack)
    spec = spectral_norm(stack)
    assert nuc.shape == spec.shape == (stack.shape[0],)
    for a, nu, sp in zip(stack, nuc, spec):
        assert nu == nuclear_norm(a)
        assert sp == spectral_norm(a)
        if not a.any():
            assert nu == sp == 0.0


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
    grads = exact_gradient(problem, None, xs)
    shared = exact_gradient(problem, None, xs[0])
    for i in range(problem.n_nodes):
        np.testing.assert_array_equal(grads[i], exact_gradient(problem, i, xs[i]))
        np.testing.assert_array_equal(shared[i], exact_gradient(problem, i, xs[0]))
    np.testing.assert_array_equal(
        average_gradient(problem, xs), sum(exact_gradient(problem, i, xs[i]) for i in range(problem.n_nodes)) / problem.n_nodes
    )
    loop = sum(value(problem, i, xs[0]) for i in range(problem.n_nodes)) / problem.n_nodes
    assert objective_at(problem, xs[0]) == pytest.approx(loop, rel=1e-12, abs=0.0)


def test_stacked_gradient_validates_the_stack():
    problem = make_quadratic(3, 2, 2, 3, seed=0)
    with pytest.raises(ValueError):
        exact_gradient(problem, None, np.zeros((2, 2, 2)))  # wrong node count
    with pytest.raises(ValueError):
        exact_gradient(problem, 0, np.zeros((3, 2, 2)))  # a stack needs i=None
    bad = np.zeros((3, 2, 2))
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        exact_gradient(problem, None, bad)
