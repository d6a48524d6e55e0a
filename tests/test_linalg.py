import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon import linalg
from demuon.linalg import (
    as_matrix,
    frobenius_norm,
    msgn_exact,
    msgn_newton_schulz,
    nuclear_norm,
    spectral_norm,
)

from linalg_oracles import conditioned_matrix, polar_oracle, random_matrix, svdvals_oracle


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


def test_norms_on_fixed_matrices():
    d = np.diag([3.0, 4.0])
    assert spectral_norm(d) == pytest.approx(4.0, abs=1e-12)
    assert nuclear_norm(d) == pytest.approx(7.0, abs=1e-12)
    assert frobenius_norm(d) == pytest.approx(5.0, abs=1e-12)
    assert nuclear_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)
    assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)
    assert frobenius_norm(np.array([[1.0, 2.0], [2.0, 4.0]])) == pytest.approx(5.0, abs=1e-12)


def test_norms_on_zero_matrix():
    z = np.zeros((2, 3))
    assert spectral_norm(z) == 0.0
    assert nuclear_norm(z) == 0.0
    assert frobenius_norm(z) == 0.0


def test_antidiagonal_matches_gram_oracle():
    a = np.array([[0.0, 3.0], [4.0, 0.0]])
    s = svdvals_oracle(a)
    np.testing.assert_allclose(s, [4.0, 3.0], atol=1e-12)
    assert spectral_norm(a) == pytest.approx(4.0, abs=1e-10)
    assert nuclear_norm(a) == pytest.approx(7.0, abs=1e-10)


def kind_matrix(seed, shape, kind, scale):
    """An m x n matrix of one kind: Gaussian, rank deficient, zero, or with a graded spectrum."""
    rng = np.random.default_rng(seed)
    m, n = shape
    r = min(m, n)
    if kind == "gaussian":
        a = rng.standard_normal((m, n))
    elif kind == "deficient":
        k = int(rng.integers(0, r))
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    elif kind == "zero":
        a = np.zeros((m, n))
    else:  # singular values from 1 down to a floor in [1e-14, 1], geometrically spaced
        u = np.linalg.qr(rng.standard_normal((m, r)))[0]
        v = np.linalg.qr(rng.standard_normal((n, r)))[0]
        a = (u * np.logspace(0.0, -float(rng.uniform(0.0, 14.0)), r)) @ v.T
    return a * scale


sides = st.integers(1, 40)
# m > n, m < n, square and 1x1, on both sides of the Gram-route threshold.
shapes = st.tuples(sides, sides) | sides.map(lambda k: (k, k)) | st.just((1, 1))


# Relative tolerances against the SVD. The spectral norm is the square root of
# the largest Gram eigenvalue, good to a few eps. The nuclear norm's Gram route
# keeps sigma_min >= 1e-3 sigma_max, where an eigenvalue error of eps * lambda_max
# moves a singular value by about 1.1e-13 sigma_max; spectra with every singular
# value but one at that floor reach 2e-13, Gaussian and graded ones 2e-14.
SPECTRAL_RTOL = 1e-14
NUCLEAR_RTOL = 1e-12


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    shapes,
    st.sampled_from(("gaussian", "deficient", "zero", "graded")),
    st.sampled_from((1.0, 1e200, 1e-170)),
)
def test_norms_match_numpy_svd(seed, shape, kind, scale):
    a = kind_matrix(seed, shape, kind, scale)
    s = np.linalg.svd(a, compute_uv=False)
    # abs=0: a zero matrix must give exactly 0.
    assert spectral_norm(a) == pytest.approx(s[0], rel=SPECTRAL_RTOL, abs=0.0)
    assert nuclear_norm(a) == pytest.approx(s.sum(), rel=NUCLEAR_RTOL, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    shapes,
    st.sampled_from(("gaussian", "deficient", "zero", "graded")),
    st.sampled_from((1.0, 1e200, 1e-170)),
)
def test_msgn_exact_matches_polar_oracle(seed, shape, kind, scale):
    a = kind_matrix(seed, shape, kind, scale)
    polar = msgn_exact(a)
    assert polar.shape == a.shape
    if not a.any():
        assert not polar.any()  # msgn(0) = 0: a zero tracker takes a zero step
        return
    np.testing.assert_allclose(polar, polar_oracle(a), rtol=0, atol=1e-12)
    # The consensus envelope assumes ||step||_2 <= eta, so the factor must not overshoot.
    assert spectral_norm(polar) <= 1.0 + 1e-12



SWEEP_CONDS = (1.0, 10.0, 100.0, 150.0, 300.0, 1e3, 1e8)


def sweep_slices(rng, m, n):
    """m x n slices with cond(V) from SWEEP_CONDS under five spectra, then a zero and two rank-deficient ones."""
    r = min(m, n)
    out = []
    for cond in SWEEP_CONDS:
        lin, geo = np.linspace(1.0, 1.0 / cond, r), np.geomspace(1.0, 1.0 / cond, r)
        one_small, one_large, two_clusters = np.ones(r), np.full(r, 1.0 / cond), np.ones(r)
        one_small[-1], one_large[0], two_clusters[r // 2 :] = 1.0 / cond, 1.0, 1.0 / cond
        for s in (lin, geo, one_small, one_large, two_clusters):
            u = np.linalg.qr(rng.standard_normal((m, r)))[0]
            v = np.linalg.qr(rng.standard_normal((n, r)))[0]
            out.append((u * s) @ v.T)
    out.append(np.zeros((m, n)))
    for k in (1, r - 1):
        out.append(rng.standard_normal((m, k)) @ rng.standard_normal((k, n)))
    return out


@pytest.mark.parametrize("shape", [(64, 32), (32, 64), (64, 64, 32)])
def test_msgn_exact_conditioning_sweep(rng, shape):
    # Both sides of the Gram route's step cap, and every fallback, in one stack.
    *lead, m, n = shape
    slices = sweep_slices(rng, m, n)
    if lead:  # the large_n64 tracker stack, the rest Gaussian
        slices += [rng.standard_normal((m, n)) for _ in range(lead[0] - len(slices))]
    stack = np.stack(slices)
    out = msgn_exact(stack)
    for a, polar in zip(stack, out):
        np.testing.assert_array_equal(polar, msgn_exact(a))
        np.testing.assert_allclose(polar, polar_oracle(a), rtol=0, atol=1e-12)
        assert np.linalg.norm(polar, 2) <= 1.0 + 1e-12


@pytest.mark.parametrize("shape", [(200, 12), (32, 64)])
def test_msgn_exact_near_the_top_of_the_late_tier(monkeypatch, rng, shape):
    # One singular value at 1 and the rest at 1 / cond, cond 550 to 620:
    # slices the late tier still resolves, its largest defects. Each takes
    # its multiplier p symmetrised before the step on its factor a p, whose
    # polar factor an asymmetric p would move by up to 4.5e-12 here.
    def forbidden(*args, **kwargs):
        raise AssertionError("a slice fell back to the SVD")

    m, n = shape
    r = min(m, n)
    slices = []
    for cond in np.linspace(550.0, 620.0, 16):
        u = np.linalg.qr(rng.standard_normal((m, r)))[0]
        v = np.linalg.qr(rng.standard_normal((n, r)))[0]
        s = np.full(r, 1.0 / cond)
        s[0] = 1.0
        slices.append((u * s) @ v.T)
    stack = np.stack(slices)
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_svd", forbidden)
        out = msgn_exact(stack)
    np.testing.assert_allclose(out, np.stack([polar_oracle(a) for a in stack]), rtol=0, atol=1e-12)


def test_gram_route_polar_needs_no_eigh_or_svd(monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("a factorization ran on the Gram route")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(linalg, "_svd", forbidden)
    for shape in ((64, 64, 32), (8, 12, 40)):
        stack = rng.standard_normal(shape)
        assert msgn_exact(stack).shape == shape


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (2, 6, 3), (2, 3, 6)])
def test_gram_is_the_short_side_product(rng, shape):
    # a^T a when tall or square, a a^T when wide: the one Gram of the norms and the ball screen.
    a = rng.standard_normal(shape)
    at = np.swapaxes(a, -2, -1)
    k = min(shape[-2:])
    got = linalg._gram(a)
    assert got.shape == (*shape[:-2], k, k)
    np.testing.assert_array_equal(got, at @ a if shape[-2] >= shape[-1] else a @ at)


def test_gram_route_norms_need_no_svd(monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("an SVD ran on the Gram route")

    stacks = [rng.standard_normal(shape) for shape in ((4, 9, 5), (4, 5, 9))]
    want = [np.linalg.svd(stack, compute_uv=False) for stack in stacks]
    monkeypatch.setattr(linalg, "_svd", forbidden)
    for stack, s in zip(stacks, want):
        np.testing.assert_allclose(spectral_norm(stack), s[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(nuclear_norm(stack), s.sum(axis=-1), rtol=1e-12, atol=0)


def _fails(message):
    def factorization(*args, **kwargs):
        raise np.linalg.LinAlgError(message)

    return factorization


def test_norms_take_the_svd_when_eigvalsh_fails(monkeypatch, rng):
    stack = rng.standard_normal((3, 7, 4))
    s = np.linalg.svd(stack, compute_uv=False)
    monkeypatch.setattr(np.linalg, "eigvalsh", _fails("Eigenvalues did not converge"))
    assert spectral_norm(stack).tolist() == s[:, 0].tolist()
    assert nuclear_norm(stack).tolist() == s.sum(axis=-1).tolist()


def test_svd_failure_names_the_shape(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _fails("SVD did not converge"))
    message = "SVD did not converge on a (2, 3, 3) matrix: SVD did not converge"
    with pytest.raises(linalg.NumericalFailure, match=f"^{re.escape(message)}$"):
        msgn_exact(np.ones((2, 3, 3)))


def _slice_products(monkeypatch, a) -> int:
    """msgn_exact(a), and the number of k x k by k x k slice products its Gram iteration takes."""
    products, matmul = [0], np.matmul

    def counted(x, y, *args, **kwargs):
        if x.shape[-2:] == y.shape[-2:] == (x.shape[-1],) * 2:
            products[0] += int(np.prod(x.shape[:-2]))
        return matmul(x, y, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(np, "matmul", counted)
        got = msgn_exact(a)
    np.testing.assert_allclose(got, np.stack([polar_oracle(s) for s in a]), atol=1e-12, rtol=0)
    return products[0]


@pytest.mark.parametrize("shape, fast_steps", [((64, 32), 6), ((16, 40), 5), ((200, 12), 5)])
def test_a_converged_slice_stops_iterating(monkeypatch, rng, shape, fast_steps):
    # Orthonormal columns (rows, when wide) have Gram c I at any scale c, so
    # y = I / sqrt(k) reaches I to rounding in the steps the scalar schedule
    # takes from 1 / sqrt(k): 6 at k = 32, 5 at k = 16 and 12. A step takes
    # 3 products, 4 after the first. The cond-100 slice takes 9 steps, each
    # schedule row shortening or lengthening one of the two counts. In a
    # stack with the slow slice, every fast slice still stops at its own
    # step, not at the slow one's.
    m, n = shape
    fast = np.linalg.qr(rng.standard_normal((max(m, n), min(m, n))))[0]
    fast = fast if m > n else fast.T
    slow = conditioned_matrix(rng, m, n, 100.0)
    alone = _slice_products(monkeypatch, slow[None])
    assert alone == 4 * 9 - 1
    assert _slice_products(monkeypatch, 3.0 * fast[None]) == 4 * fast_steps - 1
    stack = np.stack([3.0 * fast, slow, 1e-3 * fast, 7.0 * fast])
    assert _slice_products(monkeypatch, stack) - alone == 3 * (4 * fast_steps - 1)


def test_the_gate_reads_the_off_diagonal_entries(rng):
    # A 32x16 slice whose Gram has a Hadamard eigenbasis and two clusters of
    # eigenvalues, their ratio r chosen so that at the first check y's two
    # eigenvalues sit at 1 + e and 1 - e. Every diagonal entry of y - I is
    # then their mean, at rounding, while the off-diagonal entries are about
    # e: the slice must iterate on, not stop with a factor about e / 2 off.
    def defects(r):
        lam = np.array([1.0, r]) / np.sqrt(8.0 * (1.0 + r * r))
        for step in range(1, linalg._POLAR_NS_FIRST_CHECK + 1):
            rows = linalg._POLAR_NS_ROWS
            ca, cb, cc = rows[step - 1] if step <= len(rows) else linalg._POLAR_NS_TAIL
            lam = lam * (ca + lam * (cb + cc * lam)) ** 2
        return lam - 1.0

    lo, hi = 0.15, 0.16  # the mean defect changes sign in between
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if defects(mid).sum() > 0.0 else (lo, mid)
    e = defects(lo)
    assert abs(e.sum()) <= 1e-15 and np.abs(e).min() >= 1e-10
    h = np.ones((1, 1))
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    u = np.linalg.qr(rng.standard_normal((32, 16)))[0]
    a = (u * np.sqrt(np.repeat([1.0, lo], 8))) @ h.T / 4.0
    np.testing.assert_allclose(msgn_exact(a), polar_oracle(a), rtol=0, atol=1e-12)


def test_norm_ordering(rng):
    for _ in range(200):
        a = random_matrix(rng)
        sp, fr, nu = spectral_norm(a), frobenius_norm(a), nuclear_norm(a)
        scale = max(nu, 1.0)
        assert sp <= fr + 1e-12 * scale
        assert fr <= nu + 1e-12 * scale


def test_msgn_fixed_values():
    np.testing.assert_allclose(msgn_exact(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(msgn_exact(np.diag([5.0, 2.0])), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        msgn_exact(np.array([[0.0, 3.0], [4.0, 0.0]])),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        atol=1e-12,
    )


def test_msgn_zero_maps_to_zero():
    out = msgn_exact(np.zeros((2, 5)))
    assert out.shape == (2, 5)
    assert not out.any()


def test_msgn_trace_holder_and_unit_spectrum(rng):
    for _ in range(300):
        a = random_matrix(rng)
        s = msgn_exact(a)
        nuc = nuclear_norm(a)
        assert abs(float(np.sum(a * s)) - nuc) <= 1e-9 * max(nuc, 1e-300)
        assert abs(spectral_norm(s) - 1.0) <= 1e-10
        assert nuclear_norm(s) == pytest.approx(np.linalg.matrix_rank(a), abs=1e-8)


def test_msgn_scale_invariance(rng):
    for c in (0.01, 3.0, 250.0):
        a = rng.standard_normal((5, 4))
        np.testing.assert_allclose(msgn_exact(c * a), msgn_exact(a), atol=1e-10)


def test_newton_schulz_identity_fixed_point():
    out = msgn_newton_schulz(np.eye(2), iters=5)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-6)


def test_newton_schulz_diagonal():
    out = msgn_newton_schulz(np.diag([2.0, 1.0]), iters=15)
    assert spectral_norm(out - np.eye(2)) <= 1e-3


def test_newton_schulz_orthogonal_input(rng):
    for shape in ((5, 5), (7, 3)):
        q = np.linalg.qr(rng.standard_normal(shape))[0]
        out = msgn_newton_schulz(q, iters=15)
        np.testing.assert_allclose(msgn_exact(q), q, atol=1e-10)
        assert spectral_norm(out - q) <= 1e-6


def test_newton_schulz_tracks_exact_polar(rng):
    for _ in range(50):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(2, 17))
        a = conditioned_matrix(rng, m, n, cond=float(rng.uniform(1.0, 10.0)))
        dist = spectral_norm(msgn_newton_schulz(a, iters=15) - msgn_exact(a))
        assert dist <= 1e-3


def test_newton_schulz_keeps_unit_spectral_cap(rng):
    for iters in (1, 3, 8):
        a = rng.standard_normal((6, 4))
        assert spectral_norm(msgn_newton_schulz(a, iters=iters)) <= 1.0 + 1e-10


def test_newton_schulz_maps_zero_to_zero_and_rejects_bad_iters():
    # As msgn_exact does: a zero tracker gives a zero step.
    for shape in ((2, 2), (3, 1), (4, 2, 3)):
        out = msgn_newton_schulz(np.zeros(shape), iters=5)
        assert out.shape == shape and not out.any()
    with pytest.raises(ValueError):
        msgn_newton_schulz(np.eye(2), iters=0)
