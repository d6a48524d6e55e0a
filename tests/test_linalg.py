import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
