import numpy as np
import pytest

from demuon.linalg import (
    SvdFactors,
    as_matrix,
    frobenius_norm,
    msgn_exact,
    msgn_newton_schulz,
    nuclear_norm,
    reduced_svd,
    spectral_norm,
)

from linalg_oracles import conditioned_matrix, random_matrix, svdvals_oracle


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


def test_norm_ordering(rng):
    for _ in range(200):
        a = random_matrix(rng)
        sp, fr, nu = spectral_norm(a), frobenius_norm(a), nuclear_norm(a)
        scale = max(nu, 1.0)
        assert sp <= fr + 1e-12 * scale
        assert fr <= nu + 1e-12 * scale


def test_reduced_svd_identity():
    f = reduced_svd(np.eye(2))
    assert f.rank == 2
    np.testing.assert_allclose(f.singular_values, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(f.reconstruct(), np.eye(2), atol=1e-12)


def test_reduced_svd_truncates_rank_deficiency():
    f = reduced_svd(np.diag([5.0, 0.0]), rank_tol=1e-12)
    assert f.rank == 1
    np.testing.assert_allclose(f.singular_values, [5.0], atol=1e-12)


def test_reduced_svd_zero_matrix_is_rank_zero():
    f = reduced_svd(np.zeros((3, 2)))
    assert f.rank == 0
    assert f.u.shape == (3, 0) and f.v.shape == (2, 0)


def test_reduced_svd_rejects_negative_tol():
    with pytest.raises(ValueError):
        reduced_svd(np.eye(2), rank_tol=-1.0)


def test_reduced_svd_reconstruction_random(rng):
    a = rng.standard_normal((4, 3))
    f = reduced_svd(a)
    err = np.linalg.norm(f.reconstruct() - a) / np.linalg.norm(a)
    assert err <= 1e-8


def test_reduced_svd_invariants_random(rng):
    for _ in range(1000):
        a = random_matrix(rng)
        f = reduced_svd(a)
        r = f.rank
        assert np.all(f.singular_values > 0)
        assert np.all(np.diff(f.singular_values) <= 0)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(r), atol=1e-10)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(r), atol=1e-10)
        denom = max(np.linalg.norm(a), 1e-300)
        assert np.linalg.norm(f.reconstruct() - a) / denom <= 1e-8


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


def test_newton_schulz_rejects_zero_and_bad_iters():
    with pytest.raises(ValueError):
        msgn_newton_schulz(np.zeros((2, 2)), iters=5)
    with pytest.raises(ValueError):
        msgn_newton_schulz(np.eye(2), iters=0)


def test_svd_factors_rank_property(rng):
    a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    f = reduced_svd(a)
    assert isinstance(f, SvdFactors)
    assert f.rank == 2
