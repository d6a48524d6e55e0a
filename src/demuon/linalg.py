"""Dense matrix primitives: norms and exact/iterative polar factors."""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-12
NEWTON_SCHULZ_COEFFS = (1.5, -0.5)


class NumericalFailure(RuntimeError):
    """An iterative linear-algebra kernel failed to converge.

    Carries the matrix shape and, when the backend reports one, the
    iteration count at failure, so callers can attach run context.
    """

    def __init__(self, message, shape=None, iterations=None):
        super().__init__(message)
        self.shape = shape
        self.iterations = iterations


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate `a` as a dense m x n float64 matrix (finite entries, m, n >= 1).

    With `stack`, a stack of such matrices of shape (..., m, n), each leading
    dimension >= 1, is accepted too and validated in one pass.
    """
    out = np.asarray(a, dtype=float)
    if out.ndim != 2 and not (stack and out.ndim > 2):
        want = "a matrix or a stack of matrices" if stack else "a 2-D matrix"
        raise ValueError(f"expected {want}, got ndim={out.ndim}")
    if min(out.shape) < 1:
        raise ValueError(f"matrix dimensions must be positive, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    return out


def _svd(a: np.ndarray, compute_uv: bool = True):
    """Reduced SVD of a matrix or of every matrix of a stack, in one LAPACK call."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"SVD did not converge on a {a.shape} matrix: {exc}", shape=a.shape
        ) from exc


def _per_matrix(values: np.ndarray):
    """A float for one matrix, the array of per-matrix values for a stack."""
    return float(values) if values.ndim == 0 else values


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(a)))


def spectral_norm(a):
    """Largest singular value; 0 for the zero matrix.

    `a` may be a stack of matrices; the result is then one value per matrix.
    """
    return _per_matrix(_svd(as_matrix(a, stack=True), compute_uv=False)[..., 0])


def nuclear_norm(a):
    """Sum of singular values.

    `a` may be a stack of matrices; the result is then one value per matrix.
    """
    return _per_matrix(_svd(as_matrix(a, stack=True), compute_uv=False).sum(axis=-1))


def msgn_exact(a) -> np.ndarray:
    """Orthogonal (polar) factor u @ v.T from the reduced SVD.

    Singular directions with singular value <= DEFAULT_RANK_TOL * (largest
    singular value) are dropped, so all nonzero singular values of the
    result equal 1. The zero matrix maps to the zero matrix, which turns a
    zero tracker into a zero step. `a` may be a stack of matrices; one
    stacked SVD then gives every matrix's polar factor.
    """
    a = as_matrix(a, stack=True)
    u, s, vt = _svd(a)
    # Singular values are nonincreasing, so the kept directions are a prefix;
    # zeroing the rest equals truncating. A zero matrix keeps none.
    u *= s[..., None, :] > DEFAULT_RANK_TOL * s[..., None, :1]
    return u @ vt


def msgn_newton_schulz(a, iters: int, coeffs=NEWTON_SCHULZ_COEFFS) -> np.ndarray:
    """Approximate polar factor via the cubic Newton-Schulz iteration.

    Pre-scales by 1/||a||_F, then iterates y <- c1*y + c2 * y y^T y. After
    scaling every singular value lies in (0, 1], where the default cubic
    (1.5, -0.5) converges monotonically to 1, so iterates keep spectral
    norm <= 1 at every step. `a` may be a stack of matrices, each scaled by
    its own norm; every matrix must be nonzero.
    """
    a = as_matrix(a, stack=True)
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    fro = np.linalg.norm(a, axis=(-2, -1), keepdims=True)
    if not fro.all():
        raise ValueError("Newton-Schulz polar factor is undefined for the zero matrix")
    c1, c2 = coeffs
    y = a / fro
    tall = y.shape[-2] >= y.shape[-1]
    for _ in range(iters):
        yt = np.swapaxes(y, -2, -1)
        if tall:
            y = c1 * y + c2 * (y @ (yt @ y))
        else:
            y = c1 * y + c2 * ((y @ yt) @ y)
    return y
