"""Dense matrix primitives: norms and exact/iterative polar factors.

Spectral and nuclear norms of a non-square matrix (or stack) whose short side
is at least `_GRAM_MIN_SIDE` take their singular values from `eigvalsh` of the
short-side Gram matrix, clipped at 0 before the square root; that is several
times cheaper than the SVD on the tall, thin consensus stacks and noise draws.
Square and smaller inputs, and every slice the Gram cannot resolve (it
overflowed, it underflowed or the slice is zero, or, for the nuclear norm, it
is ill-conditioned), use the SVD.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-12
NEWTON_SCHULZ_COEFFS = (1.5, -0.5)
# Short side from which the Gram route beats the SVD; on a 2-vCPU host the
# crossover fell between 8 and 12.
_GRAM_MIN_SIDE = 12
# Below this largest Gram eigenvalue the Gram's entries have underflowed, or
# the slice is zero: tiny / eps.
_GRAM_LAMBDA_FLOOR = np.finfo(float).tiny / np.finfo(float).eps
# An eigenvalue carries an absolute error of about eps * lambda_max, so the
# nuclear norm takes the Gram route only where lambda_min >= this * lambda_max.
_GRAM_NUCLEAR_RCOND = 1e-6


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


def _singular_values(a: np.ndarray, nuclear: bool) -> np.ndarray:
    """Singular values of a validated matrix or stack, per matrix in descending order.

    Non-square inputs with short side >= `_GRAM_MIN_SIDE` go through the
    short-side Gram matrix; each slice whose Gram is not finite, whose largest
    eigenvalue is below `_GRAM_LAMBDA_FLOOR` or, with `nuclear`, whose
    smallest eigenvalue is below `_GRAM_NUCLEAR_RCOND` times its largest is
    redone by the SVD. The decision is per slice, so a stack gives exactly
    what its matrices give one by one.
    """
    m, n = a.shape[-2:]
    if m == n or min(m, n) < _GRAM_MIN_SIDE:
        return _svd(a, compute_uv=False)
    at = np.swapaxes(a, -2, -1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        gram = at @ a if m > n else a @ at
    # An overflowed slice is zeroed, which sends it to the SVD with the zero slices.
    gram[~np.isfinite(gram).all(axis=(-2, -1))] = 0.0
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError:  # LAPACK did not converge; the SVD decides every slice
        return _svd(a, compute_uv=False)
    ok = lam[..., -1] >= _GRAM_LAMBDA_FLOOR
    if nuclear:
        ok &= lam[..., 0] >= _GRAM_NUCLEAR_RCOND * lam[..., -1]
    s = np.sqrt(np.maximum(lam[..., ::-1], 0.0))
    if not ok.all():
        s[~ok] = _svd(a[~ok], compute_uv=False)
    return s


def _per_matrix(values: np.ndarray):
    """A float for one matrix, the array of per-matrix values for a stack."""
    return float(values) if values.ndim == 0 else values


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(a)))


def spectral_norm(a):
    """Largest singular value; 0 for the zero matrix.

    `a` may be a stack of matrices; the result is then one value per matrix.
    A non-square matrix with short side >= `_GRAM_MIN_SIDE` takes it from the
    largest eigenvalue of its short-side Gram matrix; a square or smaller one,
    and a slice whose Gram overflowed, underflowed or is zero, from the SVD.
    """
    return _per_matrix(_singular_values(as_matrix(a, stack=True), nuclear=False)[..., 0])


def nuclear_norm(a):
    """Sum of singular values.

    `a` may be a stack of matrices; the result is then one value per matrix.
    Routed as `spectral_norm`, except that a slice whose smallest Gram
    eigenvalue is below `_GRAM_NUCLEAR_RCOND` times its largest (a small
    singular value the Gram cannot resolve) is taken from the SVD too.
    """
    return _per_matrix(_singular_values(as_matrix(a, stack=True), nuclear=True).sum(axis=-1))


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
