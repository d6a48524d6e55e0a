"""Dense matrix primitives: norms and exact/iterative polar factors.

The spectral and nuclear norms of every non-square matrix (or stack) are
worked through its short-side Gram matrix, which is cheaper than the SVD at
every short side once the matrices come in stacks: they take their singular
values from `eigvalsh` of the Gram, clipped at 0 before the square root. The
exact polar factor takes the Gram route only from a short side of
`_POLAR_GRAM_MIN_SIDE`: `V Q diag(lambda^-1/2) Q^T` (or `Q diag(lambda^-1/2)
Q^T V` for a wide `V`) from `eigh` of the Gram. Square inputs, smaller polar
inputs, and every slice the Gram cannot resolve (it overflowed, it
underflowed or the slice is zero, or, for the nuclear norm and the polar
factor, it is ill-conditioned), use the SVD. The route depends on each
matrix's shape only, so a stack gives exactly what its matrices give one by
one. The Frobenius norm of a stack is one BLAS dot per matrix, the call
`np.linalg.norm` makes for one matrix. The Newton-Schulz polar factor and
the step directions that normalise a matrix divide it by its Frobenius norm
taken after dividing by its largest |entry| (`_unit_frobenius`), so they do
not depend on its scale and map the zero matrix to zero.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-12
# Short side from which the Gram-eigh polar factor beats the SVD polar; on a
# 2-vCPU host the crossover fell between 8 and 12. The norms take the Gram
# route at every short side: on stacks of 189 to 36,864 8x6 matrices it took
# 37-51% less time than the SVD (it is slower only on a lone small matrix).
_POLAR_GRAM_MIN_SIDE = 12
# Below this largest Gram eigenvalue the Gram's entries have underflowed, or
# the slice is zero: tiny / eps.
_GRAM_LAMBDA_FLOOR = np.finfo(float).tiny / np.finfo(float).eps
# An eigenvalue carries an absolute error of about eps * lambda_max, so the
# nuclear norm takes the Gram route only where lambda_min >= this * lambda_max.
_GRAM_NUCLEAR_RCOND = 1e-6
# The Gram-eigh polar factor's error grows like eps * cond(V)^2 (on 64x32
# inputs with log-spaced spectra, at most 1.4e-13 at cond 100, 1.2e-12 at 300
# and 1.0e-11 at 1e3), so it is taken only where lambda_min >= this *
# lambda_max, i.e. cond(V) <= 100. Every rank-deficient slice falls to the
# masked SVD.
_GRAM_POLAR_RCOND = 1e-4


class NumericalFailure(RuntimeError):
    """An iterative linear-algebra kernel failed to converge; the message names the shape."""


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
        raise NumericalFailure(f"SVD did not converge on a {a.shape} matrix: {exc}") from exc


def _short_gram(a: np.ndarray, min_side: int):
    """Short-side Gram matrix of a validated matrix or stack, or None for the SVD route.

    None for square inputs and for a short side below `min_side`, so the
    route depends on the matrix shape alone, never on the stack size. A slice
    whose Gram overflowed is zeroed, which sends it to the SVD with the zero
    slices (its largest eigenvalue is then below `_GRAM_LAMBDA_FLOOR`).
    """
    m, n = a.shape[-2:]
    if m == n or min(m, n) < min_side:
        return None
    at = np.swapaxes(a, -2, -1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        gram = at @ a if m > n else a @ at
    gram[~np.isfinite(gram).all(axis=(-2, -1))] = 0.0
    return gram


def _singular_values(a: np.ndarray, nuclear: bool) -> np.ndarray:
    """Singular values of a validated matrix or stack, per matrix in descending order.

    Non-square inputs take them from the eigenvalues of their `_short_gram`;
    each slice whose largest eigenvalue is below `_GRAM_LAMBDA_FLOOR` or, with
    `nuclear`, whose smallest eigenvalue is below `_GRAM_NUCLEAR_RCOND` times
    its largest is redone by the SVD. The decision is per slice, so a stack gives exactly
    what its matrices give one by one.
    """
    gram = _short_gram(a, 1)
    if gram is None:
        return _svd(a, compute_uv=False)
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


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of an (..., m, n) stack, each bit for bit `np.linalg.norm` of that matrix.

    `np.linalg.norm` takes the BLAS dot of a matrix's entries as
    `ravel(order="K")` lays them out: C order, except that a transposed
    layout (the row stride smaller than the column stride, neither 0) is read
    column by column. Each matrix is transposed into that order, the stack is
    copied to C order where it is not already (so every dot has unit stride),
    and a vector-vector `matmul` makes the same dot call once per matrix. No
    validation: a non-finite entry gives a non-finite norm, and a sum of
    squares that overflows gives inf with numpy's overflow warning, as in
    `np.linalg.norm`.
    """
    row_stride, col_stride = (abs(s) for s in a.strides[-2:])
    if 0 < row_stride < col_stride:
        a = np.swapaxes(a, -2, -1)
    rows = np.ascontiguousarray(a).reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    return np.sqrt(np.matmul(rows, np.swapaxes(rows, -2, -1)))[..., 0, 0]


def _unit_frobenius(a: np.ndarray) -> np.ndarray:
    """Every matrix of an (..., m, n) stack divided by its Frobenius norm; a zero matrix stays zero.

    The norm is taken after dividing by the matrix's largest |entry|, so its
    sum of squares lies in [1, m n] and neither underflows nor overflows at
    any finite scale.
    """
    peak = np.abs(a).max(axis=(-2, -1), keepdims=True)
    zero = peak == 0.0
    peak[zero] = 1.0  # 0 / 1 keeps a zero matrix zero
    a = a / peak
    norm = _frobenius(a)[..., None, None]
    norm[zero] = 1.0
    a /= norm
    return a


def frobenius_norm(a):
    """Square root of the sum of squared entries.

    `a` may be a stack of matrices; the result is then one value per matrix,
    each bit for bit that matrix's own norm.
    """
    return _per_matrix(_frobenius(as_matrix(a, stack=True)))


def spectral_norm(a):
    """Largest singular value; 0 for the zero matrix.

    `a` may be a stack of matrices; the result is then one value per matrix.
    A non-square matrix takes it from the largest eigenvalue of its
    short-side Gram matrix; a square one, and a slice whose Gram overflowed,
    underflowed or is zero, from the SVD.
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


def _svd_polar(a: np.ndarray) -> np.ndarray:
    """Polar factor u @ vt of the reduced SVD over singular values > DEFAULT_RANK_TOL * the largest."""
    u, s, vt = _svd(a)
    # Singular values are nonincreasing, so the kept directions are a prefix;
    # zeroing the rest equals truncating. A zero matrix keeps none.
    u *= s[..., None, :] > DEFAULT_RANK_TOL * s[..., None, :1]
    return u @ vt


def msgn_exact(a) -> np.ndarray:
    """Orthogonal (polar) factor u @ v.T of the reduced SVD.

    Singular directions with singular value <= DEFAULT_RANK_TOL * (largest
    singular value) are dropped, so all nonzero singular values of the
    result equal 1. The zero matrix maps to the zero matrix, which turns a
    zero tracker into a zero step. `a` may be a stack of matrices; one
    stacked call then gives every matrix's polar factor.

    A non-square matrix with short side >= `_POLAR_GRAM_MIN_SIDE` takes it
    from `eigh` of its short-side Gram, `a @ (Q diag(lambda^-1/2) Q^T)` when tall
    and `(Q diag(lambda^-1/2) Q^T) @ a` when wide. A slice whose Gram
    overflowed, underflowed or is zero, or whose smallest eigenvalue is below
    `_GRAM_POLAR_RCOND` times its largest (ill-conditioned or rank deficient),
    is redone by the masked SVD, as are square and smaller inputs.
    """
    a = as_matrix(a, stack=True)
    gram = _short_gram(a, _POLAR_GRAM_MIN_SIDE)
    if gram is None:
        return _svd_polar(a)
    try:
        lam, q = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:  # LAPACK did not converge; the SVD decides every slice
        return _svd_polar(a)
    ok = (lam[..., -1] >= _GRAM_LAMBDA_FLOOR) & (lam[..., 0] >= _GRAM_POLAR_RCOND * lam[..., -1])
    # Slices that fall back get a harmless unit scale instead of 1/sqrt(<= 0).
    root = np.sqrt(np.where(ok[..., None], lam, 1.0))
    inv_root = (q / root[..., None, :]) @ np.swapaxes(q, -2, -1)
    out = a @ inv_root if a.shape[-2] > a.shape[-1] else inv_root @ a
    if not ok.all():
        out[~ok] = _svd_polar(a[~ok])
    return out


def msgn_newton_schulz(a, iters: int) -> np.ndarray:
    """Approximate polar factor via the cubic Newton-Schulz iteration.

    Pre-scales by 1/||a||_F (`_unit_frobenius`, so the result does not
    depend on the scale of `a`), then iterates y <- 1.5 y - 0.5 y y^T y.
    After scaling every singular value lies in (0, 1], where this cubic
    converges monotonically to 1, so iterates keep spectral norm <= 1 at
    every step. The zero matrix maps to the zero matrix, as in `msgn_exact`.
    `a` may be a stack of matrices, each scaled by its own norm.
    """
    a = as_matrix(a, stack=True)
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    y = _unit_frobenius(a)
    tall = y.shape[-2] >= y.shape[-1]
    for _ in range(iters):
        yt = np.swapaxes(y, -2, -1)
        if tall:
            y = 1.5 * y - 0.5 * (y @ (yt @ y))
        else:
            y = 1.5 * y - 0.5 * ((y @ yt) @ y)
    return y
