"""Dense matrix primitives: norms and exact/iterative polar factors.

The spectral and nuclear norms of every non-square matrix (or stack) are
worked through its short-side Gram matrix, which is cheaper than the SVD at
every short side once the matrices come in stacks: they take their singular
values from `eigvalsh` of the Gram, clipped at 0 before the square root. The
exact polar factor takes the Gram route only from a short side of
`_POLAR_GRAM_MIN_SIDE`, and there it needs matrix products only: `V G^{-1/2}`
(or `G^{-1/2} V` for a wide `V`), with `G^{-1/2}` from a quintic
Newton-Schulz schedule on the Gram `G`: two steps with the Muon coefficients,
then quintic Newton-Schulz steps to rounding level. That is 5 to 7 steps up
to a condition number of 18 to 41 and 8 to 11 up to 310 to 700 (at a short
side of 32, with the spectrum), and one cubic Newton-Schulz step on the
factor of a slice that needed more than 7. The norms, and the ball screen
of `optimizers`, form their Gram with `_gram`, BLAS `syrk` (a product of a
matrix with a transposed view of itself); the polar factor forms its own
with `gemm` on a transposed copy.
Square inputs, smaller polar inputs, and every slice the Gram cannot resolve
(it overflowed, it underflowed or the slice is zero; for the nuclear norm, it
is ill-conditioned; for the polar factor, its iteration did not converge
within `_POLAR_NS_STEPS` steps), use the SVD. The route depends on each
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
# Short side from which the Gram polar factor beats the SVD polar; on a 2-vCPU
# host the crossover (then with an `eigh` of the Gram) fell between 8 and 12.
# The norms take the Gram route at every short side: on stacks of 189 to
# 36,864 8x6 matrices it took 37-51% less time than the SVD (it is slower only
# on a lone small matrix).
_POLAR_GRAM_MIN_SIDE = 12
# Below this largest Gram eigenvalue the Gram's entries have underflowed, or
# the slice is zero: tiny / eps.
_GRAM_LAMBDA_FLOOR = np.finfo(float).tiny / np.finfo(float).eps
# An eigenvalue carries an absolute error of about eps * lambda_max, so the
# nuclear norm takes the Gram route only where lambda_min >= this * lambda_max.
_GRAM_NUCLEAR_RCOND = 1e-6
# The polar factor's Gram route takes G^{-1/2} from an inverse-free
# Newton-Schulz schedule on y = G / ||G||_F, whose eigenvalues lie in (0, 1].
# Each step takes a row (a, b, c) of coefficients: t = a I + b y + c y^2,
# y <- y t t, p <- p t, so p tends to y_0^{-1/2} as y tends to I; on the
# singular values s of V / ||G||_F^{1/2} a step is s <- s (a + b s^2 + c s^4).
# The first two rows are the quintic Muon coefficients (Jordan et al., 2024,
# "Muon: an optimizer for hidden layers"), which raise a small s 3.44 times
# per step and leave every eigenvalue of y in (0, 1.45]. The rest are the
# quintic Newton-Schulz row (15/8, -10/8, 3/8), the [2/0] Pade iteration of
# Kenney and Laub (Higham, Functions of Matrices, 2008, ch. 8): it converges
# cubically to 1 from anywhere in (0, 7/3) and raises a small eigenvalue of y
# 3.5 times per step. A slice stops at the first check at which every entry
# of y - I is within _POLAR_NS_EXACT_TOL (rounding level), or, after
# _POLAR_NS_EXACT_STEPS steps, within _POLAR_NS_TOL. The factor a G^{-1/2} is
# off the polar factor by about eps * cond(V)^2, as with an eigendecomposition
# of the Gram. A slice that stops within _POLAR_NS_EXACT_STEPS steps has a
# smallest eigenvalue of y above about 5.9e-4 (||G||_F / lambda_min below
# about 1.7e3; cond(V) up to 18 to 41 at a short side of 32 with the
# spectrum), and was at most 2.3e-14 from the masked SVD. A later slice takes
# one cubic Newton-Schulz step on its factor, which squares its defect to
# rounding level and leaves about eps * cond(V): at most 2.2e-14 at cond 100,
# 2.8e-14 at 150 and 8.3e-14 at 300 (64x32, 32x64, 200x12 and 256x128 inputs;
# linear, geometric, one-small, one-large and two-cluster spectra), and up to
# 3.1e-13 just below the SVD's boundary. A slice not converged after
# _POLAR_NS_STEPS steps, one whose smallest eigenvalue of y is below about
# 2.1e-6 (cond(V) from 310 to 700 at a short side of 32 with the spectrum) or
# that is rank deficient, is redone by the masked SVD. Steps on those inputs:
# 5 to 7 at cond 1 to 10, 8 to 10 at 100 and 10 or 11 at 300. Checks start at
# step _POLAR_NS_FIRST_CHECK: a slice could pass before it only if every
# eigenvalue of y lands within about 2.5e-5 of 1 after the Muon rows, which
# takes every starting eigenvalue within a relative 2e-5 of one of a few
# isolated values (such as 0.0618); it then takes its extra step at the
# tail's fixed point.
_POLAR_NS_MUON = (3.4445, -4.7750, 2.0315)
_POLAR_NS_ROWS = (_POLAR_NS_MUON, _POLAR_NS_MUON)
_POLAR_NS_TAIL = (15 / 8, -10 / 8, 3 / 8)
_POLAR_NS_EXACT_TOL = 1e-14
_POLAR_NS_EXACT_STEPS = 7
_POLAR_NS_TOL = 1e-8
_POLAR_NS_STEPS = 11
_POLAR_NS_FIRST_CHECK = 4


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


def _out_array(out, shape: tuple) -> np.ndarray:
    """The one `out=` rule of the kernels: a fresh array for None, else `out`, a C-contiguous float64 `shape` array."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    return out


def _svd(a: np.ndarray, compute_uv: bool = True):
    """Reduced SVD of a matrix or of every matrix of a stack, in one LAPACK call."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge on a {a.shape} matrix: {exc}") from exc


def _gram(a: np.ndarray) -> np.ndarray:
    """Short-side Gram matrix of every matrix of an (..., m, n) stack: a^T a when tall or square, a a^T when wide.

    `matmul` of a matrix with a transposed view of itself takes BLAS `syrk`.
    No validation: a Gram that overflows or underflows does so silently.
    """
    at = np.swapaxes(a, -2, -1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return np.matmul(at, a) if a.shape[-2] >= a.shape[-1] else np.matmul(a, at)


def _short_gram(a: np.ndarray):
    """The `_gram` of a validated non-square matrix or stack, or None for the SVD route of a square input.

    A slice whose Gram overflowed is zeroed, which sends it to the SVD with
    the zero slices (its largest eigenvalue is then below
    `_GRAM_LAMBDA_FLOOR`).
    """
    if a.shape[-2] == a.shape[-1]:
        return None
    gram = _gram(a)
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
    gram = _short_gram(a)
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


def _unit_frobenius(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every matrix of an (..., m, n) stack divided by its Frobenius norm; a zero matrix stays zero.

    The norm is taken after dividing by the matrix's largest |entry|, so its
    sum of squares lies in [1, m n] and neither underflows nor overflows at
    any finite scale. The result is written to `out` when one is given.
    """
    peak = np.abs(a).max(axis=(-2, -1), keepdims=True)
    zero = peak == 0.0
    peak[zero] = 1.0  # 0 / 1 keeps a zero matrix zero
    a = np.divide(a, peak, out=out)
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


def _svd_polar(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Polar factor u @ vt of the reduced SVD over singular values > DEFAULT_RANK_TOL * the largest."""
    u, s, vt = _svd(a)
    # Singular values are nonincreasing, so the kept directions are a prefix;
    # zeroing the rest equals truncating. A zero matrix keeps none.
    u *= s[..., None, :] > DEFAULT_RANK_TOL * s[..., None, :1]
    return np.matmul(u, vt, out=out)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable strided view of the diagonal of every matrix of a C-contiguous (..., k, k) stack."""
    k = a.shape[-1]
    return a.reshape(*a.shape[:-2], k * k)[..., :: k + 1]


def _gram_polar(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Polar factor of each slice of a validated non-square stack, from its short-side Gram, into `out`; mask of resolved slices.

    `out` is a C-ordered array of `a`'s shape. It first holds a transposed
    copy of `a`, so that the Gram is one BLAS `gemm` per slice (a product of
    `a` with a transposed view of itself would take the slower `syrk`); the
    iteration then works in the memory of `out` and in two more (..., k, k)
    stacks, three when `out` does not hold two. Each slice iterates on its
    own and leaves the working stack once it has converged, so its result
    does not depend on the other slices. The factor is a p (tall) or p a
    (wide) with p = G^{-1/2}; a slice that converged only after
    `_POLAR_NS_EXACT_STEPS` steps takes p symmetrised and then one cubic
    Newton-Schulz step on its factor, q (1.5 I - 0.5 q^T q) (or (1.5 I - 0.5
    q q^T) q), formed as a (p w) (or (w p) a). A slice whose Gram
    overflowed, underflowed or is zero (||G||_F below `_GRAM_LAMBDA_FLOOR`
    or not finite), or that did not converge, is not resolved and reads zero.
    """
    lead, (rows, cols) = a.shape[:-2], a.shape[-2:]
    tall, k = rows > cols, min(rows, cols)
    at = out.reshape(*lead, cols, rows)
    np.copyto(at, np.swapaxes(a, -2, -1))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        y = (np.matmul(at, a) if tall else np.matmul(a, at)).reshape(-1, k, k)
        c = _frobenius(y)  # not finite where the Gram overflowed
    b = y.shape[0]
    ok = (c >= _GRAM_LAMBDA_FLOOR) & (c < np.inf)
    rough = np.zeros(b, dtype=bool)
    live = np.flatnonzero(ok)  # the slice each working row holds
    n = live.size
    if n < b:
        y[:n] = y[live]
    y[:n] /= c[live, None, None]
    # Row i of t holds the working slice's t while i < n, and the finished
    # slice order[i]'s p from then on. t lives in `out`, and so does spare
    # when `out` has room for it; p and spare swap after each product.
    room = out.reshape(-1)
    t = room[: y.size].reshape(y.shape)
    spare = room[y.size : 2 * y.size].reshape(y.shape) if room.size >= 2 * y.size else np.empty_like(y)
    p = np.empty_like(y)
    own = p  # p may end the loop in `out`; the result is formed here
    order = np.concatenate([live, np.flatnonzero(~ok)])
    t[n:] = 0.0
    for step in range(1, _POLAR_NS_STEPS + 1):
        if not n:
            break
        # t = y (b I + c y) + a I, the row's polynomial in y.
        ca, cb, cc = _POLAR_NS_ROWS[step - 1] if step <= len(_POLAR_NS_ROWS) else _POLAR_NS_TAIL
        np.multiply(y[:n], cc, out=spare[:n])
        _diagonal(spare[:n])[...] += cb
        np.matmul(y[:n], spare[:n], out=t[:n])
        _diagonal(t[:n])[...] += ca
        if step == 1:
            p[:n] = t[:n]
        else:
            np.matmul(p[:n], t[:n], out=spare[:n])
            p, spare = spare, p
        np.matmul(y[:n], t[:n], out=spare[:n])
        np.matmul(spare[:n], t[:n], out=y[:n])
        if step < _POLAR_NS_FIRST_CHECK:
            continue
        late = step > _POLAR_NS_EXACT_STEPS
        tol = _POLAR_NS_TOL if late else _POLAR_NS_EXACT_TOL
        # max |y - I| per slice, taken only where every |y_ii - 1| is within
        # tol: no other slice can pass, so the mask is the same.
        off = np.abs(_diagonal(y[:n]) - 1.0)
        done = off.max(axis=-1) <= tol
        near = np.flatnonzero(done)
        if near.size:
            defect = np.take(y[:n], near, axis=0, out=spare[: near.size])
            np.abs(defect, out=defect)
            _diagonal(defect)[...] = off[near]
            done[near] = defect.max(axis=(-2, -1)) <= tol
        if done.any():
            # The finished slices' p go to rows m..n of t; the working slices
            # in those rows move to the rows the finished slices leave.
            finished = np.flatnonzero(done)
            m = n - finished.size
            holes = finished[finished < m]
            movers = m + np.flatnonzero(~done[m:])
            t[m:n] = p[finished]
            order[m:n] = live[finished]
            rough[live[finished]] = late
            y[holes], p[holes], live[holes] = y[movers], p[movers], live[movers]
            live, n = live[:m], m
    ok[live] = False
    # In slice order and scaled: p / sqrt(c).
    p = own
    p[order] = t
    scale = np.zeros(b)
    scale[ok] = 1.0 / np.sqrt(c[ok])
    p *= scale[:, None, None]
    if tall:
        np.matmul(a, p.reshape(*lead, k, k), out=out)
    else:
        np.matmul(p.reshape(*lead, k, k), a, out=out)
    if rough.any():
        late = np.flatnonzero(rough)
        a, p = a.reshape(-1, *a.shape[-2:])[late], p[late]
        p += np.swapaxes(p, -2, -1)
        p *= 0.5
        q = np.matmul(a, p) if tall else np.matmul(p, a)
        qt = np.swapaxes(q, -2, -1)
        w = np.matmul(qt, q) if tall else np.matmul(q, qt)
        w *= -0.5
        _diagonal(w)[...] += 1.5
        q = np.matmul(a, p @ w, out=q) if tall else np.matmul(w @ p, a, out=q)
        out.reshape(-1, *out.shape[-2:])[late] = q
    return ok.reshape(lead)


def msgn_exact(a, out: np.ndarray | None = None) -> np.ndarray:
    """Orthogonal (polar) factor u @ v.T of the reduced SVD.

    Singular directions with singular value <= DEFAULT_RANK_TOL * (largest
    singular value) are dropped, so all nonzero singular values of the
    result equal 1. The zero matrix maps to the zero matrix, which turns a
    zero tracker into a zero step. `a` may be a stack of matrices; one
    stacked call then gives every matrix's polar factor.

    A non-square matrix with short side >= `_POLAR_GRAM_MIN_SIDE` takes it
    from its short-side Gram G with matrix products only (`_gram_polar`):
    `a @ G^{-1/2}` when tall and `G^{-1/2} @ a` when wide, G^{-1/2} from a
    quintic Newton-Schulz schedule (and one cubic Newton-Schulz step on the
    factor of an ill-conditioned slice). A slice whose Gram overflowed, underflowed
    or is zero, or whose iteration did not converge within `_POLAR_NS_STEPS`
    steps (ill-conditioned or rank deficient), is redone by the masked SVD,
    as are square and smaller inputs. Like the SVD's, the result has
    spectral norm at most 1 up to rounding.

    The result is written to `out` when one is given (see `_out_array`), the
    fallback slices scattered into it; the values do not depend on it. An
    `out` that overlaps `a` raises ValueError too.
    """
    a = as_matrix(a, stack=True)
    out = _out_array(out, a.shape)
    if np.may_share_memory(out, a):
        raise ValueError("out must not overlap the input")
    if a.shape[-2] == a.shape[-1] or min(a.shape[-2:]) < _POLAR_GRAM_MIN_SIDE:
        return _svd_polar(a, out)
    ok = _gram_polar(a, out)
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
