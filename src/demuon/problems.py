"""Desk-scale decentralized matrix objectives with exact gradient and objective oracles.

Two synthetic families plus file ingestion:

  quadratic       f_i(X) = 0.5 ||A_i X - B_i||_F^2        (A_i: p x m, B_i: p x n)
  nonconvex_gram  f_i(X) = 0.25 ||X X^T - C_i||_F^2       (C_i: m x m symmetric)

The oracles take whole node stacks, as a run calls them: `exact_gradient`
gives all N local gradients in one product, `objective_at` f = (1/N) sum_i f_i.

Problem file format (dense CSV blocks, nodes in index order):

  header line:  kind N m n [p]
  quadratic:        per node, p rows of A_i then p rows of B_i
  nonconvex_gram:   per node, m rows of C_i
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

import numpy as np

from .linalg import as_matrix, nuclear_norm, spectral_norm

QUADRATIC = "quadratic"
NONCONVEX_GRAM = "nonconvex_gram"
KINDS = (QUADRATIC, NONCONVEX_GRAM)
# Condition number of every synthesized A_i.
_COND = 3.0
# A Gram target C_i counts as symmetric when max|C_i - C_i^T| is within this
# multiple of max|C_i|: room for the round-off of a matrix written by another
# program, far below any asymmetry that would change the gradient.
_SYMMETRY_TOL = 1e-12


class ProblemFormatError(ValueError):
    """A problem file failed to parse or had inconsistent dimensions."""


@dataclass(frozen=True)
class ProblemSet:
    """N local objectives over m x n iterates, with certified constants.

    The node data are stacked float arrays: `a` (N, p, m) and `b` (N, p, n)
    for quadratics, `c` (N, m, m) for the Gram family; the unused ones are
    None. Sequences of per-node matrices are stacked once at construction.

    `lipschitz_star` bounds the nuclear-norm gradient variation against the
    spectral-norm argument distance; for quadratics it is global
    (ball_radius = inf), for the Gram family it is certified only while
    spectral_norm(X) <= ball_radius.
    """

    kind: str
    n_nodes: int
    m: int
    n: int
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None
    lipschitz_star: float | None = None
    f_low: float | None = None
    ball_radius: float = inf

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"problem kind must be one of {KINDS}, got {self.kind!r}")
        names = ("a", "b") if self.kind == QUADRATIC else ("c",)
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} problem needs node data {name!r}")
            object.__setattr__(self, name, as_matrix(getattr(self, name), stack=True))
        if self.kind == QUADRATIC:
            p = self.a.shape[-2]
            shapes = ((self.n_nodes, p, self.m), (self.n_nodes, p, self.n))
        else:
            shapes = ((self.n_nodes, self.m, self.m),)
        for name, shape in zip(names, shapes):
            if getattr(self, name).shape != shape:
                raise ValueError(f"node data {name!r} has shape {getattr(self, name).shape}, expected {shape}")
        if self.kind == NONCONVEX_GRAM:
            # exact_gradient's (X X^T - C) X is the gradient of f only for symmetric C.
            with np.errstate(over="ignore"):  # an overflowing difference is an asymmetry
                skew = np.abs(self.c - np.swapaxes(self.c, -2, -1)).max(axis=(-2, -1))
            bad = np.flatnonzero(skew > _SYMMETRY_TOL * np.abs(self.c).max(axis=(-2, -1)))
            if bad.size:
                raise ValueError(f"node {bad[0]}: C must be symmetric, max |C - C^T| = {skew[bad[0]]}")


def _values(problem: ProblemSet, x: np.ndarray):
    """f_i(x) for every node, one value per node; leading axes of `x` are broadcast over.

    The residuals are squared in place: on a stack of iterates a second
    temporary of their size costs more, in allocator work, than the product.
    """
    if problem.kind == QUADRATIC:
        r = problem.a @ x - problem.b
        return 0.5 * np.sum(np.multiply(r, r, out=r), axis=(-2, -1))
    g = x @ np.swapaxes(x, -2, -1) - problem.c
    return 0.25 * np.sum(np.multiply(g, g, out=g), axis=(-2, -1))


def exact_gradient(problem: ProblemSet, x) -> np.ndarray:
    """Exact gradients of every f_i, in one batched product.

    `x` is the (N, m, n) stack of per-node iterates, or one m x n iterate
    shared by all nodes; the result is the (N, m, n) gradient stack, whose
    row i is grad f_i at node i's iterate. Leading axes in front of N (the
    lanes of a run) are broadcast over, and each (N, m, n) slice gives
    exactly what it gives alone.
    """
    x = as_matrix(x, stack=True)
    shape = (problem.m, problem.n)
    if x.shape != shape and x.shape[-3:] != (problem.n_nodes, *shape):
        want = f"{shape} or (..., {problem.n_nodes}, {shape[0]}, {shape[1]})"
        raise ValueError(f"iterate shape {x.shape} does not match problem {want}")
    if problem.kind == QUADRATIC:
        return np.swapaxes(problem.a, -2, -1) @ _minus(problem.a @ x, problem.b)
    return _minus(x @ np.swapaxes(x, -2, -1), problem.c) @ x


def _minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b, formed in `a` when `a` has the result's shape.

    On a lane stack a second temporary of the stack's size costs more, in
    allocation, than the subtraction itself; the values are the same.
    """
    if a.ndim < b.ndim:
        return a - b
    a -= b
    return a


def objective_at(problem: ProblemSet, x):
    """Global objective f(x) = (1/N) sum_i f_i(x) at a common iterate.

    `x` may be an (..., m, n) stack of iterates; the result is then one value
    per iterate, each exactly what that iterate gives alone.
    """
    x = as_matrix(x, stack=True)
    if x.shape[-2:] != (problem.m, problem.n):
        raise ValueError(f"iterate shape {x.shape} does not match problem (..., {problem.m}, {problem.n})")
    means = np.mean(_values(problem, x[..., None, :, :]), axis=-1)
    return float(means) if means.ndim == 0 else means


def _conditioned_random(rng: np.random.Generator, count: int, rows: int, cols: int, cond: float) -> np.ndarray:
    """(count, rows, cols) stack of random matrices, each with singular values spread linearly over [1/cond, 1].

    One draw and one stacked SVD; each matrix is bit for bit what its own
    draw of rows x cols, in stack order, and its own SVD give.
    """
    g = rng.standard_normal((count, rows, cols))
    u, _, vt = np.linalg.svd(g, full_matrices=False)
    s = np.linspace(1.0, 1.0 / cond, min(rows, cols))
    return (u * s) @ vt


def _certified_quadratic(a: np.ndarray, b: np.ndarray, f_low: float | None = None) -> ProblemSet:
    """Quadratic ProblemSet with its Lipschitz certificate max_i ||A_i^T A_i||_*.

    A_i^T A_i is positive semidefinite, so its nuclear norm is its trace,
    ||A_i||_F^2. The squares and their sums honour `np.errstate`, so under
    `over="raise"` an overflowing certificate raises. Without `f_low`, the
    lower bound is the objective at the least-squares minimizer of the
    stacked system.
    """
    n_nodes, _, m = a.shape
    n = b.shape[-1]
    l_star = float(np.max(np.sum(np.square(a), axis=(-2, -1))))
    problem = ProblemSet(QUADRATIC, n_nodes, m, n, a=a, b=b, lipschitz_star=l_star, f_low=f_low)
    if f_low is None:
        x_opt = np.linalg.lstsq(problem.a.reshape(-1, m), problem.b.reshape(-1, n), rcond=None)[0]
        problem = replace(problem, f_low=objective_at(problem, x_opt))
    return problem


def _certified_gram(c: np.ndarray, n: int, ball_radius: float) -> ProblemSet:
    """Gram-matching ProblemSet with f_low = 0 and the certificate on the spectral ball."""
    n_nodes, m, _ = c.shape
    l_star = 3.0 * min(m, n) * ball_radius**2 + float(np.max(nuclear_norm(c)))
    return ProblemSet(
        NONCONVEX_GRAM, n_nodes, m, n, c=c,
        lipschitz_star=l_star, f_low=0.0, ball_radius=ball_radius,
    )


def _zero_sum(offsets: np.ndarray) -> np.ndarray:
    """The N - 1 node offsets followed by minus their sum, so that the N offsets sum to zero."""
    return np.concatenate([offsets, -np.sum(offsets, axis=0, keepdims=True)])


def check_problem_args(n_nodes: int, m: int, n: int, p: int, heterogeneity: float, seed: int):
    """Raise ValueError unless a synthesized problem can be drawn from these arguments.

    The sizes must be positive, the heterogeneity nonnegative and finite,
    and the seed nonnegative. Each message starts with the argument's name.
    """
    for name, value in (("n_nodes", n_nodes), ("m", m), ("n", n), ("p", p)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if not 0.0 <= heterogeneity < inf:
        raise ValueError(f"heterogeneity must be nonnegative and finite, got {heterogeneity}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def make_quadratic(
    n_nodes: int,
    m: int,
    n: int,
    p: int,
    heterogeneity: float = 0.0,
    seed: int = 0,
) -> ProblemSet:
    """Synthesize a quadratic problem with a known consensus optimum.

    B_i = A_i X* + heterogeneity * D_i with sum_i D_i = 0, so at
    heterogeneity = 0 every node shares the minimizer X* and f_low = 0.
    The Lipschitz certificate max_i ||A_i^T A_i||_* holds globally.
    """
    check_problem_args(n_nodes, m, n, p, heterogeneity, seed)
    rng = np.random.default_rng(seed)
    a = _conditioned_random(rng, n_nodes, p, m, _COND)
    x_star = 0.5 * rng.standard_normal((m, n))
    b = a @ x_star + heterogeneity * _zero_sum(rng.standard_normal((n_nodes - 1, p, n)))
    return _certified_quadratic(a, b, f_low=0.0 if heterogeneity == 0 else None)


def make_nonconvex_gram(
    n_nodes: int,
    m: int,
    n: int,
    heterogeneity: float = 0.0,
    seed: int = 0,
    ball_radius: float | None = None,
) -> ProblemSet:
    """Synthesize a Gram-matching problem C_i = X* X*^T + heterogeneity * S_i.

    The S_i are symmetric with zero sum. f_low = 0 is a valid lower bound
    (each f_i >= 0). The Lipschitz certificate is only claimed on the
    spectral ball ||X|| <= ball_radius.
    """
    check_problem_args(n_nodes, m, n, 1, heterogeneity, seed)  # the Gram family has no p
    rng = np.random.default_rng(seed)
    x_star = 0.5 * rng.standard_normal((m, n))
    g = rng.standard_normal((n_nodes - 1, m, m))
    c = x_star @ x_star.T + heterogeneity * _zero_sum(0.5 * (g + np.swapaxes(g, -2, -1)))
    if ball_radius is None:
        ball_radius = 2.0 * (1.0 + spectral_norm(x_star))
    return _certified_gram(c, n, ball_radius)


def _parse_block(lines, start: int, rows: int, cols: int, label: str) -> tuple[np.ndarray, int]:
    """Parse `rows` of the (line number, text) pairs from `start` into a rows x cols block."""
    out = []
    for lineno, text in lines[start : start + rows]:
        parts = text.split(",")
        if len(parts) != cols:
            raise ProblemFormatError(
                f"line {lineno}: {label} expects {cols} values per row, got {len(parts)}"
            )
        try:
            out.append([float(p) for p in parts])
        except ValueError as exc:
            raise ProblemFormatError(f"line {lineno}: {label}: {exc}") from exc
    return np.array(out), start + rows


def load_problem(path) -> ProblemSet:
    """Parse a problem file (header + per-node dense CSV blocks).

    Blank lines are skipped; error messages give physical line numbers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
    if not lines:
        raise ProblemFormatError(f"{path}: empty problem file")
    head, header = lines[0][0], lines[0][1].split()
    if not header or header[0] not in KINDS:
        raise ProblemFormatError(f"{path}: line {head}: header must start with one of {KINDS}")
    kind = header[0]
    want = 5 if kind == QUADRATIC else 4
    if len(header) != want:
        raise ProblemFormatError(
            f"{path}: line {head}: {kind} header needs {want} fields (kind N m n"
            + (" p)" if kind == QUADRATIC else ")")
        )
    try:
        dims = [int(tok) for tok in header[1:]]
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: line {head}: {exc}") from exc
    if any(d < 1 for d in dims):
        raise ProblemFormatError(f"{path}: line {head}: dimensions must be positive, got {dims}")
    n_nodes, m, n = dims[0], dims[1], dims[2]
    blocks = (("A", dims[3], m), ("B", dims[3], n)) if kind == QUADRATIC else (("C", m, m),)
    # Checked before any block is read, so a header cannot make the parser
    # allocate more rows than the file holds; rows are checked for width first.
    rows = n_nodes * sum(block_rows for _, block_rows, _ in blocks)
    if rows != len(lines) - 1:
        raise ProblemFormatError(
            f"{path}: line {head}: header needs {rows} data rows, the file has {len(lines) - 1}"
        )
    data = {label: [] for label, _, _ in blocks}
    pos = 1
    for i in range(n_nodes):
        for label, block_rows, cols in blocks:
            try:
                block, pos = _parse_block(lines, pos, block_rows, cols, f"{label}_{i}")
            except ProblemFormatError as exc:
                raise ProblemFormatError(f"{path}: node {i}: {exc}") from exc
            data[label].append(block)
    try:
        # Finite entries can still overflow the certificates.
        with np.errstate(over="raise", invalid="raise"):
            if kind == QUADRATIC:
                return _certified_quadratic(np.stack(data["A"]), np.stack(data["B"]))
            c = np.stack(data["C"])
            return _certified_gram(c, n, 2.0 * (1.0 + float(np.max(spectral_norm(c))) ** 0.5))
    except (ValueError, ArithmeticError) as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def dump_problem(problem: ProblemSet, path):
    """Write a ProblemSet in the file format accepted by load_problem."""
    with open(path, "w", encoding="utf-8") as fh:
        if problem.kind == QUADRATIC:
            p = problem.a[0].shape[0]
            fh.write(f"{problem.kind} {problem.n_nodes} {problem.m} {problem.n} {p}\n")
            for i in range(problem.n_nodes):
                for block in (problem.a[i], problem.b[i]):
                    for row in block:
                        fh.write(",".join(repr(float(x)) for x in row) + "\n")
        else:
            fh.write(f"{problem.kind} {problem.n_nodes} {problem.m} {problem.n}\n")
            for i in range(problem.n_nodes):
                for row in problem.c[i]:
                    fh.write(",".join(repr(float(x)) for x in row) + "\n")
