"""Desk-scale decentralized matrix objectives with exact value/gradient oracles.

Two synthetic families plus file ingestion:

  quadratic       f_i(X) = 0.5 ||A_i X - B_i||_F^2        (A_i: p x m, B_i: p x n)
  nonconvex_gram  f_i(X) = 0.25 ||X X^T - C_i||_F^2       (C_i: m x m symmetric)

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

    @property
    def lipschitz_stacked(self) -> float | None:
        return None if self.lipschitz_star is None else self.n_nodes * self.lipschitz_star


def _iterate(problem: ProblemSet, x, stacked: bool = False) -> np.ndarray:
    """Validate one m x n iterate or, when `stacked`, also the (N, m, n) per-node stack."""
    x = as_matrix(x, stack=stacked)
    shapes = [(problem.m, problem.n)]
    if stacked:
        shapes.append((problem.n_nodes, problem.m, problem.n))
    if x.shape not in shapes:
        raise ValueError(f"iterate shape {x.shape} does not match problem {' or '.join(map(str, shapes))}")
    return x


def _nodes(problem: ProblemSet, i: int | None):
    """Index into the node data: node i, or every node when i is None."""
    if i is None:
        return slice(None)
    if not 0 <= i < problem.n_nodes:
        raise IndexError(f"node index {i} out of range for {problem.n_nodes} nodes")
    return i


def _values(problem: ProblemSet, nodes, x: np.ndarray):
    """f_i(x) for the selected nodes, one value per node."""
    if problem.kind == QUADRATIC:
        r = problem.a[nodes] @ x - problem.b[nodes]
        return 0.5 * np.sum(r * r, axis=(-2, -1))
    g = x @ x.T - problem.c[nodes]
    return 0.25 * np.sum(g * g, axis=(-2, -1))


def value(problem: ProblemSet, i: int, x) -> float:
    """Local objective f_i at x."""
    nodes = _nodes(problem, i)
    return float(_values(problem, nodes, _iterate(problem, x)))


def exact_gradient(problem: ProblemSet, i: int | None, x) -> np.ndarray:
    """Exact gradient of f_i at x.

    With i None, the gradients of every node in one batched product: x is
    then the (N, m, n) stack of per-node iterates (or one m x n iterate
    shared by all nodes) and the result is the (N, m, n) gradient stack.
    """
    nodes = _nodes(problem, i)
    x = _iterate(problem, x, stacked=i is None)
    if problem.kind == QUADRATIC:
        a = problem.a[nodes]
        return np.swapaxes(a, -2, -1) @ (a @ x - problem.b[nodes])
    return (x @ np.swapaxes(x, -2, -1) - problem.c[nodes]) @ x


def average_gradient(problem: ProblemSet, xs) -> np.ndarray:
    """(1/N) sum_i grad f_i(xs[i]) for one iterate per node."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[0] != problem.n_nodes:
        raise ValueError(f"expected {problem.n_nodes} iterates, got shape {xs.shape}")
    return exact_gradient(problem, None, xs).mean(axis=0)


def objective_at(problem: ProblemSet, x) -> float:
    """Global objective f(x) = (1/N) sum_i f_i(x) at a common iterate."""
    return float(np.mean(_values(problem, slice(None), _iterate(problem, x))))


def _conditioned_random(rng: np.random.Generator, rows: int, cols: int, cond: float) -> np.ndarray:
    """Random matrix with singular values spread linearly over [1/cond, 1]."""
    g = rng.standard_normal((rows, cols))
    u, _, vt = np.linalg.svd(g, full_matrices=False)
    r = min(rows, cols)
    s = np.linspace(1.0, 1.0 / cond, r)
    return (u * s) @ vt


def _certified_quadratic(a: np.ndarray, b: np.ndarray, f_low: float | None = None) -> ProblemSet:
    """Quadratic ProblemSet with its Lipschitz certificate max_i ||A_i^T A_i||_*.

    Without `f_low`, the lower bound is the objective at the least-squares
    minimizer of the stacked system.
    """
    n_nodes, _, m = a.shape
    n = b.shape[-1]
    l_star = float(np.max(nuclear_norm(np.swapaxes(a, -2, -1) @ a)))
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


def make_quadratic(
    n_nodes: int,
    m: int,
    n: int,
    p: int,
    heterogeneity: float = 0.0,
    seed: int = 0,
    cond: float = 3.0,
) -> ProblemSet:
    """Synthesize a quadratic problem with a known consensus optimum.

    B_i = A_i X* + heterogeneity * D_i with sum_i D_i = 0, so at
    heterogeneity = 0 every node shares the minimizer X* and f_low = 0.
    The Lipschitz certificate max_i ||A_i^T A_i||_* holds globally.
    """
    if heterogeneity < 0:
        raise ValueError(f"heterogeneity must be nonnegative, got {heterogeneity}")
    rng = np.random.default_rng(seed)
    a = np.stack([_conditioned_random(rng, p, m, cond) for _ in range(n_nodes)])
    x_star = 0.5 * rng.standard_normal((m, n))
    deltas = [rng.standard_normal((p, n)) for _ in range(n_nodes - 1)]
    deltas.append(-np.sum(deltas, axis=0) if deltas else np.zeros((p, n)))
    b = a @ x_star + heterogeneity * np.stack(deltas)
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
    if heterogeneity < 0:
        raise ValueError(f"heterogeneity must be nonnegative, got {heterogeneity}")
    rng = np.random.default_rng(seed)
    x_star = 0.5 * rng.standard_normal((m, n))
    sym = []
    for _ in range(n_nodes - 1):
        g = rng.standard_normal((m, m))
        sym.append(0.5 * (g + g.T))
    sym.append(-np.sum(sym, axis=0) if sym else np.zeros((m, m)))
    c = x_star @ x_star.T + heterogeneity * np.stack(sym)
    if ball_radius is None:
        ball_radius = 2.0 * (1.0 + spectral_norm(x_star))
    return _certified_gram(c, n, ball_radius)


def _parse_block(lines, start: int, rows: int, cols: int, label: str) -> tuple[np.ndarray, int]:
    out = np.zeros((rows, cols))
    for r in range(rows):
        idx = start + r
        if idx >= len(lines):
            raise ProblemFormatError(f"unexpected end of file while reading {label}, line {idx + 1}")
        parts = lines[idx].split(",")
        if len(parts) != cols:
            raise ProblemFormatError(
                f"line {idx + 1}: {label} expects {cols} values per row, got {len(parts)}"
            )
        try:
            out[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise ProblemFormatError(f"line {idx + 1}: {label}: {exc}") from exc
    return out, start + rows


def load_problem(path) -> ProblemSet:
    """Parse a problem file (header + per-node dense CSV blocks)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ProblemFormatError(f"{path}: empty problem file")
    header = lines[0].split()
    if not header or header[0] not in KINDS:
        raise ProblemFormatError(f"{path}: line 1: header must start with one of {KINDS}")
    kind = header[0]
    want = 5 if kind == QUADRATIC else 4
    if len(header) != want:
        raise ProblemFormatError(
            f"{path}: line 1: {kind} header needs {want} fields (kind N m n"
            + (" p)" if kind == QUADRATIC else ")")
        )
    try:
        dims = [int(tok) for tok in header[1:]]
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: line 1: {exc}") from exc
    if any(d < 1 for d in dims):
        raise ProblemFormatError(f"{path}: line 1: dimensions must be positive, got {dims}")
    n_nodes, m, n = dims[0], dims[1], dims[2]
    blocks = (("A", dims[3], m), ("B", dims[3], n)) if kind == QUADRATIC else (("C", m, m),)
    data = {label: [] for label, _, _ in blocks}
    pos = 1
    for i in range(n_nodes):
        for label, rows, cols in blocks:
            try:
                block, pos = _parse_block(lines, pos, rows, cols, f"{label}_{i}")
            except ProblemFormatError as exc:
                raise ProblemFormatError(f"{path}: node {i}: {exc}") from exc
            data[label].append(block)
    if pos != len(lines):
        raise ProblemFormatError(f"{path}: line {pos + 1}: trailing data after last node block")
    try:
        if kind == QUADRATIC:
            return _certified_quadratic(np.stack(data["A"]), np.stack(data["B"]))
        c = np.stack(data["C"])
        return _certified_gram(c, n, 2.0 * (1.0 + float(np.max(spectral_norm(c))) ** 0.5))
    except ValueError as exc:
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
