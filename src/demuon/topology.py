"""Mixing matrices for the supported communication graphs, plus their mixing rate.

Every built-in family uses uniform self-inclusive weights, which makes the
matrix circulant and therefore doubly stochastic by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, spectral_norm

COMPLETE = "complete"
RING = "ring"
DIRECTED_EXPONENTIAL = "directed_exponential"
CUSTOM = "custom"
FAMILIES = (COMPLETE, RING, DIRECTED_EXPONENTIAL, CUSTOM)

STOCHASTIC_TOL = 1e-12


class InvalidMixingError(ValueError):
    """A candidate mixing matrix failed validation."""


@dataclass(frozen=True)
class MixingReport:
    """Outcome of each mixing-matrix check, with the computed rate."""

    nonnegative: bool
    row_stochastic: bool
    column_stochastic: bool
    primitive: bool
    contractive: bool
    mixing_rate: float

    @property
    def ok(self) -> bool:
        return (
            self.nonnegative
            and self.row_stochastic
            and self.column_stochastic
            and self.primitive
            and self.contractive
        )

    def failures(self) -> list[str]:
        out = []
        if not self.nonnegative:
            out.append("entries must be nonnegative")
        if not self.row_stochastic:
            out.append("rows must sum to 1")
        if not self.column_stochastic:
            out.append("columns must sum to 1")
        if not self.primitive:
            out.append("some power W^j (j <= N) must be entrywise positive")
        if not self.contractive:
            out.append(f"mixing rate must be < 1, got {self.mixing_rate}")
        return out


@dataclass(frozen=True)
class MixingSpec:
    """A validated N x N mixing matrix with its cached mixing rate."""

    n_nodes: int
    weights: np.ndarray
    mixing_rate: float
    family: str


def _deviation_norm(w: np.ndarray) -> float:
    n = w.shape[0]
    return spectral_norm(w - np.full((n, n), 1.0 / n))


def validate_mixing(w) -> MixingReport:
    """Check nonnegativity, double stochasticity, primitivity, and rate < 1.

    The mixing rate is the spectral norm of W - (1 1^T)/N, so non-symmetric
    (directed) matrices are handled.
    """
    w = as_matrix(w)
    n = w.shape[0]
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got {w.shape}")
    # Entries too large for the sums and powers overflow to inf, which fails the checks.
    with np.errstate(over="ignore", invalid="ignore"):
        nonnegative = bool(np.all(w >= 0))
        row = bool(np.all(np.abs(w.sum(axis=1) - 1.0) <= STOCHASTIC_TOL))
        col = bool(np.all(np.abs(w.sum(axis=0) - 1.0) <= STOCHASTIC_TOL))
        primitive = False
        power = np.eye(n)
        for _ in range(n):
            power = power @ w
            if np.all(power > 0):
                primitive = True
                break
        rate = _deviation_norm(w)
    return MixingReport(nonnegative, row, col, primitive, rate < 1.0, rate)


def check_node_count(family: str, n_nodes: int):
    """Raise ValueError unless `family` is known and has a graph on `n_nodes` nodes.

    Every family needs n_nodes >= 1, a ring at least 3 and a directed
    exponential graph a power of two >= 2. Each message starts with the
    offending field's name.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    if family == RING and n_nodes < 3:
        raise ValueError(f"n_nodes must be >= 3 for the ring family, got {n_nodes}")
    if family == DIRECTED_EXPONENTIAL and (n_nodes < 2 or n_nodes & (n_nodes - 1)):
        raise ValueError(
            f"n_nodes must be a power of two >= 2 for the directed_exponential family, got {n_nodes}"
        )


def build_complete(n: int) -> MixingSpec:
    """All-pairs averaging: W = (1 1^T)/n, mixing rate exactly 0."""
    check_node_count(COMPLETE, n)
    w = np.full((n, n), 1.0 / n)
    return MixingSpec(n, w, _deviation_norm(w), COMPLETE)


def build_ring(n: int) -> MixingSpec:
    """Undirected ring: each node averages itself and both neighbours at 1/3."""
    check_node_count(RING, n)
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i] = w[i, (i - 1) % n] = w[i, (i + 1) % n] = 1.0 / 3.0
    return MixingSpec(n, w, _deviation_norm(w), RING)


def build_directed_exponential(n: int) -> MixingSpec:
    """Directed exponential graph on n = 2^t nodes.

    Node i sends to i, i+1, i+2, ..., i+2^(t-1) (mod n), each edge weighted
    1/(t+1); circulant, hence doubly stochastic.
    """
    check_node_count(DIRECTED_EXPONENTIAL, n)
    t = n.bit_length() - 1
    offsets = [0] + [1 << s for s in range(t)]
    w = np.zeros((n, n))
    for sender in range(n):
        for off in offsets:
            w[(sender + off) % n, sender] = 1.0 / (t + 1)
    return MixingSpec(n, w, _deviation_norm(w), DIRECTED_EXPONENTIAL)


def load_mixing_csv(path) -> MixingSpec:
    """Load a custom N x N mixing matrix from dense CSV; abort if invalid.

    Each row is one line of comma-separated numbers. A line that holds only
    whitespace, or whitespace and a `#` comment, is skipped.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = ["" if not line.partition("#")[0].strip() else line for line in fh]
        with warnings.catch_warnings():
            # numpy warns on a file without data rows; that is reported below.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            w = np.loadtxt(lines, delimiter=",", ndmin=2)
    except Exception as exc:
        raise InvalidMixingError(f"could not parse mixing CSV {path}: {exc}") from exc
    if w.shape[0] == 0:
        raise InvalidMixingError(f"mixing CSV {path} holds no rows")
    if w.shape[0] != w.shape[1]:
        raise InvalidMixingError(
            f"mixing CSV {path} must be square, got {w.shape[0]}x{w.shape[1]}"
        )
    try:
        report = validate_mixing(w)
    except ValueError as exc:  # non-finite entries
        raise InvalidMixingError(f"mixing CSV {path}: {exc}") from exc
    if not report.ok:
        raise InvalidMixingError(f"mixing CSV {path}: " + "; ".join(report.failures()))
    return MixingSpec(w.shape[0], w, report.mixing_rate, CUSTOM)


def build_family(family: str, n: int) -> MixingSpec:
    if family == COMPLETE:
        return build_complete(n)
    if family == RING:
        return build_ring(n)
    if family == DIRECTED_EXPONENTIAL:
        return build_directed_exponential(n)
    raise ValueError(f"unknown topology family {family!r}")


def mix_blocks(w: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Apply (W kron I_m) blockwise: out[i] = sum_j w[i, j] * blocks[j].

    `blocks` is an (N, m, n) stack, or an (L, N, m, n) stack of L of them,
    each mixed on its own. One matrix product per (N, m, n) stack over its
    flattened blocks; it gives exactly what `np.tensordot(w, blocks,
    axes=(1, 0))` gives on that stack, with less overhead.
    """
    return (w @ blocks.reshape(*blocks.shape[:-3], w.shape[0], -1)).reshape(blocks.shape)
