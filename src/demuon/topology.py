"""Mixing matrices for the supported communication graphs, plus their mixing rate.

Every built-in family is one circulant rule over its `_OFFSETS`, uniform and
self-inclusive, so doubly stochastic by construction. A custom matrix goes
through `validate_mixing`, which returns its mixing rate or raises
InvalidMixingError naming every check it fails.
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
# Each built-in family's offsets on n nodes: sender j gives weight
# 1/len(offsets) to node (j + o) mod n for each offset o (n = 2^t nodes for
# the directed exponential graph, offsets 0 and 2^s for s < t).
_OFFSETS = {
    COMPLETE: range,
    RING: lambda n: (0, 1, n - 1),
    DIRECTED_EXPONENTIAL: lambda n: (0, *(1 << s for s in range(n.bit_length() - 1))),
}


class InvalidMixingError(ValueError):
    """A candidate mixing matrix failed validation."""


@dataclass(frozen=True)
class MixingSpec:
    """A validated N x N mixing matrix with its cached mixing rate."""

    weights: np.ndarray
    mixing_rate: float

    @property
    def n_nodes(self) -> int:
        """N, the size of the weights."""
        return self.weights.shape[0]


def _deviation_norm(w: np.ndarray) -> float:
    n = w.shape[0]
    return spectral_norm(w - np.full((n, n), 1.0 / n))


def validate_mixing(w) -> float:
    """The mixing rate of W, once it is nonnegative, doubly stochastic, primitive and below 1.

    The mixing rate is the spectral norm of W - (1 1^T)/N, so non-symmetric
    (directed) matrices are handled. A matrix that fails any check raises
    InvalidMixingError, whose message names every failed check, joined by "; ".
    """
    w = as_matrix(w)
    n = w.shape[0]
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got {w.shape}")
    failures = []
    # Entries too large for the sums and powers overflow to inf, which fails the checks.
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(w >= 0):
            failures.append("entries must be nonnegative")
        if not np.all(np.abs(w.sum(axis=1) - 1.0) <= STOCHASTIC_TOL):
            failures.append("rows must sum to 1")
        if not np.all(np.abs(w.sum(axis=0) - 1.0) <= STOCHASTIC_TOL):
            failures.append("columns must sum to 1")
        power = np.eye(n)
        for _ in range(n):
            power = power @ w
            if np.all(power > 0):
                break
        else:
            failures.append("some power W^j (j <= N) must be entrywise positive")
        rate = _deviation_norm(w)
    if not rate < 1.0:
        failures.append(f"mixing rate must be < 1, got {rate}")
    if failures:
        raise InvalidMixingError("; ".join(failures))
    return rate


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
    try:
        rate = validate_mixing(w)
    except ValueError as exc:  # non-finite entries, a non-square shape or a failed check
        raise InvalidMixingError(f"mixing CSV {path}: {exc}") from exc
    return MixingSpec(w, rate)


def build_family(family: str, n: int) -> MixingSpec:
    """The mixing matrix of a built-in family on n nodes, the circulant of its `_OFFSETS`."""
    check_node_count(family, n)
    if family == CUSTOM:
        raise ValueError("the custom family has no builder; load its weights with load_mixing_csv")
    offsets = _OFFSETS[family](n)
    senders = np.arange(n)
    w = np.zeros((n, n))
    for o in offsets:
        w[(senders + o) % n, senders] = 1.0 / len(offsets)
    return MixingSpec(w, _deviation_norm(w))


def mix_blocks(w: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Apply (W kron I_m) blockwise: out[i] = sum_j w[i, j] * blocks[j].

    `blocks` is an (N, m, n) stack, or an (L, N, m, n) stack of L of them,
    each mixed on its own. One matrix product per (N, m, n) stack over its
    flattened blocks; it gives exactly what `np.tensordot(w, blocks,
    axes=(1, 0))` gives on that stack, with less overhead.
    """
    return (w @ blocks.reshape(*blocks.shape[:-3], w.shape[0], -1)).reshape(blocks.shape)
