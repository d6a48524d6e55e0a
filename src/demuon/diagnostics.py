"""Per-iteration run metrics: consensus errors, the tracker potential, and horizon constants."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import frobenius_norm, nuclear_norm, spectral_norm


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


@dataclass(frozen=True)
class MetricsRow:
    """One iteration's diagnostics; optional fields are blank in the CSV.

    Quantities describe the state entering round k (X^k) together with the
    momenta/trackers produced during round k (M^k, V^k).
    """

    iter: int
    consensus_error_x: float
    consensus_bound: float | None
    avg_grad_nuclear: float
    tracking_residual: float | None
    consensus_error_v: float | None
    potential: float | None
    objective_at_mean: float
    wall_time_ms: float | None = None

    def csv_line(self, include_timing: bool = False) -> str:
        """The row's cells in `CSV_COLUMNS` order; wall_time_ms stays blank unless `include_timing`."""
        cells = [str(self.iter)]
        for name in CSV_COLUMNS[1:]:
            shown = include_timing or name != "wall_time_ms"
            cells.append(_fmt(getattr(self, name)) if shown else "")
        return ",".join(cells)


CSV_COLUMNS = tuple(field.name for field in fields(MetricsRow))


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def node_mean(stack: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Mean over the node axis of an (..., N, m, n) stack.

    Bit for bit `stack.mean(axis=-3)`, the same sum divided by N, without
    the Python overhead of `ndarray.mean`, which every window of rounds pays
    several times.
    """
    return np.add.reduce(stack, axis=-3, keepdims=keepdims) / stack.shape[-3]


def _deviations(xs) -> np.ndarray:
    """The (N m) x n vertical stack of deviations X_i - mean(X) of each set of N same-shape matrices.

    An (..., N, m, n) stack gives the (..., N m, n) stack of its sets' deviation stacks, one per leading index.
    """
    arr = np.asarray(xs, dtype=float)
    # Checked before the mean, which warns on an empty stack.
    if arr.ndim < 3 or 0 in arr.shape[:-2]:
        raise ValueError(f"consensus error expects a nonempty (..., N, m, n) stack, got {arr.shape}")
    *lead, n_blocks, m, n = arr.shape
    return (arr - node_mean(arr, keepdims=True)).reshape(*lead, n_blocks * m, n)


def consensus_error(xs):
    """Spectral norm of the vertical stack of deviations X_i - mean(X); one per set of an (..., N, m, n) stack."""
    return spectral_norm(_deviations(xs))


def consensus_error_nuclear(xs):
    """Nuclear norm of the vertical stack of deviations X_i - mean(X); one per set of an (..., N, m, n) stack."""
    return nuclear_norm(_deviations(xs))


def consensus_bound(eta: float, lam: float, n_nodes: int) -> float:
    """Worst-case consensus error sqrt(N) * lam * eta / (1 - lam) for unit-norm steps."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"mixing rate must lie in [0, 1), got {lam}")
    if eta <= 0:
        raise ValueError(f"step size must be positive, got {eta}")
    return math.sqrt(n_nodes) * lam * eta / (1.0 - lam)


@dataclass(frozen=True)
class PotentialParams:
    """Weights of the momentum-error and tracker-consensus penalties.

    In theorem mode p = K^((alpha^2 - 3 alpha + 2)/(3 alpha - 2)) (which is
    <= 1 for alpha in (1, 2]) and q = 2 eta / (1 - lam).
    """

    p: float
    q: float
    alpha: float = 2.0

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("potential weights must be nonnegative")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")


def _theorem_powers(horizon: int, alpha: float) -> tuple[float, float, float]:
    """The theorem's power laws (eta, theta, p) in K >= 4, alpha in (1, 2]; see ScheduleParams and PotentialParams."""
    if horizon < 4:
        raise ValueError(f"theorem schedule needs horizon >= 4, got {horizon}")
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    k, d = float(horizon), 3.0 * alpha - 2.0
    eta = k ** (-(2.0 * alpha - 1.0) / d)
    theta = k ** (-alpha / d)
    p = k ** ((alpha**2 - 3.0 * alpha + 2.0) / d)
    return eta, theta, p


def theorem_potential_params(horizon: int, alpha: float, lam: float) -> PotentialParams:
    """Potential weights matching the theoretical step/weighting schedule."""
    eta, _, p = _theorem_powers(horizon, alpha)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"mixing rate must lie in [0, 1), got {lam}")
    return PotentialParams(p, 2.0 * eta / (1.0 - lam), alpha)


def potential(objective_at_mean, grads, ms, consensus_v, params):
    """Objective at the mean plus weighted momentum-error and tracker-consensus terms.

    P = f(mean X) + p * ||grad F stack - M stack||_F^alpha
                  + q * ||V stack - replicated mean V||_*

    Many lanes and rounds go in one call, as the run makes it: `grads` and
    `ms` are (..., L, N, m, n) stacks, the exact local gradients at the
    iterates X and the momenta of L lanes; `objective_at_mean` (f(mean X))
    and `consensus_v` (the tracker consensus `consensus_error_nuclear(V)`)
    have shape (..., L); and `params` is a sequence of L PotentialParams, one
    per lane. One set is L = 1. The Frobenius norms are one stacked call,
    and the result is the (..., L) array of what each set alone gives, bit
    for bit: the rest is Python float arithmetic per set, since `np.power`
    can round differently from `**`.
    """
    gaps = np.asarray(grads, dtype=float) - np.asarray(ms, dtype=float)
    if gaps.ndim < 4:
        raise ValueError(f"expected (..., L, N, m, n) stacks, got ndim={gaps.ndim}")
    fro = frobenius_norm(gaps.reshape(*gaps.shape[:-3], -1, gaps.shape[-1]))
    lanes = len(params)
    cells = (np.reshape(values, (-1, lanes)).tolist() for values in (objective_at_mean, fro, consensus_v))
    out = [
        [f_mean + w.p * norm**w.alpha + w.q * cons for f_mean, norm, cons, w in zip(*row, params)]
        for row in zip(*cells)
    ]
    return np.reshape(out, gaps.shape[:-3])


def u_dm_constant(
    f0_minus_flow: float,
    n_nodes: int,
    sigma: float,
    alpha: float,
    lam: float,
    l_star: float,
    m: int,
    n: int,
) -> float:
    """Horizon constant combining initial gap, noise, mixing, and smoothness terms.

    With Delta = f0_minus_flow, gap = 1 - lam, L_N = N l_star (the stacked
    smoothness constant) and S = 2 sqrt(N) lam / gap + 1 (the consensus
    spread), the seven terms are

        U = Delta
            + 3 (N sigma)^alpha
            + 2 (N + 1) lam sigma / gap
            + 4 N sigma lam / gap
            + 3 (L_N S)^alpha
            + (2 lam L_N / gap + l_star / 2) S
            + (alpha - 1) (2 sqrt(min(m, n)) / (alpha gap))^(alpha / (alpha - 1)).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"mixing rate must lie in [0, 1), got {lam}")
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if l_star < 0:
        raise ValueError(f"l_star must be nonnegative, got {l_star}")
    l_stacked = n_nodes * l_star
    gap = 1.0 - lam
    spread = 2.0 * math.sqrt(n_nodes) * lam / gap + 1.0
    return (
        f0_minus_flow
        + 3.0 * (n_nodes * sigma) ** alpha
        + 2.0 * (n_nodes + 1) * lam * sigma / gap
        + 4.0 * n_nodes * sigma * lam / gap
        + 3.0 * l_stacked**alpha * spread**alpha
        + (2.0 * lam * l_stacked / gap + l_star / 2.0) * spread
        + (alpha - 1.0) * (2.0 * math.sqrt(min(m, n)) / (alpha * gap)) ** (alpha / (alpha - 1.0))
    )


def min_horizon(u_dm: float, epsilon: float, alpha: float) -> int:
    """Smallest admissible horizon: ceil(max((U/eps)^((3a-2)/(a-1)), 4))."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if u_dm <= 0:
        raise ValueError(f"u_dm must be positive, got {u_dm}")
    raw = (u_dm / epsilon) ** ((3.0 * alpha - 2.0) / (alpha - 1.0))
    nearest = round(raw)
    if abs(raw - nearest) <= 1e-9 * max(1.0, abs(raw)):
        raw = nearest
    return max(math.ceil(raw), 4)
