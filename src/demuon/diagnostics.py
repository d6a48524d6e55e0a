"""Per-iteration run metrics: consensus errors, the tracker potential, and horizon constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm, nuclear_norm, spectral_norm

CSV_COLUMNS = (
    "iter",
    "consensus_error_x",
    "consensus_bound",
    "avg_grad_nuclear",
    "tracking_residual",
    "consensus_error_v",
    "potential",
    "objective_at_mean",
    "wall_time_ms",
)


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
        cells = [
            str(self.iter),
            _fmt(self.consensus_error_x),
            _fmt(self.consensus_bound),
            _fmt(self.avg_grad_nuclear),
            _fmt(self.tracking_residual),
            _fmt(self.consensus_error_v),
            _fmt(self.potential),
            _fmt(self.objective_at_mean),
            _fmt(self.wall_time_ms) if include_timing else "",
        ]
        return ",".join(cells)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def stack_blocks(blocks) -> np.ndarray:
    """Vertically stack N m x n blocks into one (N m) x n matrix."""
    arr = np.asarray(blocks, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected N stacked matrices, got ndim={arr.ndim}")
    n_blocks, m, n = arr.shape
    return arr.reshape(n_blocks * m, n)


def consensus_error(xs) -> float:
    """Spectral norm of the vertical stack of deviations X_i - mean(X)."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise ValueError("consensus_error expects a nonempty list of same-shape matrices")
    dev = arr - arr.mean(axis=0)
    return spectral_norm(stack_blocks(dev))


def consensus_error_nuclear(xs) -> float:
    """Nuclear norm of the vertical stack of deviations X_i - mean(X)."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise ValueError("consensus_error_nuclear expects a nonempty list of same-shape matrices")
    dev = arr - arr.mean(axis=0)
    return nuclear_norm(stack_blocks(dev))


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


def theorem_potential_params(horizon: int, alpha: float, lam: float) -> PotentialParams:
    """Potential weights matching the theoretical step/weighting schedule."""
    if horizon < 4:
        raise ValueError(f"theorem-mode potential needs horizon >= 4, got {horizon}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"mixing rate must lie in [0, 1), got {lam}")
    p = float(horizon) ** ((alpha**2 - 3.0 * alpha + 2.0) / (3.0 * alpha - 2.0))
    eta = float(horizon) ** (-(2.0 * alpha - 1.0) / (3.0 * alpha - 2.0))
    q = 2.0 * eta / (1.0 - lam)
    return PotentialParams(p, q, alpha)


def potential(objective_at_mean: float, grads, ms, consensus_v: float, params: PotentialParams) -> float:
    """Objective at the mean plus weighted momentum-error and tracker-consensus terms.

    P = f(mean X) + p * ||grad F stack - M stack||_F^alpha
                  + q * ||V stack - replicated mean V||_*

    `objective_at_mean` is f(mean X), `grads` the (N, m, n) stack of exact
    local gradients at the same iterates X and `consensus_v` the tracker
    consensus `consensus_error_nuclear(V)`, as the run already computes them.
    """
    grads = np.asarray(grads, dtype=float)
    ms = np.asarray(ms, dtype=float)
    term_m = params.p * frobenius_norm(stack_blocks(grads - ms)) ** params.alpha
    return objective_at_mean + term_m + params.q * consensus_v


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
    """Horizon constant combining initial gap, noise, mixing, and smoothness terms."""
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
