"""The decentralized matrix optimizer engine and its three baselines.

Each round is bulk-synchronous: the momentum stage runs for every node,
then the tracker stage (which reads every node's new momentum), then the
iterate stage (which reads every node's new tracker). Stages operate on
immutable snapshots, so per-node work within a stage is order-independent
and results do not depend on how it is parallelized.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics, linalg, problems
from .diagnostics import MetricsRow
# frobenius_norm is not called here but stays importable from this module:
# bench/tracing.py wraps the norm functions where this module looks them up.
from .linalg import frobenius_norm, msgn_exact, msgn_newton_schulz, nuclear_norm, spectral_norm  # noqa: F401
from .noise import NoiseModel, sample_noise
from .topology import MixingSpec, mix_blocks

DEMUON = "demuon"
DSGD = "dsgd"
DSGD_CLIP = "dsgd_clip"
GT_NSGDM = "gt_nsgdm"
ALGORITHMS = (DEMUON, DSGD, DSGD_CLIP, GT_NSGDM)
TRACKER_ALGORITHMS = (DEMUON, GT_NSGDM)

# Dedicated substream tag for the post-run uniform iteration draw, so the
# draw never perturbs (or depends on) the trajectory's noise streams.
_REPORT_STREAM = 0x696F7461
# Relative rounding slack of the Frobenius screen in the ball check.
_BALL_SCREEN_SLACK = 1e-12


class Diverged(ValueError):
    """A round produced a non-finite iterate, momentum or tracker.

    Carries the algorithm, the iteration (round) that produced the value,
    the first node holding one, and the quantity.
    """

    def __init__(self, algorithm: str, iteration: int, node: int, quantity: str):
        super().__init__(
            f"{algorithm} diverged at iteration {iteration}: node {node} has a non-finite {quantity}"
        )
        self.algorithm = algorithm
        self.iteration = iteration
        self.node = node
        self.quantity = quantity

    def __reduce__(self):
        # Rebuilt from its fields, so it survives the trip back from a sweep worker.
        return type(self), (self.algorithm, self.iteration, self.node, self.quantity)


@dataclass(frozen=True)
class ScheduleParams:
    """Step size and momentum weighting, optionally derived from the horizon.

    In theorem mode eta = K^(-(2 alpha - 1)/(3 alpha - 2)) and
    theta = K^(-alpha/(3 alpha - 2)) exactly, and K >= 4 is required.
    """

    eta: float
    theta: float
    horizon: int = 1
    alpha: float = 2.0
    derived_from_theorem: bool = False

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.derived_from_theorem:
            if self.horizon < 4:
                raise ValueError(f"theorem schedule needs horizon >= 4, got {self.horizon}")
            eta, theta = _theorem_values(self.horizon, self.alpha)
            if self.eta != eta or self.theta != theta:
                raise ValueError("derived_from_theorem schedule does not match the power law")


def _theorem_values(horizon: int, alpha: float) -> tuple[float, float]:
    k = float(horizon)
    eta = k ** (-(2.0 * alpha - 1.0) / (3.0 * alpha - 2.0))
    theta = k ** (-alpha / (3.0 * alpha - 2.0))
    return eta, theta


def theoretical_schedule(horizon: int, alpha: float = 2.0) -> ScheduleParams:
    """Power-law (eta, theta) for a given horizon K >= 4 and tail index alpha."""
    if horizon < 4:
        raise ValueError(f"theorem schedule needs horizon >= 4, got {horizon}")
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    eta, theta = _theorem_values(horizon, alpha)
    return ScheduleParams(eta, theta, horizon, alpha, derived_from_theorem=True)


@dataclass(frozen=True)
class BaselineParams:
    """Constant hyper-parameters of the two untracked baselines, dsgd and dsgd_clip."""

    dsgd_eta: float = 0.01
    clip_eta: float = 10.0
    clip_tau: float = 0.1

    def __post_init__(self):
        for name in ("dsgd_eta", "clip_eta", "clip_tau"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunState:
    """Per-node (X, M, V) stacks entering round `iter`.

    x holds the iterates X^k; m and v hold the previous round's momenta and
    trackers (M^{k-1}, V^{k-1}), both zero before the first round.
    `orthogonalizer` is the parsed (kind, iters) of `parse_orthogonalizer`.
    """

    iter: int
    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    algorithm: str
    orthogonalizer: tuple = ("svd", 0)

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]


def parse_orthogonalizer(spec: str) -> tuple[str, int]:
    """Parse 'svd' or 'ns:<iters>' into (kind, iters)."""
    if spec == "svd":
        return "svd", 0
    if spec.startswith("ns:"):
        try:
            iters = int(spec[3:])
        except ValueError:
            iters = 0
        if iters >= 1:
            return "ns", iters
    raise ValueError(f"orthogonalizer must be 'svd' or 'ns:<iters>', got {spec!r}")


def initial_state(algorithm: str, n_nodes: int, x0: np.ndarray, orthogonalizer: str = "svd") -> RunState:
    """Replicate a common starting point and zero the momentum/tracker buffers."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    polar = parse_orthogonalizer(orthogonalizer)
    try:
        x0 = linalg.as_matrix(x0)
    except ValueError as exc:
        raise ValueError(f"starting point must be one finite m x n matrix: {exc}") from exc
    x = np.broadcast_to(x0, (n_nodes,) + x0.shape).copy()
    zeros = np.zeros_like(x)
    return RunState(0, x, zeros, zeros.copy(), algorithm, polar)


def _check_finite(state: RunState, **stacks):
    """Raise Diverged naming the first non-finite quantity and node of this round."""
    for quantity, stack in stacks.items():
        if not np.isfinite(stack).all():
            node = int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))
            raise Diverged(state.algorithm, state.iter, node, quantity)


def _polar_directions(v: np.ndarray, orthogonalizer: tuple) -> np.ndarray:
    """Polar factor of every node's tracker in one stacked call; a zero tracker gives a zero step."""
    kind, iters = orthogonalizer
    if kind == "svd":
        return msgn_exact(v)
    dirs = np.zeros_like(v)
    live = v.any(axis=(1, 2))
    if live.any():
        dirs[live] = msgn_newton_schulz(v[live], iters)
    return dirs


def _normalized_directions(v: np.ndarray) -> np.ndarray:
    """V_i/||V_i||_F for every node, zero where V_i = 0."""
    norms = np.linalg.norm(v, axis=(1, 2), keepdims=True)
    return np.divide(v, norms, out=np.zeros_like(v), where=norms > 0.0)


def clip_to_frobenius(g: np.ndarray, tau: float) -> np.ndarray:
    """Scale g onto the Frobenius ball of radius tau when it lands outside.

    `g` may be a stack of matrices; each one is clipped on its own, and g
    itself is returned when every matrix already lies inside.
    """
    norms = np.linalg.norm(g, axis=(-2, -1), keepdims=True)
    if (norms <= tau).all():
        return g
    return g * (tau / np.maximum(norms, tau))


def _round_schedule(algorithm: str, params, k: int) -> tuple[float, float | None]:
    """(eta_k, tau_k) of round k; tau_k is the clipping radius, None when nothing is clipped.

    dsgd_clip decays eta_k = eta/(k+1) and grows tau_k = tau*(k+1)^(2/5);
    every other algorithm keeps a constant step.
    """
    if algorithm == DSGD_CLIP:
        return params.clip_eta / (k + 1), params.clip_tau * (k + 1) ** 0.4
    if algorithm == DSGD:
        return params.dsgd_eta, None
    return params.eta, None


def _directions(state: RunState, g: np.ndarray, tau: float | None) -> np.ndarray:
    """Map the round's tracker (tracked algorithms) or stochastic gradient to the step direction."""
    if state.algorithm == DEMUON:
        return _polar_directions(g, state.orthogonalizer)
    if state.algorithm == GT_NSGDM:
        return _normalized_directions(g)
    if state.algorithm == DSGD_CLIP:
        return clip_to_frobenius(g, tau)
    return g


def step(state: RunState, problem, mixing: MixingSpec, noise_model: NoiseModel, params):
    """One synchronous round of the state's algorithm.

    `params` is a ScheduleParams for the tracked algorithms (demuon,
    gt_nsgdm) and a BaselineParams for dsgd and dsgd_clip. Returns the next
    state and the round record `exact_grads`, `noise`, `directions`, `eta`
    and `tau`; raises Diverged when the round produces a non-finite iterate,
    momentum or tracker.
    """
    k = state.iter
    noise = sample_noise(noise_model, problem.m, problem.n, state.n_nodes, k)
    eta, tau = _round_schedule(state.algorithm, params, k)
    m, v = state.m, state.v
    # A diverging round overflows on its way to inf/nan; _check_finite names it instead.
    with np.errstate(over="ignore", invalid="ignore"):
        grads = problems.exact_gradient(problem, None, state.x)
        if state.algorithm in TRACKER_ALGORITHMS:
            m = (1.0 - params.theta) * state.m + params.theta * (grads + noise)
            v = mix_blocks(mixing.weights, state.v + m - state.m)
            _check_finite(state, momentum=m, tracker=v)
            dirs = _directions(state, v, tau)
        else:
            dirs = _directions(state, grads + noise, tau)
        x_new = mix_blocks(mixing.weights, state.x - eta * dirs)
    _check_finite(state, iterate=x_new)
    info = {"exact_grads": grads, "noise": noise, "directions": dirs, "eta": eta, "tau": tau}
    return replace(state, iter=k + 1, x=x_new, m=m, v=v), info


def _outside_ball(xs: np.ndarray, radius: float) -> bool:
    """Whether some node's iterate has spectral norm above `radius`.

    ||X||_2 <= ||X||_F, so only nodes whose Frobenius norm exceeds the
    radius (less a rounding slack) can be outside; only those are decomposed.
    """
    fro = np.linalg.norm(xs, axis=(1, 2))
    near = fro > radius * (1.0 - _BALL_SCREEN_SLACK)
    return bool(near.any()) and float(np.max(spectral_norm(xs[near]))) > radius


@dataclass
class RunResult:
    """Full trajectory diagnostics plus the post-run report draw."""

    algorithm: str
    horizon: int
    seed: int
    mixing_rate: float
    rows: list
    iota: int
    grad_nuclear_at_iota: float
    avg_grad_nuclear_mean: float
    consensus_violations: int
    max_tracking_residual: float
    max_avg_iterate_residual: float
    noise_alpha_moment: float
    ball_exited: bool


def run(
    algorithm: str,
    problem,
    mixing: MixingSpec,
    noise_model: NoiseModel,
    params,
    horizon: int | None = None,
    seed: int = 0,
    orthogonalizer: str = "svd",
    sink=None,
) -> RunResult:
    """Execute K synchronous rounds from X = 0 and report per-iteration diagnostics.

    A tracked algorithm run on a `theoretical_schedule` also reports each
    round's potential, weighted by `diagnostics.theorem_potential_params`.
    The reported iteration index is drawn uniformly from {0, ..., K-1} once,
    after the loop, from a substream of `seed`, so the trajectory does not
    depend on the draw. `sink`, when given, receives each MetricsRow as it
    is produced.
    """
    tracked = algorithm in TRACKER_ALGORITHMS
    expected = ScheduleParams if tracked else BaselineParams
    if not isinstance(params, expected):
        raise TypeError(f"{algorithm} expects {expected.__name__}")
    if horizon is None:
        horizon = params.horizon if tracked else None
    if horizon is None or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    if tracked and params.derived_from_theorem and horizon != params.horizon:
        raise ValueError(
            f"theorem schedule was derived for K={params.horizon}, cannot run K={horizon}"
        )
    if problem.n_nodes != mixing.n_nodes:
        raise ValueError(
            f"problem has {problem.n_nodes} nodes but mixing matrix has {mixing.n_nodes}"
        )

    x0 = np.zeros((problem.m, problem.n))
    state = initial_state(algorithm, mixing.n_nodes, x0, orthogonalizer)
    bound = pot_weights = None
    if tracked:
        bound = diagnostics.consensus_bound(params.eta, mixing.mixing_rate, mixing.n_nodes)
        if params.derived_from_theorem:
            pot_weights = diagnostics.theorem_potential_params(
                params.horizon, params.alpha, mixing.mixing_rate
            )

    rows = []
    violations = 0
    max_track = 0.0
    max_ave_resid = 0.0
    noise_moment_sum = 0.0
    noise_draws = 0
    ball_exited = False

    for _ in range(horizon):
        t0 = time.perf_counter()
        x_prev = state.x
        x_mean_prev = x_prev.mean(axis=0)
        state, info = step(state, problem, mixing, noise_model, params)
        k = state.iter - 1

        # A round just short of divergence can overflow its diagnostics; the row
        # then reads inf, and the next round, if any, raises Diverged.
        with np.errstate(over="ignore", invalid="ignore"):
            grads = info["exact_grads"]
            avg_grad = grads.mean(axis=0)
            objective = problems.objective_at(problem, x_mean_prev)
            cons_x = diagnostics.consensus_error(x_prev)
            if bound is not None and cons_x > bound + 1e-9:
                violations += 1

            tracking = cons_v = pot = None
            if tracked:
                tracking = float(np.linalg.norm(state.v.mean(axis=0) - state.m.mean(axis=0)))
                cons_v = diagnostics.consensus_error_nuclear(state.v)
                max_track = max(max_track, tracking)
                if pot_weights is not None:
                    pot = diagnostics.potential(objective, grads, state.m, cons_v, pot_weights)
            applied = info["eta"] * info["directions"].mean(axis=0)
            resid = float(np.linalg.norm(state.x.mean(axis=0) - (x_mean_prev - applied)))
            max_ave_resid = max(max_ave_resid, resid)

            # One stacked SVD gives the mean gradient's nuclear norm and every noise draw's.
            nuclear = nuclear_norm(np.concatenate((avg_grad[None], info["noise"])))
            noise_moment_sum += float(np.sum(nuclear[1:] ** noise_model.alpha))
            noise_draws += state.n_nodes

        if not ball_exited and problem.ball_radius != float("inf"):
            if _outside_ball(state.x, problem.ball_radius):
                ball_exited = True
                warnings.warn(
                    f"iterates left the certified ball (radius {problem.ball_radius}) "
                    f"at iteration {k}; the smoothness constant no longer applies",
                    RuntimeWarning,
                    stacklevel=2,
                )

        row = MetricsRow(
            iter=k,
            consensus_error_x=cons_x,
            consensus_bound=bound,
            avg_grad_nuclear=float(nuclear[0]),
            tracking_residual=tracking,
            consensus_error_v=cons_v,
            potential=pot,
            objective_at_mean=objective,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
        )
        rows.append(row)
        if sink is not None:
            sink(row)

    report_rng = np.random.default_rng((seed, _REPORT_STREAM))
    iota = int(report_rng.integers(horizon))
    grad_norms = [row.avg_grad_nuclear for row in rows]
    moment = (noise_moment_sum / noise_draws) ** (1.0 / noise_model.alpha) if noise_draws else 0.0
    return RunResult(
        algorithm=algorithm,
        horizon=horizon,
        seed=seed,
        mixing_rate=mixing.mixing_rate,
        rows=rows,
        iota=iota,
        grad_nuclear_at_iota=grad_norms[iota],
        avg_grad_nuclear_mean=float(np.mean(grad_norms)),
        consensus_violations=violations,
        max_tracking_residual=max_track,
        max_avg_iterate_residual=max_ave_resid,
        noise_alpha_moment=moment,
        ball_exited=ball_exited,
    )
