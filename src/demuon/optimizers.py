"""The decentralized matrix optimizer engine and its three baselines.

Each round is bulk-synchronous: the momentum stage runs for every node,
then the tracker stage (which reads every node's new momentum), then the
iterate stage (which reads every node's new tracker). Stages operate on
immutable snapshots, so per-node work within a stage is order-independent
and results do not depend on how it is parallelized. `run` advances one or
more lanes (algorithms on the same problem, mixing, noise, horizon and
seed) in lockstep, so each round's noise is drawn and measured once.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable

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
    the first node holding one, and the quantity. Raised by `run`, it also
    carries `finished`, the results of the lanes before the diverging one.
    """

    def __init__(self, algorithm: str, iteration: int, node: int, quantity: str):
        super().__init__(
            f"{algorithm} diverged at iteration {iteration}: node {node} has a non-finite {quantity}"
        )
        self.algorithm = algorithm
        self.iteration = iteration
        self.node = node
        self.quantity = quantity
        self.finished = []

    def __reduce__(self):
        # Rebuilt from its fields, `finished` included, so it survives the trip back from a sweep worker.
        return type(self), (self.algorithm, self.iteration, self.node, self.quantity), self.__dict__


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
        # Each message starts with the offending field's name.
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.derived_from_theorem:
            if self.horizon < 4:
                raise ValueError(f"theorem schedule needs horizon >= 4, got {self.horizon}")
            eta, theta, _ = diagnostics._theorem_powers(self.horizon, self.alpha)
            if self.eta != eta or self.theta != theta:
                raise ValueError("derived_from_theorem schedule does not match the power law")


def theoretical_schedule(horizon: int, alpha: float = 2.0) -> ScheduleParams:
    """Power-law (eta, theta) for a given horizon K >= 4 and tail index alpha."""
    if horizon < 4:
        raise ValueError(f"theorem schedule needs horizon >= 4, got {horizon}")
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    eta, theta, _ = diagnostics._theorem_powers(horizon, alpha)
    return ScheduleParams(eta, theta, horizon, alpha, derived_from_theorem=True)


@dataclass(frozen=True)
class BaselineParams:
    """Constant hyper-parameters of the two untracked baselines, dsgd and dsgd_clip."""

    dsgd_eta: float = 0.01
    clip_eta: float = 10.0
    clip_tau: float = 0.1

    def __post_init__(self):
        for name in ("dsgd_eta", "clip_eta", "clip_tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


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
    """Parse 'svd' or 'ns:<iters>' into (kind, iters).

    Only the canonical spelling of a positive count is accepted (no sign,
    padding, zeros in front, underscores or non-ASCII digits), so one
    computation has one spelling and one run id.
    """
    if spec == "svd":
        return "svd", 0
    digits = spec[3:]
    if spec.startswith("ns:") and digits.isascii() and digits.isdigit() and digits[0] != "0":
        return "ns", int(digits)
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


@dataclass(frozen=True)
class Lane:
    """One algorithm of a `run`: its parameters, polar kernel and row sink.

    `params` is a ScheduleParams for the tracked algorithms (demuon,
    gt_nsgdm) and a BaselineParams for dsgd and dsgd_clip. `sink`, when
    given, receives each of the lane's MetricsRows as it is produced.
    """

    algorithm: str
    params: ScheduleParams | BaselineParams
    orthogonalizer: str = "svd"
    sink: Callable[[MetricsRow], object] | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        expected = ScheduleParams if self.algorithm in TRACKER_ALGORITHMS else BaselineParams
        if not isinstance(self.params, expected):
            raise TypeError(f"{self.algorithm} expects {expected.__name__}")


class _LaneRun:
    """A lane's state and running diagnostics inside `run`."""

    def __init__(self, lane: Lane, problem, mixing: MixingSpec):
        self.lane = lane
        x0 = np.zeros((problem.m, problem.n))
        self.state = initial_state(lane.algorithm, mixing.n_nodes, x0, lane.orthogonalizer)
        self.tracked = lane.algorithm in TRACKER_ALGORITHMS
        self.bound = self.pot_weights = None
        if self.tracked:
            params = lane.params
            self.bound = diagnostics.consensus_bound(params.eta, mixing.mixing_rate, mixing.n_nodes)
            if params.derived_from_theorem:
                self.pot_weights = diagnostics.theorem_potential_params(
                    params.horizon, params.alpha, mixing.mixing_rate
                )
        self.rows = []
        self.violations = 0
        self.max_track = 0.0
        self.max_ave_resid = 0.0
        self.ball_exit = None  # the warning of the first round that left the ball
        self._row = None  # the round's row fields, waiting for its mean-gradient norm
        self._elapsed = 0.0

    def advance(self, problem, mixing: MixingSpec, noise_model: NoiseModel):
        """Step one round and take its diagnostics; return (mean gradient, noise stack)."""
        t0 = time.perf_counter()
        x_prev = self.state.x
        x_mean_prev = x_prev.mean(axis=0)
        self.state, info = step(self.state, problem, mixing, noise_model, self.lane.params)
        state = self.state
        k = state.iter - 1

        # A round just short of divergence can overflow its diagnostics; the row
        # then reads inf, and the next round, if any, raises Diverged.
        with np.errstate(over="ignore", invalid="ignore"):
            grads = info["exact_grads"]
            avg_grad = grads.mean(axis=0)
            objective = problems.objective_at(problem, x_mean_prev)
            cons_x = diagnostics.consensus_error(x_prev)
            if self.bound is not None and cons_x > self.bound + 1e-9:
                self.violations += 1

            tracking = cons_v = pot = None
            if self.tracked:
                tracking = float(np.linalg.norm(state.v.mean(axis=0) - state.m.mean(axis=0)))
                cons_v = diagnostics.consensus_error_nuclear(state.v)
                self.max_track = max(self.max_track, tracking)
                if self.pot_weights is not None:
                    pot = diagnostics.potential(objective, grads, state.m, cons_v, self.pot_weights)
            applied = info["eta"] * info["directions"].mean(axis=0)
            resid = float(np.linalg.norm(state.x.mean(axis=0) - (x_mean_prev - applied)))
            self.max_ave_resid = max(self.max_ave_resid, resid)

        if self.ball_exit is None and problem.ball_radius != float("inf"):
            if _outside_ball(state.x, problem.ball_radius):
                self.ball_exit = (
                    f"iterates left the certified ball (radius {problem.ball_radius}) "
                    f"at iteration {k}; the smoothness constant no longer applies"
                )

        self._row = dict(
            iter=k,
            consensus_error_x=cons_x,
            consensus_bound=self.bound,
            tracking_residual=tracking,
            consensus_error_v=cons_v,
            potential=pot,
            objective_at_mean=objective,
        )
        self._elapsed = time.perf_counter() - t0
        return avg_grad, info["noise"]

    def record(self, avg_grad_nuclear: float, shared_s: float):
        """Finish the round's row with its mean-gradient norm and its share of the shared time."""
        row = MetricsRow(
            **self._row,
            avg_grad_nuclear=float(avg_grad_nuclear),
            wall_time_ms=(self._elapsed + shared_s) * 1e3,
        )
        self.rows.append(row)
        if self.lane.sink is not None:
            self.lane.sink(row)

    def result(self, horizon: int, seed: int, mixing_rate: float, iota: int, moment: float) -> RunResult:
        grad_norms = [row.avg_grad_nuclear for row in self.rows]
        return RunResult(
            algorithm=self.lane.algorithm,
            horizon=horizon,
            seed=seed,
            mixing_rate=mixing_rate,
            rows=self.rows,
            iota=iota,
            grad_nuclear_at_iota=grad_norms[iota],
            avg_grad_nuclear_mean=float(np.mean(grad_norms)),
            consensus_violations=self.violations,
            max_tracking_residual=self.max_track,
            max_avg_iterate_residual=self.max_ave_resid,
            noise_alpha_moment=moment,
            ball_exited=self.ball_exit is not None,
        )


def run(
    lanes,
    problem,
    mixing: MixingSpec,
    noise_model: NoiseModel,
    horizon: int | None = None,
    seed: int = 0,
) -> list[RunResult]:
    """Execute K synchronous rounds of every lane from X = 0 and report per-iteration diagnostics.

    The lanes share the problem, mixing, noise model, horizon and seed, and
    advance in lockstep: each round steps every lane in order (its noise is
    drawn once, see `sample_noise`), then one stacked nuclear norm gives
    every lane's mean-gradient norm and the norms of the round's noise
    draws. Returns one RunResult per lane, each equal field for field to a
    one-lane run of that lane. `horizon` defaults to the lanes' common
    schedule horizon.

    A tracked lane on a `theoretical_schedule` also reports each round's
    potential, weighted by `diagnostics.theorem_potential_params`. The
    reported iteration index is drawn uniformly from {0, ..., K-1} once,
    after the loop, from a substream of `seed`, so the trajectory does not
    depend on the draw.

    Divergence has the outcome of running the lanes one after another: the
    lanes before the first diverging lane run to the horizon, the lanes
    after it are dropped, and its Diverged is raised with `finished`
    holding the results of the lanes before it. The ball-exit
    RuntimeWarnings of the kept lanes are emitted, in lane order, when the
    pass ends.
    """
    lanes = list(lanes)
    if not lanes:
        raise ValueError("run needs at least one lane")
    if horizon is None:
        defaults = {lane.params.horizon if lane.algorithm in TRACKER_ALGORITHMS else None for lane in lanes}
        horizon = defaults.pop() if len(defaults) == 1 else None
    if horizon is None or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    for lane in lanes:
        params = lane.params
        if lane.algorithm in TRACKER_ALGORITHMS and params.derived_from_theorem and horizon != params.horizon:
            raise ValueError(
                f"theorem schedule was derived for K={params.horizon}, cannot run K={horizon}"
            )
    if problem.n_nodes != mixing.n_nodes:
        raise ValueError(
            f"problem has {problem.n_nodes} nodes but mixing matrix has {mixing.n_nodes}"
        )

    runs = [_LaneRun(lane, problem, mixing) for lane in lanes]
    live = runs  # the lanes before the first diverging one
    failure = None
    noise_moment_sum = 0.0
    for _ in range(horizon):
        stepped = []
        for i, lane_run in enumerate(live):
            try:
                stepped.append(lane_run.advance(problem, mixing, noise_model))
            except Diverged as exc:
                failure, live = exc, live[:i]
                break
        if not live:
            break
        t0 = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            # One stacked call gives every lane's mean-gradient norm and every noise draw's.
            nuclear = nuclear_norm(np.concatenate([avg[None] for avg, _ in stepped] + [stepped[0][1]]))
            noise_moment_sum += float(np.sum(nuclear[len(live):] ** noise_model.alpha))
        shared_s = (time.perf_counter() - t0) / len(live)
        for lane_run, value in zip(live, nuclear):
            lane_run.record(value, shared_s)

    for lane_run in runs[: len(live) + (failure is not None)]:
        if lane_run.ball_exit is not None:
            warnings.warn(lane_run.ball_exit, RuntimeWarning, stacklevel=2)
    report_rng = np.random.default_rng((seed, _REPORT_STREAM))
    iota = int(report_rng.integers(horizon))
    moment = (noise_moment_sum / (horizon * mixing.n_nodes)) ** (1.0 / noise_model.alpha)
    results = [lane_run.result(horizon, seed, mixing.mixing_rate, iota, moment) for lane_run in live]
    if failure is not None:
        failure.finished = results
        raise failure
    return results
