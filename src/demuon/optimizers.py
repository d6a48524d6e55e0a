"""The decentralized matrix optimizer engine and its three baselines.

Each round is bulk-synchronous: the momentum stage runs for every node,
then the tracker stage (which reads every node's new momentum), then the
iterate stage (which reads every node's new tracker). Stages operate on
immutable snapshots, so per-node work within a stage is order-independent
and results do not depend on how it is parallelized. `run` holds one or
more lanes (algorithms on the same problem, mixing and noise model, each
with its own horizon) as one (L, N, m, n) stack and makes one `step` call
per round for all of them: one noise draw, one gradient call, one mix per
stage and one direction call per group of lanes that share a kernel. The
per-round diagnostics are computed a window of rounds at a time.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import diagnostics, linalg, problems
from .diagnostics import MetricsRow, node_mean
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
# `run` computes its per-round diagnostics a window of rounds at a time: the
# most rounds, at most _WINDOW_ROUNDS, whose held arrays fit _WINDOW_BYTES.
# On a 2-vCPU host (2 MiB of L2 per core) the run time fell from 128 KiB to
# 384 KiB and stayed flat to 1 MiB, while peak memory kept rising.
_WINDOW_ROUNDS = 64
_WINDOW_BYTES = 384 * 1024


class Diverged(ValueError):
    """A round produced a non-finite iterate, momentum or tracker.

    Carries the algorithm, the iteration (round) that produced the value,
    the first node holding one, and the quantity. Raised by `run`, it also
    carries `finished`, the results of the lanes before the diverging one,
    and `rows`, the diverging lane's rows of the rounds it finished.
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
        self.rows = []


@dataclass(frozen=True)
class ScheduleParams:
    """Step size and momentum weighting; one with a horizon is the theorem schedule for it.

    An explicit schedule has no horizon. The theorem schedule of a horizon
    K >= 4 (see `theoretical_schedule`) has eta = K^(-(2 alpha - 1)/(3 alpha - 2))
    and theta = K^(-alpha/(3 alpha - 2)) exactly, and its lane runs K rounds.
    """

    eta: float
    theta: float
    horizon: int | None = None
    alpha: float = 2.0

    def __post_init__(self):
        # Each message starts with the offending field's name.
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.horizon is not None:
            if self.horizon < 4:
                raise ValueError(f"theorem schedule needs horizon >= 4, got {self.horizon}")
            eta, theta, _ = diagnostics._theorem_powers(self.horizon, self.alpha)
            if self.eta != eta or self.theta != theta:
                raise ValueError(f"horizon {self.horizon} is set, but eta and theta are not its power law")


def theoretical_schedule(horizon: int, alpha: float = 2.0) -> ScheduleParams:
    """Power-law (eta, theta) for a given horizon K >= 4 and tail index alpha."""
    if horizon < 4:
        raise ValueError(f"theorem schedule needs horizon >= 4, got {horizon}")
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    eta, theta, _ = diagnostics._theorem_powers(horizon, alpha)
    return ScheduleParams(eta, theta, horizon, alpha)


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
    """The per-node (X, M, V) of a lane stack entering round `iter`: (L, N, m, n) stacks.

    x holds the iterates X^k; m and v hold the previous round's momenta and
    trackers (M^{k-1}, V^{k-1}), both zero before the first round; an
    untracked lane keeps zero momenta and trackers. `lanes` holds the `Lane`
    of each stack entry, in stack order.
    """

    iter: int
    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    lanes: tuple

    @property
    def n_nodes(self) -> int:
        return self.x.shape[-3]

    def take(self, idx) -> RunState:
        """The state of the lanes at the ascending positions `idx`; the stacks are views where those are consecutive."""
        index = _lanes(idx)
        return RunState(self.iter, self.x[index], self.m[index], self.v[index], tuple(self.lanes[j] for j in idx))


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


def initial_state(lanes, n_nodes: int, x0: np.ndarray) -> RunState:
    """Every lane's state at a common starting point: each node at `x0`, momenta and trackers zero."""
    lanes = tuple(lanes)
    try:
        x0 = linalg.as_matrix(x0)
    except ValueError as exc:
        raise ValueError(f"starting point must be one finite m x n matrix: {exc}") from exc
    shape = (len(lanes), n_nodes) + x0.shape
    return RunState(0, np.broadcast_to(x0, shape).copy(), np.zeros(shape), np.zeros(shape), lanes)


def _first_failure(k: int, lanes: tuple, **stacks) -> tuple[int, Diverged | None]:
    """(lanes before the first lane holding a non-finite value, that lane's Diverged or None).

    The stacks are (L, N, m, n); a lane's quantities are checked in the order given.
    """
    for stack in stacks.values():
        if not np.isfinite(stack).all():
            break
    else:
        return len(lanes), None
    finite = {quantity: np.isfinite(stack).all(axis=(-2, -1)) for quantity, stack in stacks.items()}
    lane = int(np.argmin(np.logical_and.reduce([nodes.all(axis=1) for nodes in finite.values()])))
    quantity, nodes = next((q, nodes[lane]) for q, nodes in finite.items() if not nodes[lane].all())
    return lane, Diverged(lanes[lane].algorithm, k, int(np.argmin(nodes)), quantity)


def _polar_directions(v: np.ndarray, orthogonalizer: tuple) -> np.ndarray:
    """Polar factor of every node's tracker in one stacked call; a zero tracker gives a zero step."""
    kind, iters = orthogonalizer
    if kind == "svd":
        return msgn_exact(v)
    dirs = np.zeros_like(v)
    live = v.any(axis=(-2, -1))
    if live.any():
        dirs[live] = msgn_newton_schulz(v[live], iters)
    return dirs


def _normalized_directions(v: np.ndarray) -> np.ndarray:
    """V_i/||V_i||_F for every node, zero where V_i = 0."""
    norms = np.linalg.norm(v, axis=(-2, -1), keepdims=True)
    return np.divide(v, norms, out=np.zeros_like(v), where=norms > 0.0)


def clip_to_frobenius(g: np.ndarray, tau) -> np.ndarray:
    """Scale g onto the Frobenius ball of radius tau when it lands outside.

    `g` may be a stack of matrices; each one is clipped on its own, and g
    itself is returned when every matrix already lies inside. `tau` may be
    an array that broadcasts against the stack (one radius per lane); a
    matrix inside its ball is then scaled by exactly 1.
    """
    norms = np.linalg.norm(g, axis=(-2, -1), keepdims=True)
    if (norms <= tau).all():
        return g
    return g * (tau / np.maximum(norms, tau))


def _round_schedule(lane: Lane, k: int) -> tuple[float, float | None]:
    """(eta_k, tau_k) of the lane's round k; tau_k is the clipping radius, None when nothing is clipped.

    dsgd_clip decays eta_k = eta/(k+1) and grows tau_k = tau*(k+1)^(2/5);
    every other algorithm keeps a constant step.
    """
    params = lane.params
    if lane.algorithm == DSGD_CLIP:
        return params.clip_eta / (k + 1), params.clip_tau * (k + 1) ** 0.4
    if lane.algorithm == DSGD:
        return params.dsgd_eta, None
    return params.eta, None


def _lanes(idx):
    """Index of the ascending lane positions `idx`: a slice (so a view) when they are consecutive, else a list."""
    if not idx:
        return slice(0)
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else list(idx)


def _per_lane(values):
    """One scalar per lane, shaped (L, 1, 1, 1) to broadcast against a lane stack; a float when all are equal."""
    if len(set(values)) == 1:
        return values[0]
    return np.array(values, dtype=float).reshape(-1, 1, 1, 1)


@functools.lru_cache(maxsize=64)
def _layout(kinds: tuple) -> tuple:
    """(tracked lane positions, kernel groups) of a lane stack, worked out once per composition.

    `kinds` holds each lane's (algorithm, orthogonalizer) pair, all that the
    layout depends on, so lanes that differ only in parameters or horizon
    share one cache entry. Lanes of one kind form a group that shares one
    direction call; a group is (algorithm, parsed orthogonalizer, its lane
    positions, their index).
    """
    tracked = tuple(i for i, (algorithm, _) in enumerate(kinds) if algorithm in TRACKER_ALGORITHMS)
    groups = {}
    for i, kind in enumerate(kinds):
        groups.setdefault(kind, []).append(i)
    return tracked, tuple(
        (algorithm, parse_orthogonalizer(spec), idx, _lanes(idx)) for (algorithm, spec), idx in groups.items()
    )


def _directions(groups, v, grads, noise, schedules) -> np.ndarray:
    """Each lane's step direction: its tracker (tracked lanes) or stochastic gradient, mapped by its kernel."""
    dirs = None
    for algorithm, polar, idx, lanes in groups:
        if algorithm == DEMUON:
            out = _polar_directions(v[lanes], polar)
        elif algorithm == GT_NSGDM:
            out = _normalized_directions(v[lanes])
        elif algorithm == DSGD_CLIP:
            out = clip_to_frobenius(grads[lanes] + noise, _per_lane([schedules[i][1] for i in idx]))
        else:
            out = grads[lanes] + noise
        if len(groups) == 1:
            return out
        if dirs is None:
            dirs = np.empty((len(schedules),) + v.shape[1:])
        dirs[lanes] = out
    return dirs


def step(state: RunState, problem, mixing: MixingSpec, noise_model: NoiseModel):
    """One synchronous round of every lane of a lane stack.

    Each lane's algorithm, orthogonalizer and parameters come from
    `state.lanes`. The round draws the noise once, takes every lane's
    gradients in one call, mixes the trackers and the iterates in one call
    each, and makes one direction call per group of lanes that share a
    kernel. Returns the next state of the lanes before the first lane whose
    round is non-finite, and the round record: `exact_grads` (every lane),
    `noise`, the kept lanes' `directions`, `eta` and `tau` (lists, one per
    kept lane; tau is None where nothing is clipped), and `failure`, that
    first non-finite lane's Diverged or None. It never raises Diverged.
    """
    k, lanes = state.iter, state.lanes
    noise = sample_noise(noise_model, problem.m, problem.n, state.n_nodes, k)
    schedules = [_round_schedule(lane, k) for lane in lanes]
    kinds = tuple((lane.algorithm, lane.orthogonalizer) for lane in lanes)
    tracked, groups = _layout(kinds)
    m, v = state.m, state.v
    # A diverging round overflows on its way to inf/nan; _first_failure names it instead.
    with np.errstate(over="ignore", invalid="ignore"):
        grads = problems.exact_gradient(problem, None, state.x)
        if len(tracked) == len(lanes):
            m, v = _track(m, v, grads + noise, _per_lane([lane.params.theta for lane in lanes]), mixing)
        elif tracked:
            idx = _lanes(tracked)
            m, v = m.copy(), v.copy()
            theta = _per_lane([lanes[i].params.theta for i in tracked])
            m[idx], v[idx] = _track(state.m[idx], state.v[idx], grads[idx] + noise, theta, mixing)
        # Only the lanes before the first failing one go on (a lane stack is a prefix).
        nxt = RunState(k + 1, state.x, m, v, lanes)
        kept, failure = _first_failure(k, lanes, momentum=m, tracker=v)
        if failure is not None:
            nxt, schedules, groups = nxt.take(range(kept)), schedules[:kept], _layout(kinds[:kept])[1]
        if kept:
            dirs = _directions(groups, nxt.v, grads, noise, schedules)
            stepped = _per_lane([eta for eta, _ in schedules]) * dirs
            nxt = replace(nxt, x=mix_blocks(mixing.weights, np.subtract(nxt.x, stepped, out=stepped)))
        else:
            dirs = nxt.v
    kept, failure_x = _first_failure(k, nxt.lanes, iterate=nxt.x)
    if failure_x is not None:
        failure = failure_x
        nxt, schedules, dirs = nxt.take(range(kept)), schedules[:kept], dirs[:kept]
    etas, taus = [eta for eta, _ in schedules], [tau for _, tau in schedules]
    return nxt, {"exact_grads": grads, "noise": noise, "directions": dirs, "eta": etas, "tau": taus, "failure": failure}


def _track(m: np.ndarray, v: np.ndarray, stochastic_grads: np.ndarray, theta, mixing: MixingSpec):
    """The momentum and tracker stages of tracked lanes: (M^k, V^k) from (M^{k-1}, V^{k-1}).

    M^k = (1 - theta) M^{k-1} + theta G and V^k = W (V^{k-1} + M^k - M^{k-1}),
    formed in place where that gives the same floats: on a lane stack every
    extra temporary costs allocator work.
    """
    m_new = (1.0 - theta) * m
    m_new += theta * stochastic_grads
    v_new = v + m_new
    v_new -= m
    return m_new, mix_blocks(mixing.weights, v_new)


def _outside_ball(xs: np.ndarray, radius: float) -> np.ndarray:
    """For each lane of an (L, N, m, n) stack, whether some node's iterate has spectral norm above `radius`.

    ||X||_2 <= ||X||_F, so only nodes whose Frobenius norm exceeds the
    radius (less a rounding slack) can be outside; only those are decomposed.
    """
    near = np.linalg.norm(xs, axis=(-2, -1)) > radius * (1.0 - _BALL_SCREEN_SLACK)
    outside = np.zeros(near.shape, dtype=bool)
    if near.any():
        outside[near] = spectral_norm(xs[near]) > radius
    return outside.any(axis=1)


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
    """One algorithm of a `run`: its parameters, polar kernel and horizon.

    `params` is a ScheduleParams for the tracked algorithms (demuon,
    gt_nsgdm) and a BaselineParams for dsgd and dsgd_clip. `horizon` is the
    number of rounds the lane runs; None takes a theorem schedule's horizon.
    """

    algorithm: str
    params: ScheduleParams | BaselineParams
    orthogonalizer: str = "svd"
    horizon: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        expected = ScheduleParams if self.algorithm in TRACKER_ALGORITHMS else BaselineParams
        if not isinstance(self.params, expected):
            raise TypeError(f"{self.algorithm} expects {expected.__name__}")
        parse_orthogonalizer(self.orthogonalizer)


def _lane_horizon(lane: Lane) -> int:
    """The rounds `lane` runs: its own horizon, else its theorem schedule's."""
    derived = lane.params.horizon if lane.algorithm in TRACKER_ALGORITHMS else None
    k = derived if lane.horizon is None else lane.horizon
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"horizon must be a positive integer, got {k}")
    if derived is not None and k != derived:
        raise ValueError(f"theorem schedule was derived for K={derived}, cannot run K={k}")
    return k


class _LaneRun:
    """A lane's horizon and running diagnostics inside `run`."""

    def __init__(self, lane: Lane, horizon: int, mixing: MixingSpec):
        self.lane, self.horizon = lane, horizon
        self.tracked = lane.algorithm in TRACKER_ALGORITHMS
        self.bound = self.pot_weights = None
        if self.tracked:
            params = lane.params
            self.bound = diagnostics.consensus_bound(params.eta, mixing.mixing_rate, mixing.n_nodes)
            if params.horizon is not None:
                self.pot_weights = diagnostics.theorem_potential_params(
                    params.horizon, params.alpha, mixing.mixing_rate
                )
        self.rows = []
        self.violations = 0
        self.max_track = 0.0
        self.max_ave_resid = 0.0
        self.ball_exit = None  # the warning of the first round that left the ball
        self.moment_sum = None  # the running noise-moment sum when the lane retired

    def result(self, mixing: MixingSpec, noise_model: NoiseModel) -> RunResult:
        # Each lane draws its report index as a one-lane run of its horizon would.
        seed = noise_model.base_seed
        iota = int(np.random.default_rng((seed, _REPORT_STREAM)).integers(self.horizon))
        grad_norms = [row.avg_grad_nuclear for row in self.rows]
        return RunResult(
            algorithm=self.lane.algorithm,
            horizon=self.horizon,
            seed=seed,
            mixing_rate=mixing.mixing_rate,
            rows=self.rows,
            iota=iota,
            grad_nuclear_at_iota=grad_norms[iota],
            avg_grad_nuclear_mean=float(np.mean(grad_norms)),
            consensus_violations=self.violations,
            max_tracking_residual=self.max_track,
            max_avg_iterate_residual=self.max_ave_resid,
            noise_alpha_moment=(self.moment_sum / (self.horizon * mixing.n_nodes)) ** (1.0 / noise_model.alpha),
            ball_exited=self.ball_exit is not None,
        )


class _Pending(NamedTuple):
    """A round whose rows `run` has yet to build: its entering iterates, the state and record of its step."""

    x_prev: np.ndarray
    state: RunState
    info: dict
    step_s: float


def _stacked(arrays) -> np.ndarray:
    """The arrays stacked on a new leading axis; a lone array as a view with that axis, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _window_rounds(state: RunState, info: dict) -> int:
    """The rounds a window holds: the most, up to `_WINDOW_ROUNDS`, whose arrays fit `_WINDOW_BYTES`."""
    arrays = (state.x, state.m, state.v, info["exact_grads"], info["noise"], info["directions"])
    return max(1, min(_WINDOW_ROUNDS, _WINDOW_BYTES // sum(a.nbytes for a in arrays)))


def _power(base: float, exponent: float) -> float:
    """base ** exponent by Python's `**` for a nonnegative base; inf where that overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _window_rows(live, problem, window, alpha: float, moment_sum: float) -> float:
    """Record every live lane's rows of the pending rounds in `window`; returns the updated noise-moment sum.

    Every round of a window has the same live lanes. Each diagnostic is one
    call for all rounds and lanes: the consensus errors, the mean-gradient and
    noise nuclear norms, the ball check, the objective at the mean, the
    tracking and mean-iterate residuals (`linalg._frobenius`, bit for bit the
    per-matrix norms) and the potential. Each row holds its slice.
    """
    if not window:
        return moment_sum
    t0 = time.perf_counter()
    n_rounds, kept = len(window), len(live)
    iters = [r.state.iter - 1 for r in window]
    tracked = [j for j, lane_run in enumerate(live) if lane_run.tracked]
    # A tracked lane's position among the tracked lanes, and a theorem lane's among the theorem lanes.
    slot = {j: t for t, j in enumerate(tracked)}
    theorem = [j for j in tracked if live[j].pot_weights is not None]
    pot_slot = {j: t for t, j in enumerate(theorem)}
    # A round just short of divergence can overflow its diagnostics; the row
    # then reads inf, and the next round, if any, raises Diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        x_prev = _stacked([r.x_prev for r in window])
        x = _stacked([r.state.x for r in window])
        nodes = x.shape[-3:]
        x_mean_prev = node_mean(x_prev, keepdims=True)
        cons_x = diagnostics.consensus_error(x_prev.reshape(-1, *nodes)).reshape(n_rounds, kept).tolist()
        eta = np.array([r.info["eta"] for r in window]).reshape(n_rounds, kept, 1, 1, 1)
        applied = eta * node_mean(_stacked([r.info["directions"] for r in window]), keepdims=True)
        resid = node_mean(x, keepdims=True) - (x_mean_prev - applied)
        resid = linalg._frobenius(resid[:, :, 0]).tolist()
        # One stacked call gives every lane's mean-gradient norm and every noise draw's.
        grads = _stacked([r.info["exact_grads"][:kept] for r in window])
        noise = _stacked([r.info["noise"] for r in window])
        nuclear = nuclear_norm(np.concatenate([node_mean(grads), noise], axis=1).reshape(-1, *nodes[1:]))
        nuclear = nuclear.reshape(n_rounds, -1)
        objective = problems.objective_at(problem, x_mean_prev[:, :, 0])
        if tracked:
            lanes = _lanes(tracked)
            v = _stacked([r.state.v[lanes] for r in window])
            m = _stacked([r.state.m[lanes] for r in window])
            tracking = linalg._frobenius(node_mean(v) - node_mean(m)).tolist()
            cons_v = diagnostics.consensus_error_nuclear(v.reshape(-1, *nodes)).reshape(n_rounds, -1)
            if theorem:
                pots = diagnostics.potential(
                    objective[:, theorem],
                    grads[:, theorem],
                    m[:, [slot[j] for j in theorem]],
                    cons_v[:, [slot[j] for j in theorem]],
                    [live[j].pot_weights for j in theorem],
                ).tolist()
            cons_v = cons_v.tolist()
        if problem.ball_radius != float("inf"):
            watched = [j for j, lane_run in enumerate(live) if lane_run.ball_exit is None]
            if watched:
                xw = x[:, _lanes(watched)]
                outside = _outside_ball(xw.reshape(-1, *nodes), problem.ball_radius).reshape(n_rounds, -1)
                for j, exits in zip(watched, outside.T):
                    if exits.any():
                        live[j].ball_exit = (
                            f"iterates left the certified ball (radius {problem.ball_radius}) "
                            f"at iteration {iters[int(np.argmax(exits))]}; the smoothness constant no longer applies"
                        )
        nuclear, objective = nuclear.tolist(), objective.tolist()
    # Python's `**` (libm's pow), as in `diagnostics.potential`: numpy's power
    # loop takes a SIMD path on some CPUs, so its last bits depend on the host.
    noise_powers = [[_power(norm, alpha) for norm in row[kept:]] for row in nuclear]
    diagnostics_s = (time.perf_counter() - t0) / n_rounds
    for w, pending in enumerate(window):
        wall_ms = (pending.step_s + diagnostics_s) * 1e3 / kept
        for j, lane_run in enumerate(live):
            if lane_run.bound is not None and cons_x[w][j] > lane_run.bound + 1e-9:
                lane_run.violations += 1
            track = consensus_v = pot = None
            if lane_run.tracked:
                track, consensus_v = tracking[w][slot[j]], cons_v[w][slot[j]]
                lane_run.max_track = max(lane_run.max_track, track)
                if j in pot_slot:
                    pot = pots[w][pot_slot[j]]
            lane_run.max_ave_resid = max(lane_run.max_ave_resid, resid[w][j])
            lane_run.rows.append(
                MetricsRow(iters[w], cons_x[w][j], lane_run.bound, nuclear[w][j], track, consensus_v, pot,
                           objective[w][j], wall_time_ms=wall_ms)
            )
        # One round at a time, as the rounds ran: one sum over the window would round differently.
        moment_sum += float(np.add.reduce(noise_powers[w]))
    window.clear()
    return moment_sum


def run(lanes, problem, mixing: MixingSpec, noise_model: NoiseModel) -> list[RunResult]:
    """Run every lane from X = 0 for its horizon and report per-iteration diagnostics.

    The lanes share the problem, mixing and noise model. Each lane runs its
    own horizon (see `Lane`) and retires when it is reached. The live lanes
    form one (L, N, m, n) stack: each round is one `step` call for all of
    them (one noise draw, see `step`). The rows are built a window of rounds
    at a time (see `_window_rows`): every diagnostic that is a norm of a
    stack, and the objective at the mean, is one call for the window's rounds
    and lanes. A window is the most rounds, at most `_WINDOW_ROUNDS`, whose
    arrays fit `_WINDOW_BYTES`; it also ends when a lane retires or fails.
    The rows do not depend on the window. Returns one RunResult per lane, in
    lane order, each equal field for field to a one-lane run of that lane.

    A tracked lane on a `theoretical_schedule` also reports each round's
    potential, weighted by `diagnostics.theorem_potential_params`. A lane's
    reported iteration index is drawn uniformly from {0, ..., K-1}, K its
    horizon, once, after the loop, from a substream of the noise model's
    `base_seed`, which is also the result's `seed`, so the trajectory does
    not depend on the draw. Its noise moment covers the draws of its own K
    rounds.

    Divergence has the outcome of running the lanes one after another: the
    lanes before the first diverging lane run to their horizons, the lanes
    after it are dropped, and its Diverged is raised with `finished`
    holding the results of the lanes before it and `rows` its own rows of
    the rounds it finished. The ball-exit RuntimeWarnings of the kept lanes
    are emitted, in lane order, when the pass ends.
    """
    lanes = list(lanes)
    if not lanes:
        raise ValueError("run needs at least one lane")
    runs = [_LaneRun(lane, _lane_horizon(lane), mixing) for lane in lanes]
    if problem.n_nodes != mixing.n_nodes:
        raise ValueError(
            f"problem has {problem.n_nodes} nodes but mixing matrix has {mixing.n_nodes}"
        )
    state = initial_state(lanes, mixing.n_nodes, np.zeros((problem.m, problem.n)))
    live = runs
    failure = failed = None
    moment_sum = 0.0
    window = []
    while live:
        t0 = time.perf_counter()
        x_prev = state.x
        state, info = step(state, problem, mixing, noise_model)
        kept = len(state.lanes)
        if info["failure"] is not None:
            moment_sum = _window_rows(live, problem, window, noise_model.alpha, moment_sum)
            failure, failed = info["failure"], live[kept]
            live = live[:kept]
            if not live:
                break
        if not window:
            rounds = _window_rounds(state, info)
        window.append(_Pending(x_prev[:kept], state, info, time.perf_counter() - t0))
        del x_prev, info  # held by the window only, so a flush frees them
        retiring = any(lane_run.horizon == state.iter for lane_run in live)
        if retiring or len(window) == rounds:
            moment_sum = _window_rows(live, problem, window, noise_model.alpha, moment_sum)
        if retiring:
            for lane_run in live:
                if lane_run.horizon == state.iter:
                    lane_run.moment_sum = moment_sum
            keep = [j for j, lane_run in enumerate(live) if lane_run.horizon > state.iter]
            state, live = state.take(keep), [live[j] for j in keep]

    kept_runs = runs[: runs.index(failed)] if failure is not None else runs
    for lane_run in runs[: len(kept_runs) + (failure is not None)]:
        if lane_run.ball_exit is not None:
            warnings.warn(lane_run.ball_exit, RuntimeWarning, stacklevel=2)
    results = [lane_run.result(mixing, noise_model) for lane_run in kept_runs]
    if failure is not None:
        failure.finished, failure.rows = results, failed.rows
        raise failure
    return results
