"""The decentralized matrix optimizer engine and its three baselines.

Each round is bulk-synchronous: the momentum stage runs for every node,
then the tracker stage (which reads every node's new momentum), then the
iterate stage (which reads every node's new tracker). Stages operate on
immutable snapshots, so per-node work within a stage is order-independent
and results do not depend on how it is parallelized. `run` holds one or
more lanes (algorithms on the same problem, mixing and noise model, each
with its own horizon) as one (L, N, m, n) stack and makes one `step` call
per round for all of them: one noise draw, one gradient call, one mix per
stage and one direction call per kind of lane, its (tracked, kernel) pair
(see `_layout`). Every kernel that normalises (both polar factors, the unit
matrix and the clip) is scale-free: the zero matrix gives a zero
step, and no norm underflows or overflows at a finite scale. The
per-round diagnostics are computed a window of rounds at a time. `run`
owns one set of window stores per lane composition and hands `step` a slot
of them to write each round into, so a round allocates only its stepped
iterates and the kernels' temporaries; a direct `step` call writes into
fresh arrays. `step` raises the Diverged of a non-finite round; `run` alone
decides which lanes leave the stack.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diagnostics, linalg, problems
from .diagnostics import MetricsRow, node_mean
from .linalg import frobenius_norm, msgn_exact, msgn_newton_schulz, nuclear_norm, spectral_norm
from .noise import NoiseModel, sample_noise
from .topology import MixingSpec, mix_blocks

# Each algorithm's row: whether its momentum is tracked, and the kernel that maps its tracker (tracked) or its
# stochastic gradient to its direction: `polar` is msgn by the lane's orthogonalizer, `unit` the unit-Frobenius
# matrix, `clip` the clip onto the round's ball and `raw` the identity.
_TABLE = {"demuon": (True, "polar"), "dsgd": (False, "raw"), "dsgd_clip": (False, "clip"), "gt_nsgdm": (True, "unit")}
ALGORITHMS = tuple(_TABLE)
TRACKER_ALGORITHMS = tuple(name for name, (tracked, _) in _TABLE.items() if tracked)

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
    the first node holding one, the quantity, and `lane`, the lane's
    position in the stack (`step`) or in the lanes passed (`run`). Raised by
    `run`, it also carries `finished`, the results of the lanes before the
    diverging one, and `rows`, the diverging lane's rows of the rounds it
    finished.
    """

    def __init__(self, algorithm: str, iteration: int, node: int, quantity: str, lane: int):
        super().__init__(
            f"{algorithm} diverged at iteration {iteration}: node {node} has a non-finite {quantity}"
        )
        self.algorithm = algorithm
        self.iteration = iteration
        self.node = node
        self.quantity = quantity
        self.lane = lane
        self.finished = []
        self.rows = []

    def __reduce__(self):
        # ValueError pickles only the message: rebuild from the fields, then restore the results.
        fields = (self.algorithm, self.iteration, self.node, self.quantity, self.lane)
        return type(self), fields, {"finished": self.finished, "rows": self.rows}


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
    if not lanes:
        raise ValueError("initial_state needs at least one lane")
    try:
        x0 = linalg.as_matrix(x0)
    except ValueError as exc:
        raise ValueError(f"starting point must be one finite m x n matrix: {exc}") from exc
    shape = (len(lanes), n_nodes) + x0.shape
    return RunState(0, np.broadcast_to(x0, shape).copy(), np.zeros(shape), np.zeros(shape), lanes)


def _raise_first_failure(k: int, lanes: tuple, **stacks) -> None:
    """Raise the Diverged of the first lane holding a non-finite value, if any.

    The stacks are (L, N, m, n); a lane's quantities are checked in the order given.
    """
    if all(np.isfinite(stack).all() for stack in stacks.values()):
        return
    finite = {quantity: np.isfinite(stack).all(axis=(-2, -1)) for quantity, stack in stacks.items()}
    lane = int(np.argmin(np.logical_and.reduce([nodes.all(axis=1) for nodes in finite.values()])))
    quantity, nodes = next((q, nodes[lane]) for q, nodes in finite.items() if not nodes[lane].all())
    raise Diverged(lanes[lane].algorithm, k, int(np.argmin(nodes)), quantity, lane)


def clip_to_frobenius(g: np.ndarray, tau) -> np.ndarray:
    """Scale g onto the Frobenius ball of radius tau when it lands outside.

    `g` may be a stack of matrices; each one is clipped on its own, and g
    itself is returned when every matrix already lies inside. `tau` may be
    an array that broadcasts against the stack (one radius per lane). A
    matrix inside its ball is kept bit for bit; one outside becomes tau
    times its `linalg._unit_frobenius`, at any finite scale.
    """
    g = np.asarray(g, dtype=float)  # an integer matrix would square in wrapping integers
    with np.errstate(over="ignore"):  # a norm that overflows is outside every ball
        inside = linalg._frobenius(g)[..., None, None] <= tau
    if inside.all():
        return g
    out = linalg._unit_frobenius(g)
    out *= tau
    np.copyto(out, g, where=inside)
    return out


def _round_schedule(lane: Lane, k: int) -> tuple[float, float | None]:
    """(eta_k, tau_k) of the lane's round k; tau_k is the clipping radius, None when nothing is clipped.

    The clip kernel decays eta_k = eta/(k+1) and grows tau_k = tau*(k+1)^(2/5);
    every other kernel keeps a constant step: eta when tracked, dsgd_eta when not.
    """
    params = lane.params
    if lane.kernel[0] == "clip":
        return params.clip_eta / (k + 1), params.clip_tau * (k + 1) ** 0.4
    if not lane.tracked:
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


def _runs(keys) -> list:
    """(key, slice of its positions) of each maximal run of consecutive equal keys."""
    cuts = [0, *(i for i in range(1, len(keys)) if keys[i] != keys[i - 1]), len(keys)]
    return [(keys[a], slice(a, b)) for a, b in zip(cuts, cuts[1:])]


@functools.lru_cache(maxsize=64)
def _layout(kinds: tuple) -> tuple:
    """(tracked runs, direction groups) of a lane stack, worked out once per composition.

    `kinds` holds each lane's (tracked, kernel) pair, all that the layout
    depends on: an orthogonalizer counts only in a polar kernel. A maximal
    run of consecutive lanes of one kind, (kind, its slice), shares one
    direction call, and a maximal run of tracked lanes (a slice) one tracker
    mix; `run` stacks each kind together and the tracked lanes first.
    """
    tracked = tuple(lanes for on, lanes in _runs([on for on, _ in kinds]) if on)
    return tracked, tuple(_runs(kinds))


class _RoundBuffers(NamedTuple):
    """The arrays one `step` writes its round into: fresh ones, or a slot of `run`'s `_Stores`.

    `x`, `m` and `v` take the next state and `grads`, `noise` and
    `directions` the round record; until the iterates are written, `x` holds
    the stochastic gradients (a tracked lane's rows are `_track`'s scratch).
    All are (L, N, m, n) stacks but `noise`, (N, m, n). `step` writes only
    the tracked lanes' rows of `m` and `v`; the untracked lanes' rows hold
    the zeros that `allocate` and the stores start with. Both lay the
    buffers out apart from the entering state.
    """

    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grads: np.ndarray
    noise: np.ndarray
    directions: np.ndarray

    @classmethod
    def allocate(cls, shape: tuple) -> _RoundBuffers:
        """Fresh buffers for an (L, N, m, n) lane stack: momenta and trackers zero, the rest uninitialised."""
        return cls(np.empty(shape), np.zeros(shape), np.zeros(shape), np.empty(shape), np.empty(shape[1:]),
                   np.empty(shape))


def _directions(groups, v, stochastic, schedules, dirs: np.ndarray) -> np.ndarray:
    """Each lane's step direction, written to `dirs`: one kernel call per group of `_layout`.

    The kernel maps the lane's tracker (its row of `v`) when it is tracked, else its stochastic gradient.
    """
    for (tracked, (kernel, polar)), lanes in groups:
        source, target = (v if tracked else stochastic)[lanes], dirs[lanes]
        got = source  # the raw kernel
        if kernel == "polar":
            got = msgn_exact(source, out=target) if polar[0] == "svd" else msgn_newton_schulz(source, polar[1])
        elif kernel == "unit":
            got = linalg._unit_frobenius(source, out=target)
        elif kernel == "clip":
            got = clip_to_frobenius(source, _per_lane([tau for _, tau in schedules[lanes]]))
        if got is not target:  # Newton-Schulz, the clip and the identity take no `out`
            target[...] = got
    return dirs


def step(state: RunState, problem, mixing: MixingSpec, noise_model: NoiseModel, out: _RoundBuffers | None = None):
    """One synchronous round of every lane of a lane stack.

    Each lane's row of the table and parameters come from `state.lanes`. The
    round draws the noise once, takes every lane's gradients and stochastic
    gradients and mixes the iterates in one call each, and mixes the trackers
    and takes the directions in one call per run of lanes that share the
    stage (see `_layout`). Returns the next state and the round record:
    `exact_grads`, `noise`, `directions`, and `eta` and `tau` (lists, one
    per lane; tau is None where nothing is clipped).

    The round is written into fresh arrays. `out` is for `run`, which passes
    a slot of its own round buffers; anything else raises TypeError. The
    entering state is only read, so a round that fails leaves it as it was.

    A non-finite round raises the Diverged of its first non-finite lane
    (`Diverged.lane` is its stack position): the momenta and trackers of
    every lane are checked before any direction is taken, then the iterates.
    """
    k, lanes = state.iter, state.lanes
    if out is None:
        out = _RoundBuffers.allocate(state.x.shape)
    elif not isinstance(out, _RoundBuffers):
        raise TypeError(f"out must be one of run's round buffers, got {type(out).__name__}")
    noise = sample_noise(noise_model, problem.m, problem.n, state.n_nodes, k, out=out.noise)
    schedules = [_round_schedule(lane, k) for lane in lanes]
    tracked, groups = _layout(tuple((lane.tracked, lane.kernel) for lane in lanes))
    # A diverging round overflows on its way to inf/nan; _raise_first_failure names it instead.
    with np.errstate(over="ignore", invalid="ignore"):
        grads = problems.exact_gradient(problem, state.x, out=out.grads)
        stochastic = np.add(grads, noise, out=out.x)
        for idx in tracked:
            theta = _per_lane([lane.params.theta for lane in lanes[idx]])
            _track(state.m[idx], state.v[idx], stochastic[idx], theta, mixing, out.m[idx], out.v[idx])
        _raise_first_failure(k, lanes, momentum=out.m, tracker=out.v)
        dirs = _directions(groups, out.v, stochastic, schedules, out.directions)
        # A fresh stack that the mix frees: a buffer held for the run would add to the polar factor's and the
        # diagnostics' peak memory.
        stepped = _per_lane([eta for eta, _ in schedules]) * dirs
        x = mix_blocks(mixing.weights, np.subtract(state.x, stepped, out=stepped), out=out.x)
    _raise_first_failure(k, lanes, iterate=x)
    etas, taus = [eta for eta, _ in schedules], [tau for _, tau in schedules]
    record = {"exact_grads": grads, "noise": noise, "directions": dirs, "eta": etas, "tau": taus}
    return RunState(k + 1, x, out.m, out.v, lanes), record


def _track(m, v, stochastic_grads, theta, mixing: MixingSpec, m_new, v_out) -> None:
    """The momentum and tracker stages of tracked lanes: (M^k, V^k) from (M^{k-1}, V^{k-1}).

    M^k = (1 - theta) M^{k-1} + theta G and V^k = W (V^{k-1} + M^k - M^{k-1}),
    written to `m_new` and `v_out`. The stochastic gradients G are scratch:
    they are overwritten by the tracker's sum before the mix, which gives the
    same floats as fresh temporaries.
    """
    np.multiply(1.0 - theta, m, out=m_new)
    m_new += np.multiply(theta, stochastic_grads, out=stochastic_grads)
    v_new = np.add(v, m_new, out=stochastic_grads)
    v_new -= m
    mix_blocks(mixing.weights, v_new, out=v_out)


def _outside_ball(xs: np.ndarray, radius: float) -> np.ndarray:
    """For each set of an (..., N, m, n) stack, whether some node's iterate has spectral norm above `radius`.

    ||X||_2^2 is the largest eigenvalue of the short-side Gram G of X, so
    ||X||_2 <= sqrt(||G||_F) <= ||X||_F: only nodes whose Frobenius norm
    (`frobenius_norm`) and then whose Gram bound (`linalg._gram`, the norms'
    Gram) exceed the radius (less a rounding slack) can be outside, and only
    those are decomposed. The Gram bound is taken of X / radius, whose
    entries lie within a factor sqrt(m n) of 1 on the ball's edge, so it
    neither overflows nor underflows there; a node whose Gram overflows is
    decomposed. The iterates must be finite, as `run`'s are.
    """
    edge = 1.0 - _BALL_SCREEN_SLACK
    near = frobenius_norm(xs) > radius * edge
    if near.any():
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            near[near] = ~(np.sqrt(linalg._frobenius(linalg._gram(xs[near] / radius))) <= edge)
    outside = np.zeros(near.shape, dtype=bool)
    if near.any():
        outside[near] = spectral_norm(xs[near]) > radius
    return outside.any(axis=-1)


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
    """One algorithm of a `run`: its parameters, orthogonalizer and horizon.

    The read-only `tracked` and `kernel` are its algorithm's row of `_TABLE`;
    the kernel is (name, parsed orthogonalizer or None). `params` is a
    ScheduleParams when tracked, else a BaselineParams. `horizon` is the
    number of rounds the lane runs; None takes a theorem schedule's horizon.
    """

    algorithm: str
    params: ScheduleParams | BaselineParams
    orthogonalizer: str = "svd"
    horizon: int | None = None

    def __post_init__(self):
        if self.algorithm not in _TABLE:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        tracked, kernel = _TABLE[self.algorithm]
        expected = ScheduleParams if tracked else BaselineParams
        if not isinstance(self.params, expected):
            raise TypeError(f"{self.algorithm} expects {expected.__name__}")
        polar = parse_orthogonalizer(self.orthogonalizer)
        object.__setattr__(self, "tracked", tracked)
        object.__setattr__(self, "kernel", (kernel, polar if kernel == "polar" else None))


def _lane_horizon(lane: Lane) -> int:
    """The rounds `lane` runs: its own horizon, else its theorem schedule's."""
    derived = lane.params.horizon if lane.tracked else None
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
        self.bound = self.pot_weights = None
        if lane.tracked:
            params = lane.params
            self.bound = diagnostics.consensus_bound(params.eta, mixing.mixing_rate, mixing.n_nodes)
            if params.horizon is not None:
                self.pot_weights = diagnostics.theorem_potential_params(
                    params.horizon, params.alpha, mixing.mixing_rate
                )
        self.rows = []
        self.max_ave_resid = 0.0
        self.ball_exit = None  # the warning of the first round that left the ball
        self.moment_sum = 0.0  # the sum of its rounds' noise powers, one round at a time

    def result(self, mixing: MixingSpec, noise_model: NoiseModel) -> RunResult:
        # Each lane draws its report index as a one-lane run of its horizon would.
        seed = noise_model.base_seed
        iota = int(np.random.default_rng((seed, _REPORT_STREAM)).integers(self.horizon))
        grad_norms = [row.avg_grad_nuclear for row in self.rows]
        # Starting from 0.0, max() passes over a NaN residual.
        violations, tracks = 0, [0.0]
        if self.lane.tracked:
            violations = sum(row.consensus_error_x > self.bound + 1e-9 for row in self.rows)
            tracks += [row.tracking_residual for row in self.rows]
        return RunResult(
            algorithm=self.lane.algorithm,
            horizon=self.horizon,
            seed=seed,
            mixing_rate=mixing.mixing_rate,
            rows=self.rows,
            iota=iota,
            grad_nuclear_at_iota=grad_norms[iota],
            avg_grad_nuclear_mean=float(np.mean(grad_norms)),
            consensus_violations=violations,
            max_tracking_residual=max(tracks),
            max_avg_iterate_residual=self.max_ave_resid,
            noise_alpha_moment=(self.moment_sum / (self.horizon * mixing.n_nodes)) ** (1.0 / noise_model.alpha),
            ball_exited=self.ball_exit is not None,
        )


def _window_rounds(shape: tuple) -> int:
    """The rounds a window of an (L, N, m, n) lane stack holds.

    That is the most, up to `_WINDOW_ROUNDS`, whose arrays fit `_WINDOW_BYTES`;
    a round's arrays are its state (x, m, v), gradients and directions, and
    its (N, m, n) noise draw.
    """
    stack = math.prod(shape) * 8
    return max(1, min(_WINDOW_ROUNDS, _WINDOW_BYTES // (5 * stack + stack // shape[0])))


class _Stores:
    """The round buffers `run` owns for one lane composition: a window's states and records.

    Round w of a window reads state slot w and writes state slot w + 1 and
    record slot w (see `buffers`), so the window's diagnostics read views of
    these arrays. Each noise slot is preceded by L free matrices, where the
    diagnostics put the lanes' mean gradients: one nuclear-norm call then
    reads both without a concatenated copy. Momenta and trackers start zero,
    so untracked lanes keep zero rows. A lane composition allocates its
    stores once; a retirement or a divergence lays out new ones for the
    surviving lanes.
    """

    def __init__(self, state: RunState):
        shape = state.x.shape
        self.rounds = _window_rounds(shape)
        slots = (self.rounds + 1, *shape)
        self.x, self.m, self.v = np.empty(slots), np.zeros(slots), np.zeros(slots)
        self.grads, self.directions = np.empty((self.rounds, *shape)), np.empty((self.rounds, *shape))
        self.nuclear = np.empty((self.rounds, shape[0] + shape[1], *shape[2:]))
        self.noise = self.nuclear[:, shape[0] :]
        self.x[0], self.m[0], self.v[0] = state.x, state.m, state.v
        self.state = RunState(state.iter, self.x[0], self.m[0], self.v[0], state.lanes)

    def buffers(self, w: int) -> _RoundBuffers:
        """What round w of a window writes: state slot w + 1 and record slot w."""
        return _RoundBuffers(self.x[w + 1], self.m[w + 1], self.v[w + 1], self.grads[w], self.noise[w],
                             self.directions[w])

    def carry(self, state: RunState) -> RunState:
        """`state`, a full window's last, made slot 0 by reversing the state slots (the flush has read the window)."""
        self.x, self.m, self.v = self.x[::-1], self.m[::-1], self.v[::-1]
        return RunState(state.iter, self.x[0], self.m[0], self.v[0], state.lanes)


def _power(base: float, exponent: float) -> float:
    """base ** exponent by Python's `**` for a nonnegative base; inf where that overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _window_rows(live, problem, stores: _Stores, first: int, step_s: list, alpha: float) -> None:
    """Record every live lane's rows and noise-moment sums of a window's rounds, `first` to `first + W - 1`.

    `step_s` holds each round's step seconds, so W is its length. Every round
    of a window has the same live lanes, tracked lanes first, and its arrays
    are the first slots of `stores`; a round's step sizes are its lanes'
    `_round_schedule` rows, those `step` applied. Each diagnostic is one call
    for all rounds and lanes: the consensus errors, the mean-gradient and
    noise nuclear norms, the ball check, the objective at the mean, the
    tracking and mean-iterate residuals (`linalg._frobenius`, bit for bit the
    per-matrix norms) and the potential. Each call reads the window's
    (W, L, N, m, n) store views as they lie, reversed slots included, and
    gives one value per (round, lane). Each row holds its slice.
    """
    if not step_s:
        return
    t0 = time.perf_counter()
    n_rounds, n_lanes = len(step_s), len(live)
    iters = range(first, first + n_rounds)
    n_tracked = sum(lane_run.lane.tracked for lane_run in live)
    # A theorem lane's position among the theorem lanes.
    theorem = [j for j in range(n_tracked) if live[j].pot_weights is not None]
    pot_slot = {j: t for t, j in enumerate(theorem)}
    # A round just short of divergence can overflow its diagnostics; the row
    # then reads inf, and the next round, if any, raises Diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        x_prev, x = stores.x[:n_rounds], stores.x[1 : n_rounds + 1]
        x_mean_prev = node_mean(x_prev, keepdims=True)
        cons_x = diagnostics.consensus_error(x_prev).tolist()
        eta = np.array([[_round_schedule(lane_run.lane, k)[0] for lane_run in live] for k in iters])
        eta = eta.reshape(n_rounds, n_lanes, 1, 1, 1)
        applied = eta * node_mean(stores.directions[:n_rounds], keepdims=True)
        resid = node_mean(x, keepdims=True) - (x_mean_prev - applied)
        resid = linalg._frobenius(resid[:, :, 0]).tolist()
        # One stacked call gives every lane's mean-gradient norm and every noise
        # draw's. A mean gradient that overflowed (finite gradients whose sum is
        # not) reads inf.
        grads = stores.grads[:n_rounds]
        mean_grads = node_mean(grads)
        overflowed = ~np.isfinite(mean_grads).all(axis=(-2, -1))
        mean_grads[overflowed] = 0.0
        stores.nuclear[:n_rounds, :n_lanes] = mean_grads
        nuclear = nuclear_norm(stores.nuclear[:n_rounds])
        nuclear[:, :n_lanes][overflowed] = np.inf
        objective = problems.objective_at(problem, x_mean_prev[:, :, 0])
        if n_tracked:
            v, m = stores.v[1 : n_rounds + 1, :n_tracked], stores.m[1 : n_rounds + 1, :n_tracked]
            tracking = linalg._frobenius(node_mean(v) - node_mean(m)).tolist()
            cons_v = diagnostics.consensus_error_nuclear(v)
            if theorem:
                lanes = _lanes(theorem)
                pots = diagnostics.potential(
                    objective[:, lanes],
                    grads[:, lanes],
                    m[:, lanes],
                    cons_v[:, lanes],
                    [live[j].pot_weights for j in theorem],
                ).tolist()
            cons_v = cons_v.tolist()
        if problem.ball_radius != float("inf"):
            watched = [j for j, lane_run in enumerate(live) if lane_run.ball_exit is None]
            if watched:
                outside = _outside_ball(x[:, _lanes(watched)], problem.ball_radius)
                for j, exits in zip(watched, outside.T):
                    if exits.any():
                        live[j].ball_exit = (
                            f"iterates left the certified ball (radius {problem.ball_radius}) "
                            f"at iteration {iters[int(np.argmax(exits))]}; the smoothness constant no longer applies"
                        )
        nuclear, objective = nuclear.tolist(), objective.tolist()
    # Python's `**` (libm's pow), as in `diagnostics.potential`: numpy's power
    # loop takes a SIMD path on some CPUs, so its last bits depend on the host.
    noise_powers = [[_power(norm, alpha) for norm in row[n_lanes:]] for row in nuclear]
    diagnostics_s = (time.perf_counter() - t0) / n_rounds
    for w, seconds in enumerate(step_s):
        wall_ms = (seconds + diagnostics_s) * 1e3 / n_lanes
        # One round at a time, as the rounds ran: one sum over the window would round differently.
        moment = float(np.add.reduce(noise_powers[w]))
        for j, lane_run in enumerate(live):
            track = consensus_v = pot = None
            if lane_run.lane.tracked:
                track, consensus_v = tracking[w][j], cons_v[w][j]
                if j in pot_slot:
                    pot = pots[w][pot_slot[j]]
            lane_run.max_ave_resid = max(lane_run.max_ave_resid, resid[w][j])
            lane_run.moment_sum += moment
            lane_run.rows.append(
                MetricsRow(iters[w], cons_x[w][j], lane_run.bound, nuclear[w][j], track, consensus_v, pot,
                           objective[w][j], wall_time_ms=wall_ms)
            )


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
    Of each round, `run` keeps only its step seconds: the window reads the
    arrays from the stores and the step sizes from each lane's schedule.
    The rounds are written into round buffers that `run` owns (`_Stores`),
    one set per lane composition, reused window after window. The stack
    holds the tracked lanes first and each kind together (see `_layout`).
    The rows do not depend on the window or the stack order. Returns one
    RunResult per lane, in the order passed, each equal field for field to a
    one-lane run of that lane.

    A tracked lane on a `theoretical_schedule` also reports each round's
    potential, weighted by `diagnostics.theorem_potential_params`. A lane's
    reported iteration index is drawn uniformly from {0, ..., K-1}, K its
    horizon, once, after the loop, from a substream of the noise model's
    `base_seed`, which is also the result's `seed`, so the trajectory does
    not depend on the draw. Its noise moment covers the draws of its own K
    rounds.

    Divergence has the outcome of running the lanes one after another. When
    `step` raises a lane's Diverged, that lane and every lane passed after it
    leave the stack and the lanes passed before it run the same round again,
    which gives them the same bits (the noise is keyed by the round, and
    every kernel gives each lane what it gives that lane alone). So the
    lanes before the first diverging lane run to their horizons, and its
    Diverged is raised with `lane` its position in `lanes`, `finished`
    holding the results of the lanes before it and `rows` its own rows of
    the rounds it finished. The ball-exit RuntimeWarnings of the kept lanes
    are emitted, in lane order, when the pass ends.
    """
    lanes = list(lanes)
    if not lanes:
        raise ValueError("run needs at least one lane")
    runs = [_LaneRun(lane, _lane_horizon(lane), mixing) for lane in lanes]
    if problem.n_nodes != mixing.n_nodes:
        raise ValueError(f"problem has {problem.n_nodes} nodes but mixing matrix has {mixing.n_nodes}")
    kinds = [(lane.tracked, lane.kernel) for lane in lanes]  # tracked first, then by kind: a stable sort
    live = [runs[i] for i in sorted(range(len(lanes)), key=lambda i: (not kinds[i][0], kinds.index(kinds[i])))]
    state = initial_state([lane_run.lane for lane_run in live], mixing.n_nodes, np.zeros((problem.m, problem.n)))
    stores = failure = failed = None
    step_s = []  # the step seconds of the window's rounds so far
    while live:
        if stores is None:  # a new lane composition: lay out its round buffers
            stores = _Stores(state)
            state = stores.state
        t0 = time.perf_counter()
        try:
            state, _ = step(state, problem, mixing, noise_model, out=stores.buffers(len(step_s)))
        except Diverged as exc:
            failure, failed = exc, live[exc.lane]
            keep = [j for j, lane_run in enumerate(live) if runs.index(lane_run) < runs.index(failed)]
        else:
            step_s.append(time.perf_counter() - t0)
            keep = [j for j, lane_run in enumerate(live) if lane_run.horizon > state.iter]
            if len(keep) == len(live) and len(step_s) < stores.rounds:
                continue
        # `state` enters the round after the window's last: the next one, or the one that failed.
        _window_rows(live, problem, stores, state.iter - len(step_s), step_s, noise_model.alpha)
        step_s = []
        if len(keep) == len(live):
            state = stores.carry(state)
        else:
            state, live, stores = state.take(keep), [live[j] for j in keep], None

    kept = runs.index(failed) if failure is not None else len(runs)
    for lane_run in runs[: kept + 1]:
        if lane_run.ball_exit is not None:
            warnings.warn(lane_run.ball_exit, RuntimeWarning, stacklevel=2)
    results = [lane_run.result(mixing, noise_model) for lane_run in runs[:kept]]
    if failure is not None:
        failure.lane, failure.finished, failure.rows = kept, results, failed.rows
        raise failure
    return results
