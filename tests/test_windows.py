"""The diagnostics windows of `run` and the momentum and tracker rows it holds.

A window holds the most rounds whose arrays fit the byte budget, and two
where two fit one core's L2; `run`'s stores hold momenta and trackers only
for the tracked lanes, which lead its stack. Neither may move a row: a run
equals itself at one-round windows and its lanes' one-lane runs.
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from demuon import optimizers
from demuon.noise import NoiseModel
from demuon.optimizers import (
    BaselineParams,
    Diverged,
    Lane,
    RunState,
    ScheduleParams,
    initial_state,
    run,
    step,
    theoretical_schedule,
)
from demuon.problems import make_nonconvex_gram, make_quadratic
from demuon.topology import build_family

from test_optimizers import _one_by_one, _outcome


@pytest.mark.parametrize(
    "shape, held, rounds",
    [
        ((1, 8, 8, 6), 1, 21),  # quickstart
        ((1, 64, 64, 32), 1, 1),  # large_n64: two rounds (12 MiB) do not fit 2 MiB
        ((3, 4, 6, 5), 3, 25),  # rate_sweep's three horizons, then two, then one
        ((2, 4, 6, 5), 2, 37),
        ((1, 4, 6, 5), 1, 64),
        ((3, 16, 32, 16), 1, 2),  # baselines_gram: 768 KiB a round, above the 384 KiB budget
        ((3, 8, 8, 6), 1, 10),  # one tracked lane of three: its rows alone count (8 rounds if every lane's did)
        ((2, 8, 8, 6), 0, 18),
    ],
)
def test_window_rounds_of_the_workload_stacks(shape, held, rounds):
    assert optimizers._window_rounds(shape, held) == rounds


def test_stores_hold_momentum_and_tracker_rows_for_the_tracked_lanes_alone():
    # baselines_gram's stack: gt_nsgdm leads, dsgd and dsgd_clip hold no rows.
    lanes = [Lane("gt_nsgdm", ScheduleParams(0.05, 0.2)), Lane("dsgd", BaselineParams()),
             Lane("dsgd_clip", BaselineParams())]
    stores = optimizers._Stores(initial_state(lanes, 16, np.zeros((32, 16))))
    assert stores.rounds == 2
    assert stores.x.shape == (3, 3, 16, 32, 16)
    assert stores.m.shape == stores.v.shape == (3, 1, 16, 32, 16)
    assert stores.state.m.shape == (1, 16, 32, 16) and np.shares_memory(stores.state.m, stores.m)


def _recording_stores(monkeypatch):
    """Patch `run`'s stores to record each composition's (window rounds, held rows); return the record."""
    laid_out = []

    class Recorded(optimizers._Stores):
        def __init__(self, state):
            super().__init__(state)
            laid_out.append((self.rounds, self.m.shape[1]))

    monkeypatch.setattr(optimizers, "_Stores", Recorded)
    return laid_out


def test_a_two_round_gram_compare_equals_one_round_windows_and_one_lane_runs(monkeypatch):
    # 4 lanes, 2 of them tracked, of 4x24x16: a 204 KiB round, so two-round
    # windows. The lanes retire at odd rounds, mid-window, and three of them
    # leave the ball, one in a window's second round.
    prob = replace(make_nonconvex_gram(4, 24, 16, heterogeneity=0.5, seed=3), ball_radius=1.0)
    mixing, noise = build_family("directed_exponential", 4), NoiseModel("student_t", 1.6, 0.3, dof=2.0, base_seed=5)
    lanes = [
        Lane("dsgd", BaselineParams(dsgd_eta=0.05), horizon=24),
        Lane("gt_nsgdm", ScheduleParams(0.05, 0.2), horizon=17),
        Lane("dsgd_clip", BaselineParams(), horizon=9),
        Lane("demuon", ScheduleParams(0.05, 0.5), horizon=24),
    ]
    laid_out = _recording_stores(monkeypatch)
    windowed = _outcome(lambda: run(lanes, prob, mixing, noise))
    # gt_nsgdm and demuon lead the stack; then the compositions after dsgd_clip and gt_nsgdm retire.
    assert laid_out == [(2, 2), (2, 2), (3, 1)]
    results, failure, caught = windowed
    exits = sorted(int(re.search(r"at iteration (\d+)", text).group(1)) for text in caught)
    assert failure is None and len(results) == 4 and exits == [4, 6, 21]
    with monkeypatch.context() as patch:
        patch.setattr(optimizers, "_WINDOW_ROUNDS", 1)
        laid_out.clear()
        assert _outcome(lambda: run(lanes, prob, mixing, noise)) == windowed
        assert [rounds for rounds, _ in laid_out] == [1, 1, 1]
    assert _outcome(lambda: _one_by_one(lanes, prob, mixing, noise)) == windowed


def test_an_untracked_stack_holds_zero_momentum_and_tracker_rows(monkeypatch):
    prob = make_quadratic(4, 6, 5, 3, heterogeneity=0.5, seed=2)
    mixing, noise = build_family("ring", 4), NoiseModel("student_t", 1.5, 0.3, dof=2.0, base_seed=4)
    lanes = [Lane("dsgd", BaselineParams(dsgd_eta=0.05), horizon=30), Lane("dsgd_clip", BaselineParams(), horizon=30)]
    laid_out = _recording_stores(monkeypatch)
    stacked = _outcome(lambda: run(lanes, prob, mixing, noise))
    assert laid_out == [(optimizers._window_rounds((2, 4, 6, 5), 0), 0)]
    assert stacked == _outcome(lambda: _one_by_one(lanes, prob, mixing, noise))
    # `step` on a state without rows gives a next state without rows, and the same iterates as with zero rows.
    full = initial_state(lanes, 4, np.zeros((6, 5)))
    trimmed = RunState(0, full.x, full.m[:0], full.v[:0], full.lanes)
    nxt, want = step(trimmed, prob, mixing, noise), step(full, prob, mixing, noise)
    assert nxt.m.shape == nxt.v.shape == (0, 4, 6, 5)
    assert nxt.x.tobytes() == want.x.tobytes() and not want.m.any() and not want.v.any()


def test_step_rejects_a_state_without_a_row_for_a_tracked_lane():
    lanes = (Lane("dsgd", BaselineParams()), Lane("demuon", ScheduleParams(0.05, 0.5)))
    full = initial_state(lanes, 3, np.zeros((4, 3)))
    short = RunState(0, full.x, full.m[:1], full.v, lanes)
    with pytest.raises(ValueError, match="need a row for each of the first 2 lanes"):
        step(short, make_quadratic(3, 4, 3, 2, seed=1), build_family("ring", 3), NoiseModel("gaussian", 2.0, 0.3))


def test_a_tracked_lane_diverging_in_a_trimmed_stack(monkeypatch):
    # The stack is [demuon, demuon at eta 1e200, gt_nsgdm, dsgd, dsgd_clip],
    # holding rows for its three tracked lanes. The second demuon's momentum
    # overflows at iteration 1; the lanes passed before it (the first demuon,
    # gt_nsgdm and dsgd) rerun the round from their own rows, gt_nsgdm's the
    # third held row, not the second.
    prob = make_nonconvex_gram(4, 6, 5, heterogeneity=0.5, seed=0)
    mixing, noise = build_family("ring", 4), NoiseModel("student_t", 1.5, 0.3, dof=2.0, base_seed=3)
    lanes = [
        Lane("demuon", ScheduleParams(0.05, 0.5), horizon=12),
        Lane("gt_nsgdm", ScheduleParams(0.05, 0.2), horizon=12),
        Lane("dsgd", BaselineParams(dsgd_eta=0.05), horizon=12),
        Lane("demuon", ScheduleParams(1e200, 0.5), horizon=12),
        Lane("dsgd_clip", BaselineParams(), horizon=12),
    ]
    stacks = []

    def recorded(state, *args, _step=optimizers.step, **kwargs):
        stacks.append((tuple(lanes.index(lane) for lane in state.lanes), len(state.m)))
        return _step(state, *args, **kwargs)

    monkeypatch.setattr(optimizers, "step", recorded)
    with warnings.catch_warnings(), pytest.raises(Diverged) as caught:
        warnings.simplefilter("ignore")
        run(lanes, prob, mixing, noise)
    exc = caught.value
    assert stacks == [((0, 3, 1, 2, 4), 3)] * 2 + [((0, 1, 2), 2)] * 11
    with warnings.catch_warnings(), pytest.raises(Diverged) as alone:
        warnings.simplefilter("ignore")
        run([lanes[3]], prob, mixing, noise)
    fields = ("algorithm", "iteration", "node", "quantity")
    assert [getattr(exc, f) for f in fields] == [getattr(alone.value, f) for f in fields]
    assert (exc.lane, exc.algorithm, exc.iteration, exc.quantity) == (3, "demuon", 1, "momentum")
    assert len(exc.finished) == 3 and len(exc.rows) == 1
    stacked = _outcome(lambda: run(lanes, prob, mixing, noise))
    assert stacked == _outcome(lambda: _one_by_one(lanes, prob, mixing, noise))


def test_take_keeps_the_held_rows_of_the_lanes_it_keeps():
    # run's stack holds rows for its tracked lanes alone; take keeps those of the kept positions.
    lanes = (
        Lane("demuon", theoretical_schedule(8)),
        Lane("gt_nsgdm", ScheduleParams(0.05, 0.5)),
        Lane("demuon", ScheduleParams(0.05, 0.2)),
        Lane("dsgd", BaselineParams()),
    )
    x = np.arange(4.0).reshape(4, 1, 1, 1)
    state = RunState(3, x, 10.0 + x[:3], 20.0 + x[:3], lanes)
    for idx, held in (([0, 2, 3], [0, 2]), ([1, 3], [1]), ([3], []), (range(3), [0, 1, 2])):
        taken = state.take(idx)
        assert taken.lanes == tuple(lanes[j] for j in idx)
        np.testing.assert_array_equal(taken.x, x[list(idx)])
        np.testing.assert_array_equal(taken.m, 10.0 + x[held])
        np.testing.assert_array_equal(taken.v, 20.0 + x[held])
