"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from demuon.config import parse_config, with_overrides
from demuon.diagnostics import consensus_bound, min_horizon, u_dm_constant
from demuon.linalg import (
    frobenius_norm,
    msgn_exact,
    msgn_newton_schulz,
    nuclear_norm,
    spectral_norm,
)
from demuon.noise import NoiseModel
from demuon.optimizers import (
    BaselineParams,
    Lane,
    ScheduleParams,
    initial_state,
    run,
    step,
    theoretical_schedule,
    _round_schedule,
)
from demuon.problems import ProblemSet, QUADRATIC, make_quadratic
from demuon.runner import execute, sweep
from demuon.topology import build_family

from linalg_oracles import conditioned_matrix, random_matrix
from stepping import step_with_buffers

SEEDS = (0, 1, 2)


def _report(num, text):
    print(f"[criterion {num:02d}] PASS — {text}")


def scalar_quadratic(targets):
    targets = [np.asarray(t, dtype=float).reshape(1, 1) for t in targets]
    n = len(targets)
    return ProblemSet(QUADRATIC, n, 1, 1, a=tuple(np.eye(1) for _ in range(n)), b=tuple(targets))


def test_criterion_01_msgn_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        a = random_matrix(rng, max_dim=16)
        s = msgn_exact(a)
        nuc = nuclear_norm(a)
        assert abs(float(np.sum(a * s)) - nuc) <= 1e-9 * max(nuc, 1e-300)
        assert abs(spectral_norm(s) - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"msgn exactness on 1000 matrices ({elapsed:.1f}s)")


def test_criterion_02_newton_schulz_fidelity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(2, 17))
        cond = float(rng.uniform(1.0, 10.0))
        a = conditioned_matrix(rng, m, n, cond)
        dist = spectral_norm(msgn_newton_schulz(a, iters=15) - msgn_exact(a))
        worst = max(worst, dist)
        assert dist <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"Newton-Schulz within 1e-3 of exact polar (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_consensus_bound():
    problem = make_quadratic(8, 6, 5, 8, heterogeneity=0.5, seed=31)
    sched = ScheduleParams(0.1, 0.2)
    for mixing in (build_family("ring", 8), build_family("directed_exponential", 8)):
        bound = consensus_bound(sched.eta, mixing.mixing_rate, 8)
        for seed in SEEDS:
            noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=seed)
            start = time.perf_counter()
            res = run([Lane("demuon", sched, horizon=500)], problem, mixing, noise)[0]
            elapsed = time.perf_counter() - start
            assert elapsed < 30.0
            assert res.consensus_violations == 0
            assert all(r.consensus_error_x <= bound + 1e-9 for r in res.rows)
    _report(3, "consensus error within sqrt(N) lam eta/(1-lam) on ring and exp graphs, 3 seeds")


def _identity_sweep(algorithm):
    """Manually step every topology/seed, returning worst identity residuals."""
    problem = make_quadratic(8, 6, 5, 8, heterogeneity=0.5, seed=31)
    worst_track = worst_ave = 0.0
    for mixing in (build_family("complete", 8), build_family("ring", 8), build_family("directed_exponential", 8)):
        for seed in SEEDS:
            noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=seed)
            params, eta = ScheduleParams(0.1, 0.2), 0.1
            state = initial_state([Lane(algorithm, params)], 8, np.zeros((6, 5)))
            for _ in range(500):
                x_mean = state.x[0].mean(axis=0)
                state, bufs = step_with_buffers(state, problem, mixing, noise)
                m_mean = state.m[0].mean(axis=0)
                v_mean = state.v[0].mean(axis=0)
                track = frobenius_norm(v_mean - m_mean) / (1.0 + frobenius_norm(m_mean))
                worst_track = max(worst_track, track)
                if algorithm == "demuon":
                    expected = x_mean - eta * bufs.directions[0].mean(axis=0)
                    ave = frobenius_norm(state.x[0].mean(axis=0) - expected) / (1.0 + frobenius_norm(x_mean))
                    worst_ave = max(worst_ave, ave)
    return worst_track, worst_ave


def test_criterion_04_tracking_identity():
    worst_demuon, _ = _identity_sweep("demuon")
    worst_gt, _ = _identity_sweep("gt_nsgdm")
    assert worst_demuon <= 1e-9
    assert worst_gt <= 1e-9
    _report(4, f"tracker mean equals momentum mean at k<=500 "
               f"(worst {max(worst_demuon, worst_gt):.2e}, all topologies/seeds)")


def test_criterion_05_average_iterate_identity():
    _, worst_ave = _identity_sweep("demuon")
    assert worst_ave <= 1e-9
    _report(5, f"mean iterate recursion exact to {worst_ave:.2e} at every step")


def test_criterion_06_rate_trend():
    start = time.perf_counter()
    problem = make_quadratic(4, 6, 5, 8, heterogeneity=0.0, seed=42)
    mixing = build_family("ring", 4)
    horizons = (64, 256, 1024, 4096)
    # One pass per seed: its four horizons are lanes that retire at their own K.
    vals = []
    for seed in range(5):
        noise = NoiseModel("gaussian", 2.0, 0.25, base_seed=seed)
        lanes = [Lane("demuon", theoretical_schedule(horizon, 2.0)) for horizon in horizons]
        vals.append([res.avg_grad_nuclear_mean for res in run(lanes, problem, mixing, noise)])
    means = [float(np.mean(per_horizon)) for per_horizon in zip(*vals)]
    assert all(means[i + 1] < means[i] for i in range(len(means) - 1))
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    assert -0.45 <= slope <= -0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, f"running-mean gradient decreases in K, log-log slope {slope:.3f} ({elapsed:.0f}s)")


def test_criterion_07_hand_simulation_oracles():
    noiseless = NoiseModel("gaussian", 2.0, 0.0)

    state = initial_state([Lane("demuon", ScheduleParams(0.5, 1.0))], 1, np.zeros((1, 1)))
    state = step(state, scalar_quadratic([2.0]), build_family("complete", 1), noiseless)
    assert abs(state.x[0, 0, 0, 0] - 0.5) <= 1e-12

    state = initial_state([Lane("demuon", ScheduleParams(0.5, 1.0))], 2, np.zeros((1, 1)))
    state = step(state, scalar_quadratic([0.0, 2.0]), build_family("complete", 2), noiseless)
    assert abs(state.x[0, 0, 0, 0] - 0.5) <= 1e-12
    assert abs(state.x[0, 1, 0, 0] - 0.5) <= 1e-12

    state = initial_state([Lane("dsgd", BaselineParams(dsgd_eta=0.1))], 2, np.zeros((1, 1)))
    state = step(state, scalar_quadratic([0.0, 2.0]), build_family("complete", 2), noiseless)
    assert abs(state.x[0, 0, 0, 0] - 0.1) <= 1e-12
    assert abs(state.x[0, 1, 0, 0] - 0.1) <= 1e-12
    _report(7, "single-step hand simulations reproduce to 1e-12")


def test_criterion_08_baseline_contracts():
    problem = make_quadratic(4, 4, 3, 5, heterogeneity=0.6, seed=77)
    mixing = build_family("ring", 4)
    params = BaselineParams(clip_eta=10.0, clip_tau=0.1)
    noise = NoiseModel("student_t", 1.6, 0.5, dof=2.0, base_seed=5)

    state = initial_state([Lane("dsgd_clip", params)], 4, np.zeros((4, 3)))
    for k in range(200):
        tau = _round_schedule(state.lanes[0], k)[1]
        state, bufs = step_with_buffers(state, problem, mixing, noise)
        tau_k = 0.1 * (k + 1) ** 0.4
        assert tau == pytest.approx(tau_k, rel=1e-12)
        assert all(norm <= tau_k + 1e-12 for norm in np.linalg.norm(bufs.directions[0], axis=(1, 2)))

    state = initial_state([Lane("gt_nsgdm", ScheduleParams(0.1, 0.2))], 4, np.zeros((4, 3)))
    for _ in range(200):
        state, bufs = step_with_buffers(state, problem, mixing, noise)
        for i in range(4):
            norm = frobenius_norm(bufs.directions[0][i])
            assert abs(norm - 1.0) <= 1e-12 or norm == 0.0

    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        target = float(rng.uniform(-3, 3))
        eta = float(rng.uniform(0.01, 0.5))
        theta = float(rng.uniform(0.05, 0.95))
        seed = int(rng.integers(2**31))
        scalar = scalar_quadratic([target])
        scalar_noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=seed)
        mix1 = build_family("complete", 1)
        sched = ScheduleParams(eta, theta)
        base = ScheduleParams(eta, theta)
        st_d = initial_state([Lane("demuon", sched)], 1, np.zeros((1, 1)))
        st_g = initial_state([Lane("gt_nsgdm", base)], 1, np.zeros((1, 1)))
        for _ in range(15):
            st_d = step(st_d, scalar, mix1, scalar_noise)
            st_g = step(st_g, scalar, mix1, scalar_noise)
            diff = abs(st_d.x[0, 0, 0, 0] - st_g.x[0, 0, 0, 0])
            worst = max(worst, diff)
            assert diff <= 1e-10
    _report(8, f"clip norms <= tau_k, unit/zero normalized directions, "
               f"scalar equivalence to {worst:.2e}")


def test_criterion_09_constant_calculators():
    assert u_dm_constant(1.0, 1, 0.0, 2.0, 0.0, 1.0, 1, 1) == 5.5
    assert u_dm_constant(0.0, 1, 0.0, 2.0, 0.0, 0.0, 1, 1) == 1.0
    assert min_horizon(5.5, 0.5, 2.0) == 14641
    sched = theoretical_schedule(16, 2.0)
    assert (sched.eta, sched.theta) == (0.125, 0.25)
    _report(9, "horizon constant, minimum horizon, and schedule values exact")


def test_criterion_10_stacked_norm_sandwich():
    rng = np.random.default_rng(1010)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        ys = rng.standard_normal((n, m, cols))
        stacked = ys.reshape(n * m, cols)
        sp = spectral_norm(stacked)
        nu = nuclear_norm(stacked)
        per_sp = [spectral_norm(y) for y in ys]
        per_nu = [nuclear_norm(y) for y in ys]
        assert sp - np.mean(per_sp) >= -1e-12
        assert np.sqrt(sum(v**2 for v in per_sp)) - sp >= -1e-12
        assert nu - np.mean(per_nu) >= -1e-12
        assert sum(per_nu) - nu >= -1e-12
    _report(10, "spectral and nuclear stacked-norm sandwiches hold on 500 stacks")


def test_criterion_11_determinism(tmp_path):
    text = f"""
[run]
algorithm = demuon
horizon = 25
seed = 12
out_dir = {tmp_path}

[topology]
family = directed_exponential
n_nodes = 8

[problem]
kind = quadratic
m = 4
n = 3
p = 5
heterogeneity = 0.4
seed = 2

[noise]
family = student_t
alpha = 1.6
scale = 0.3
dof = 2.0
"""
    cfg = parse_config(text)
    first = execute(cfg)
    blob = open(first.metrics_path, "rb").read()
    second = execute(cfg)
    assert open(second.metrics_path, "rb").read() == blob

    swept = with_overrides(cfg, sweep=(5, 9))
    serial, _ = sweep(swept, workers=1)
    blobs = {o.metrics_path: open(o.metrics_path, "rb").read() for o in serial}
    parallel, _ = sweep(swept, workers=2)
    for outcome in parallel:
        assert open(outcome.metrics_path, "rb").read() == blobs[outcome.metrics_path]
    _report(11, "reruns and sweep worker counts produce byte-identical CSV")
