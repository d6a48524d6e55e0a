"""Benchmark of the demuon lab: end-to-end metrics per workload, or a traced per-layer breakdown.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With `--trace 0` it reports, per workload, `run_cal` (median time of one
workload iteration through `runner.execute`/`sweep`/`compare`, configs
already parsed, over the time of the reference loop in `calibration` around
it), `setup_s` (median seconds to parse the configs and build mixing,
problem, noise and parameters) and `peak_rss_mb` (peak resident memory of a
fresh process that runs the workload once). It also prints `run_s`, the
median wall seconds of one iteration, with its work size. With `--trace 1` it
reports the per-layer metrics of `tracing.METRICS`. Every iteration's
artifacts are checked (see `checks`); failed and attempted runs are counted,
and any failure makes the exit code 1. The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import bootstrap

WORKLOAD_NAMES = ("quickstart", "large_n64", "rate_sweep", "baselines_gram")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rss_probe.py")
MIN_ITERATIONS = 3
MIN_TRACED = 2
# Set-ups timed before each timed iteration, so that set-up and run times
# sample the same stretch of machine time.
SETUPS_PER_ITERATION = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git(*args):
    if not os.path.exists(os.path.join(bootstrap.ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_metadata() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": bootstrap.BLAS_THREADS,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def iterate(plan, checker, tracer=None) -> float:
    """Run one workload iteration, check its artifacts, return its wall seconds."""
    checker.clear()
    error = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                plan.call()
            except Exception as exc:  # a raising run is counted as failed, not fatal
                error = exc
            elapsed = time.perf_counter() - t0
    checker.record(error)
    return elapsed


def time_setup(workload, seed, out_dir) -> float:
    from workloads import setup

    t0 = time.perf_counter()
    setup(workload, seed, out_dir)
    return time.perf_counter() - t0


def measure_rss(name, seed, out_dir) -> float:
    out = subprocess.run(
        [sys.executable, PROBE, "--workload", name, "--seed", str(seed), "--out-dir", out_dir],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=bootstrap.ROOT,
    )
    if out.returncode != 0:
        raise RuntimeError(f"rss probe failed for {name}: {out.stderr.strip()[-2000:]}")
    return float(out.stdout.strip().splitlines()[-1])


def bench_workload(name, seed, seconds, trace, scratch):
    """Measure one workload; return (lines to print, checker, metrics)."""
    import calibration
    from checks import IterationChecker, load_reference
    from tracing import METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    reference, rel_tol, known_failing = load_reference(name, seed)
    tag = f"{name} seed={seed}"
    lines = []
    if known_failing:
        lines.append(f"{tag}: this seed failed its checks when the reference was recorded")
    elif reference is None:
        lines.append(f"{tag}: no recorded reference for this seed; headline check skipped")
    run_dir = os.path.join(scratch, "run")

    if not trace:
        rss = measure_rss(name, seed, os.path.join(scratch, "probe"))
    plan = workload.plan(seed, run_dir)
    checker = IterationChecker(run_dir, len(plan.runs), reference, rel_tol)
    iterate(plan, checker)  # warm-up: checked, not timed

    times, setup_samples, traced, coverage, layer_samples = [], [], [], [], []
    cal = [] if trace else [calibration.seconds()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_ITERATIONS or (
        trace and len(traced) < MIN_TRACED
    ):
        if not trace:
            setup_samples += [time_setup(workload, seed, run_dir) for _ in range(SETUPS_PER_ITERATION)]
        times.append(iterate(plan, checker))
        if not trace:
            cal.append(calibration.seconds())
        else:
            tracer = Tracer()
            elapsed = iterate(plan, checker, tracer)
            traced.append(elapsed)
            coverage.append(tracer.covered_s / elapsed)
            layer_samples.append(tracer.values(workload.idle_layers))

    run_s = statistics.median(times)
    q1, q3 = quartiles(times)
    lines.append(
        f"{tag}: run_s {run_s:.6g} s, median of {len(times)} iterations (q1 {q1:.6g}, q3 {q3:.6g}); "
        f"{plan.rounds} rounds, {plan.node_rounds} node-rounds, "
        f"{run_s / plan.rounds * 1e3:.4g} ms/round, {run_s / plan.node_rounds * 1e6:.4g} us/node-round"
    )
    if trace:
        metrics = {}
        for metric, unit, _ in METRICS:
            if metric == "trace.coverage":
                value = statistics.median(coverage)
            elif metric == "trace.overhead":
                # Each traced iteration against the untraced one just before it.
                value = statistics.median(t / u for t, u in zip(traced, times)) - 1.0
            else:
                samples = [s[metric] for s in layer_samples]
                value = None if None in samples else statistics.median(samples)
            metrics[metric] = {"value": value, "unit": unit}
        unobserved, broken = tracer.guard(workload.idle_layers)
        for msg in unobserved:
            lines.append(f"{tag}: layer unobserved, reported as null: {msg}")
        for msg in broken:
            checker.messages.append(f"coverage guard: {msg}")
        lines.append(
            f"{tag}: traced {len(traced)} iterations, trace.coverage "
            f"{metrics['trace.coverage']['value']:.4f}, trace.overhead {metrics['trace.overhead']['value']:+.3f}"
        )
    else:
        # Each iteration against the mean of the reference loops just before and after it.
        run_cal = statistics.median(t / ((a + b) / 2) for t, a, b in zip(times, cal, cal[1:]))
        setup_s = statistics.median(setup_samples)
        metrics = {
            "run_cal": {"value": run_cal, "unit": "cal"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        lines.append(
            f"{tag}: run_cal {run_cal:.6g} cal, median of {len(times)} iterations; "
            f"reference loop median {statistics.median(cal):.6g} s"
        )
        lines.append(f"{tag}: setup_s {setup_s:.6g} s, median of {len(setup_samples)} set-ups")
        lines.append(f"{tag}: peak_rss_mb {rss:.6g} MB, one fresh process running the workload once")
    lines.append(
        f"{tag}: failed_ratio {checker.failed}/{checker.attempted} = {checker.failed / checker.attempted:.4g}"
    )
    return lines, checker, metrics


def run_one(args) -> int:
    bootstrap.prepare()
    scratch = os.path.join(bootstrap.SCRATCH, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(scratch)
    try:
        lines, checker, metrics = bench_workload(
            args.workload, args.seed, args.seconds, args.trace, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(bootstrap.SCRATCH)
    for line in lines:
        print(line)
    for msg in checker.messages:
        print(f"FAILED {args.workload} seed={args.seed}: {msg}", file=sys.stderr)
    print("host " + json.dumps(host_metadata(), sort_keys=True))
    correct = not checker.messages
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another, and combine the results."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT)
        lines = out.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit code {out.returncode})", file=sys.stderr)
            return out.returncode or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except bootstrap.MissingCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
