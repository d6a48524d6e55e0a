"""The benchmark's four workloads, each run through the public `runner` entry points.

A workload turns a seed and an output directory into a `Plan`: the parsed
configs, every experiment the runner will execute, and the runner call itself.
The seed goes to `run.seed` and `problem.seed`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from demuon import config, runner

from bootstrap import ROOT

QUICKSTART_INI = os.path.join(ROOT, "configs", "quickstart.ini")
RATE_SWEEP_INI = os.path.join(ROOT, "configs", "rate_sweep.ini")

# nonconvex_gram on a 16-node directed exponential graph; only the algorithm
# changes between the compared configs, so every baseline keeps its defaults.
GRAM_INI = """\
[run]
algorithm = {algorithm}
horizon = 200
seed = {seed}
out_dir = {out_dir}

[topology]
family = directed_exponential
n_nodes = 16

[problem]
kind = nonconvex_gram
m = 32
n = 16
seed = {seed}

[noise]
family = student_t
alpha = 1.6
scale = 0.3
dof = 2.0
"""
GRAM_ALGORITHMS = ("dsgd", "dsgd_clip", "gt_nsgdm")
# Run seeds of one rate_sweep iteration, as offsets from the benchmark seed:
# like acceptance criterion 06, several noise seeds share one problem.
SWEEP_SEED_OFFSETS = (0, 1)


@dataclass
class Plan:
    """One workload iteration with its configs parsed."""

    runs: list  # config of every experiment the runner executes
    call: Callable[[], object]

    @property
    def rounds(self) -> int:
        return sum(c.horizon for c in self.runs)

    @property
    def node_rounds(self) -> int:
        return sum(c.horizon * c.n_nodes for c in self.runs)


def _quickstart_config(seed: int, out_dir: str):
    cfg = config.parse_config(QUICKSTART_INI)
    return config.with_overrides(cfg, seed=seed, problem_seed=seed, out_dir=out_dir)


def quickstart(seed: int, out_dir: str) -> Plan:
    cfg = _quickstart_config(seed, out_dir)
    return Plan([cfg], lambda: runner.execute(cfg))


def large_n64(seed: int, out_dir: str) -> Plan:
    cfg = config.with_overrides(
        _quickstart_config(seed, out_dir), n_nodes=64, m=64, n=32, horizon=50
    )
    return Plan([cfg], lambda: runner.execute(cfg))


def rate_sweep(seed: int, out_dir: str) -> Plan:
    base = config.parse_config(RATE_SWEEP_INI)
    cfgs = [
        config.with_overrides(base, seed=seed + off, problem_seed=seed, out_dir=out_dir)
        for off in SWEEP_SEED_OFFSETS
    ]
    runs = [config.with_overrides(c, horizon=k, sweep=()) for c in cfgs for k in c.sweep]
    return Plan(runs, lambda: [runner.sweep(c, workers=1) for c in cfgs])


def baselines_gram(seed: int, out_dir: str) -> Plan:
    cfgs = [
        config.parse_config(GRAM_INI.format(algorithm=alg, seed=seed, out_dir=out_dir))
        for alg in GRAM_ALGORITHMS
    ]
    return Plan(cfgs, lambda: runner.compare(cfgs))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: Callable[[int, str], Plan]
    # Traced layers this workload never calls on the current code.
    idle_layers: frozenset = frozenset()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quickstart",
            "the documented first run (N=8 ring, 8x6, K=300); overhead-bound, so per-call cost shows",
            quickstart,
            frozenset({"diagnostics.potential"}),
        ),
        Workload(
            "large_n64",
            "quickstart at N=64, 64x32, K=50; LAPACK-bound, so polar and stacked-norm kernels show",
            large_n64,
            frozenset({"diagnostics.potential"}),
        ),
        Workload(
            "rate_sweep",
            "theorem-mode horizon sweep K=64,256,1024 over two noise seeds; the only run of the potential",
            rate_sweep,
        ),
        Workload(
            "baselines_gram",
            "dsgd, dsgd_clip and gt_nsgdm compared on nonconvex_gram, directed N=16; msgn never runs",
            baselines_gram,
            frozenset({"linalg.msgn", "diagnostics.potential"}),
        ),
    )
}


def setup(workload: Workload, seed: int, out_dir: str) -> Plan:
    """Parse the workload's configs and build every component the runner will build."""
    plan = workload.plan(seed, out_dir)
    for cfg in plan.runs:
        config.build_mixing(cfg)
        config.build_problem(cfg)
        config.build_noise(cfg)
        config.build_params(cfg)
    return plan
