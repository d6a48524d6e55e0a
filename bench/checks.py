"""Correctness checks on the artifacts one workload iteration writes.

A run is one experiment, i.e. one `summary_<id>.json`. It fails when its
artifacts hold a non-finite value, when a tracker run (`demuon`, `gt_nsgdm`)
breaks the acceptance suite's 1e-9 tolerance on the tracking or mean-iterate
residual or reports consensus-bound violations, or when its headline values
miss the recorded reference. Every run of an iteration fails when the
iteration raises, writes bytes that differ from the first iteration, or writes
a shared artifact (sweep JSON, compare CSV) with a non-finite value.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os

RESIDUAL_TOL = 1e-9
TRACKER_ALGORITHMS = ("demuon", "gt_nsgdm")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
HEADLINE = ("avg_grad_nuclear_mean", "final_objective_at_mean")


def load_reference(workload: str, seed: int):
    """(recorded headline values or None, relative tolerance, seed recorded as failing)."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    values = ref["workloads"].get(workload, {}).get(str(seed))
    return values, ref["rel_tol"], seed in ref["failing_seeds"].get(workload, [])


def run_label(summary: dict) -> str:
    return f"{summary['algorithm']}/seed={summary['seed']}/K={summary['horizon']}"


def headline(summary: dict) -> list:
    return [summary[key] for key in HEADLINE]


def digests(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _finite_json(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_json(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _finite_csv(path: str) -> bool:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return all(math.isfinite(float(cell)) for row in rows[1:] for cell in row if cell != "")


def _finite_file(path: str) -> bool:
    if path.endswith(".csv"):
        return _finite_csv(path)
    with open(path, encoding="utf-8") as fh:
        return _finite_json(json.load(fh))


def _run_problems(summary: dict, metrics_path: str, reference, rel_tol: float) -> list:
    problems = []
    if not _finite_json(summary):
        problems.append("summary holds a non-finite value")
    if not os.path.isfile(metrics_path):
        problems.append("metrics CSV missing")
    elif not _finite_csv(metrics_path):
        problems.append("metrics CSV holds a non-finite value")
    if summary["algorithm"] in TRACKER_ALGORITHMS:
        for key in ("max_tracking_residual", "max_avg_iterate_residual"):
            if not summary[key] <= RESIDUAL_TOL:
                problems.append(f"{key} {summary[key]!r} > {RESIDUAL_TOL}")
        if summary["consensus_bound_violations"] > 0:
            problems.append(f"{summary['consensus_bound_violations']} consensus-bound violations")
    if reference is not None:
        want = reference.get(run_label(summary))
        if want is None:
            problems.append("no reference recorded for this run")
        else:
            for key, got, exp in zip(HEADLINE, headline(summary), want):
                if not math.isclose(got, exp, rel_tol=rel_tol, abs_tol=0.0):
                    problems.append(f"{key} {got!r} misses reference {exp!r}")
    return problems


class IterationChecker:
    """Checks successive iterations of one workload that write to the same directory."""

    def __init__(self, out_dir: str, n_runs: int, reference, rel_tol: float):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.n_runs = n_runs
        self.reference = reference
        self.rel_tol = rel_tol
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, error: BaseException | None):
        """Check the iteration just run, or count all its runs failed when it raised `error`."""
        self.attempted += self.n_runs
        problems = self._problems(error)
        if problems:
            failing = {label for label, _ in problems}
            self.failed += self.n_runs if "*" in failing else len(failing)
            self.messages += [f"{label}: {msg}" for label, msg in problems]

    def _problems(self, error):
        if error is not None:
            return [("*", f"raised {type(error).__name__}: {error}")]
        problems = []
        summaries = sorted(glob.glob(os.path.join(self.out_dir, "summary_*.json")))
        if len(summaries) != self.n_runs:
            problems.append(("*", f"wrote {len(summaries)} summaries, expected {self.n_runs}"))
        for path in summaries:
            with open(path, encoding="utf-8") as fh:
                summary = json.load(fh)
            metrics_path = os.path.join(self.out_dir, f"metrics_{summary['run_id']}.csv")
            for msg in _run_problems(summary, metrics_path, self.reference, self.rel_tol):
                problems.append((run_label(summary), msg))
        for name in os.listdir(self.out_dir):
            if name.startswith(("sweep_", "compare_")) and not _finite_file(os.path.join(self.out_dir, name)):
                problems.append(("*", f"{name} holds a non-finite value"))
        current = digests(self.out_dir)
        if self.first_digests is None:
            self.first_digests = current
        elif current != self.first_digests:
            problems.append(("*", "artifacts differ byte-for-byte from the first iteration"))
        return problems

    def clear(self):
        """Remove the iteration's artifacts so the next one writes into an empty directory."""
        for name in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, name))
