"""Record the headline values every workload reaches at each seed into `reference.json`.

    python3 bench/record_reference.py [--seeds 100] [--workload NAME ...]

The benchmark fails a run whose `avg_grad_nuclear_mean` or
`final_objective_at_mean` differs from the recorded value by more than
`rel_tol` (relative). Seeds without a record skip only that check. A seed on
which the workload fails its checks gets no record and is listed under
`failing_seeds`. Record again only when a change is meant to alter the
trajectories, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import bootstrap

REL_TOL = 1e-6


def record(name: str, seed: int, out_dir: str) -> dict:
    from checks import IterationChecker, headline, run_label
    from workloads import WORKLOADS

    plan = WORKLOADS[name].plan(seed, out_dir)
    checker = IterationChecker(out_dir, len(plan.runs), None, REL_TOL)
    checker.clear()
    try:
        plan.call()
    except Exception as exc:  # recorded as a failing seed
        checker.record(exc)
    else:
        checker.record(None)
    if checker.messages:
        print(f"{name} seed={seed} fails its checks: {checker.messages}", file=sys.stderr)
        return None
    values = {}
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("summary_"):
            with open(os.path.join(out_dir, fname), encoding="utf-8") as fh:
                summary = json.load(fh)
            values[run_label(summary)] = headline(summary)
    return values


def _store(name: str, values: dict, failing: list):
    """Replace one workload's records in the file, keeping the other workloads'."""
    from checks import REFERENCE_PATH

    ref = {"workloads": {}, "failing_seeds": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref["rel_tol"] = REL_TOL
    ref["workloads"][name] = values
    ref["failing_seeds"][name] = failing
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="record seeds 0 .. SEEDS-1")
    parser.add_argument("--workload", nargs="*", help="workloads to record (default: all)")
    args = parser.parse_args(argv)
    bootstrap.prepare()
    from workloads import WORKLOADS

    out_dir = os.path.join(bootstrap.SCRATCH, f"reference-p{os.getpid()}")
    try:
        for name in args.workload or WORKLOADS:
            values = {seed: record(name, seed, out_dir) for seed in range(args.seeds)}
            failing = [seed for seed, v in values.items() if v is None]
            _store(name, {str(seed): v for seed, v in values.items() if v is not None}, failing)
            print(f"{name}: seeds 0..{args.seeds - 1} recorded, failing {failing}", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
