"""Command-line experiment runner.

Verbs:
  run <config>          execute one run, write metrics CSV + summary JSON
  sweep <config>        execute the config's horizon sweep
  compare <config>...   run >= 2 configs on a shared problem, aligned CSV
  validate <config>     parse + validate, print the resolved config

Failures print a machine-readable error JSON to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config as config_mod
from . import runner
from .optimizers import Diverged


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--out-dir", default=None, help="override run.out_dir")
    parser.add_argument(
        "--orthogonalizer",
        default=None,
        metavar="{svd,ns:<iters>}",
        help="override run.orthogonalizer",
    )
    parser.add_argument(
        "--record-timing",
        action="store_true",
        help="record measured per-iteration wall time in the CSV "
        "(forfeits byte-identical reruns)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="demuon", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a single run")
    p_run.add_argument("config")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="execute the config's horizon sweep")
    p_sweep.add_argument("config")
    _add_common(p_sweep)

    p_cmp = sub.add_parser("compare", help="run several configs on a shared problem")
    p_cmp.add_argument("configs", nargs="+")
    p_cmp.add_argument("--seed", type=int, default=None, help="override run.seed")
    p_cmp.add_argument("--out-dir", default=None, help="comparison CSV directory")

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")
    return parser


def _parse(path) -> config_mod.ExperimentConfig:
    """Parse the config file at `path`; a missing file raises FileNotFoundError naming it."""
    with open(path, encoding="utf-8") as fh:
        return config_mod.parse_config(fh.read())


def _load(path, args) -> config_mod.ExperimentConfig:
    cfg = _parse(path)
    return config_mod.with_overrides(
        cfg,
        seed=getattr(args, "seed", None),
        out_dir=getattr(args, "out_dir", None),
        orthogonalizer=getattr(args, "orthogonalizer", None),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            outcome = runner.execute(_load(args.config, args), record_timing=args.record_timing)
            print(outcome.metrics_path)
            print(outcome.summary_path)
        elif args.verb == "sweep":
            outcomes, sweep_path = runner.sweep(_load(args.config, args), record_timing=args.record_timing)
            for outcome in outcomes:
                print(outcome.metrics_path)
            print(sweep_path)
        elif args.verb == "compare":
            cfgs = [_load(path, args) for path in args.configs]
            print(runner.compare(cfgs, out_dir=args.out_dir))
        elif args.verb == "validate":
            cfg = _parse(args.config)
            print(json.dumps(cfg.as_dict(), sort_keys=True, indent=2))
    except Exception as exc:  # noqa: BLE001 - every failure becomes an error JSON
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Diverged):
            payload.update(
                algorithm=exc.algorithm, iteration=exc.iteration, node=exc.node, quantity=exc.quantity
            )
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
