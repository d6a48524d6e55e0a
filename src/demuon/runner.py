"""Experiment execution: builds components from a config and writes artifacts.

Artifacts are deterministic for a given (config, seed): the metrics CSV and
summary JSON are byte-identical across reruns and sweep worker counts. The
per-row wall_time_ms column is therefore left blank unless timing recording
is explicitly requested (which trades the byte-identity guarantee away).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import config as config_mod
from . import diagnostics, optimizers

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def version_hash() -> str:
    """Digest of the package sources, embedded in summaries for traceability."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(_PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(_PACKAGE_DIR, name), "rb") as fh:
                digest.update(name.encode())
                digest.update(fh.read())
    return digest.hexdigest()[:12]


def run_id(cfg: config_mod.ExperimentConfig) -> str:
    """Stable identifier derived from the full config (seed included)."""
    canon = json.dumps(cfg.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class ExecuteOutcome:
    run_id: str
    metrics_path: str
    summary_path: str
    result: optimizers.RunResult


def _write_metrics_csv(path: str, rows, record_timing: bool):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(diagnostics.csv_header() + "\n")
        for row in rows:
            fh.write(row.csv_line(include_timing=record_timing) + "\n")


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def execute(cfg: config_mod.ExperimentConfig, record_timing: bool = False) -> ExecuteOutcome:
    """Run one experiment and write metrics_<id>.csv and summary_<id>.json.

    A run that raises Diverged still writes the rows of the rounds it
    finished and a summary with "status": "diverged" naming the iteration,
    node and quantity; the error is then re-raised.
    """
    config_mod.validate_config(cfg)
    mixing = config_mod.build_mixing(cfg)
    problem = config_mod.build_problem(cfg)
    noise_model = config_mod.build_noise(cfg)
    params = config_mod.build_params(cfg)

    rid = run_id(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, f"metrics_{rid}.csv")
    summary_path = os.path.join(cfg.out_dir, f"summary_{rid}.json")
    rows = []
    try:
        result = optimizers.run(
            cfg.algorithm,
            problem,
            mixing,
            noise_model,
            params,
            horizon=cfg.horizon,
            seed=cfg.seed,
            orthogonalizer=cfg.orthogonalizer,
            sink=rows.append,
        )
    except optimizers.Diverged as exc:
        _write_metrics_csv(metrics_path, rows, record_timing)
        _write_json(
            summary_path,
            {
                "run_id": rid,
                "algorithm": exc.algorithm,
                "horizon": cfg.horizon,
                "seed": cfg.seed,
                "status": "diverged",
                "iteration": exc.iteration,
                "node": exc.node,
                "quantity": exc.quantity,
                "orthogonalizer": cfg.orthogonalizer,
                "config": cfg.as_dict(),
                "version": version_hash(),
            },
        )
        raise
    _write_metrics_csv(metrics_path, rows, record_timing)

    summary = {
        "run_id": rid,
        "algorithm": cfg.algorithm,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "mixing_rate": result.mixing_rate,
        "iota": result.iota,
        "grad_nuclear_at_iota": result.grad_nuclear_at_iota,
        "avg_grad_nuclear_mean": result.avg_grad_nuclear_mean,
        "final_avg_grad_nuclear": result.rows[-1].avg_grad_nuclear,
        "final_objective_at_mean": result.rows[-1].objective_at_mean,
        "consensus_bound_violations": result.consensus_violations,
        "max_tracking_residual": result.max_tracking_residual,
        "max_avg_iterate_residual": result.max_avg_iterate_residual,
        "noise_alpha_moment": result.noise_alpha_moment,
        "ball_exited": result.ball_exited,
        "orthogonalizer": cfg.orthogonalizer,
        "config": cfg.as_dict(),
        "version": version_hash(),
    }
    if record_timing:
        summary["total_wall_time_ms"] = sum(r.wall_time_ms or 0.0 for r in result.rows)
    _write_json(summary_path, summary)
    return ExecuteOutcome(rid, metrics_path, summary_path, result)


def _execute_for_horizon(args):
    cfg, horizon, record_timing = args
    sub = config_mod.with_overrides(cfg, horizon=horizon, sweep=())
    return horizon, execute(sub, record_timing)


def sweep(cfg: config_mod.ExperimentConfig, record_timing: bool = False, workers: int = 1):
    """Run the config once per sweep horizon; returns outcomes plus a sweep summary path.

    Each run writes its own artifacts; results are assembled in horizon
    order, so the sweep summary does not depend on the worker count.
    """
    horizons = cfg.sweep or (cfg.horizon,)
    jobs = [(cfg, k, record_timing) for k in horizons]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = dict(pool.map(_execute_for_horizon, jobs))
    else:
        outcomes = dict(map(_execute_for_horizon, jobs))

    per_k = []
    for k in sorted(horizons):
        out = outcomes[k]
        per_k.append(
            {
                "horizon": k,
                "run_id": out.run_id,
                "avg_grad_nuclear_mean": out.result.avg_grad_nuclear_mean,
                "grad_nuclear_at_iota": out.result.grad_nuclear_at_iota,
                "iota": out.result.iota,
            }
        )
    sweep_payload = {
        "sweep": per_k,
        "config": cfg.as_dict(),
        "version": version_hash(),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    sweep_path = os.path.join(cfg.out_dir, f"sweep_{run_id(cfg)}.json")
    _write_json(sweep_path, sweep_payload)
    return [outcomes[k] for k in sorted(horizons)], sweep_path


_SHARED_KEYS = (
    "horizon", "seed", "topology_family", "n_nodes", "weights_csv",
    "problem_kind", "m", "n", "p", "heterogeneity", "problem_seed",
    "problem_path", "noise_family", "alpha", "scale", "dof",
)


def compare(cfgs, out_dir: str | None = None) -> str:
    """Run >= 2 configs sharing problem/topology/seed; write aligned per-iteration CSV."""
    cfgs = list(cfgs)
    if len(cfgs) < 2:
        raise config_mod.ConfigError("compare needs at least 2 configs")
    base = cfgs[0]
    for i, other in enumerate(cfgs[1:], start=2):
        for key in _SHARED_KEYS:
            if getattr(base, key) != getattr(other, key):
                raise config_mod.ConfigError(
                    f"compare config #{i} differs on {key}: "
                    f"{getattr(base, key)!r} vs {getattr(other, key)!r}"
                )
    labels = []
    for i, c in enumerate(cfgs):
        label = c.algorithm
        if label in labels:
            label = f"{label}_{i}"
        labels.append(label)

    outcomes = [execute(c) for c in cfgs]
    out_dir = out_dir or base.out_dir
    os.makedirs(out_dir, exist_ok=True)
    tag = hashlib.sha256("|".join(run_id(c) for c in cfgs).encode()).hexdigest()[:12]
    path = os.path.join(out_dir, f"compare_{tag}.csv")
    header = ["iter"]
    for label in labels:
        header += [f"{label}_avg_grad_nuclear", f"{label}_objective_at_mean"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(base.horizon):
            cells = [str(k)]
            for out in outcomes:
                row = out.result.rows[k]
                cells += [repr(float(row.avg_grad_nuclear)), repr(float(row.objective_at_mean))]
            fh.write(",".join(cells) + "\n")
    return path
