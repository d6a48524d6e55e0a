"""Experiment execution: builds components from a config and writes artifacts.

Artifacts are deterministic for a given (config, seed): the metrics CSV and
summary JSON are byte-identical across reruns and sweep worker counts. The
per-row wall_time_ms column is therefore left blank unless timing recording
is explicitly requested (which trades the byte-identity guarantee away).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, replace

from . import config as config_mod
from . import diagnostics, optimizers

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


@functools.cache
def version_hash() -> str:
    """Digest of the package sources, embedded in summaries; read on the first call only, once per process."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(_PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(_PACKAGE_DIR, name), "rb") as fh:
                digest.update(name.encode())
                digest.update(fh.read())
    return digest.hexdigest()[:12]


def run_id(cfg: config_mod.ExperimentConfig) -> str:
    """Stable identifier of the experiment: the config (seed included) but `out_dir`, which only places its files."""
    settings = cfg.as_dict()
    del settings["out_dir"]
    canon = json.dumps(settings, sort_keys=True, separators=(",", ":"))
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
    return _execute_lanes([cfg], record_timing)[0]


def _execute_lanes(cfgs, record_timing: bool = False) -> list:
    """Run configs that share problem, topology, noise and seed as lanes of one engine pass.

    The callers validate the configs. Each lane runs its config's horizon.
    Problem, mixing and noise are built once, from the first config.
    Artifacts are written in config order and are those of `execute` on each
    config in turn: when a lane diverges, the lanes before it write full
    artifacts, it writes its finished rows and a diverged summary, the lanes
    after it write nothing, and the Diverged is re-raised.
    """
    base = cfgs[0]
    mixing = config_mod.build_mixing(base)
    problem = config_mod.build_problem(base)
    noise_model = config_mod.build_noise(base)
    lanes = [
        optimizers.Lane(cfg.algorithm, config_mod.build_params(cfg), cfg.orthogonalizer, horizon=cfg.horizon)
        for cfg in cfgs
    ]
    version = version_hash()
    try:
        results = optimizers.run(lanes, problem, mixing, noise_model)
    except optimizers.Diverged as exc:
        for cfg, result in zip(cfgs, exc.finished + [exc]):
            _write_artifacts(cfg, result, version, record_timing)
        raise
    return [_write_artifacts(cfg, result, version, record_timing) for cfg, result in zip(cfgs, results)]


def _write_artifacts(cfg, result, version: str, record_timing: bool) -> ExecuteOutcome | None:
    """Write a run's metrics CSV and summary JSON; `result` is its RunResult, or the Diverged it raised.

    Either one holds the run's rows in `rows`.
    """
    rid = run_id(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, f"metrics_{rid}.csv")
    summary_path = os.path.join(cfg.out_dir, f"summary_{rid}.json")
    summary = {
        "run_id": rid,
        "algorithm": cfg.algorithm,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "orthogonalizer": cfg.orthogonalizer,
        "config": cfg.as_dict(),
        "version": version,
    }
    _write_metrics_csv(metrics_path, result.rows, record_timing)
    if isinstance(result, optimizers.Diverged):
        summary.update(status="diverged", iteration=result.iteration, node=result.node, quantity=result.quantity)
        _write_json(summary_path, summary)
        return None
    summary.update(
        mixing_rate=result.mixing_rate,
        iota=result.iota,
        grad_nuclear_at_iota=result.grad_nuclear_at_iota,
        avg_grad_nuclear_mean=result.avg_grad_nuclear_mean,
        final_avg_grad_nuclear=result.rows[-1].avg_grad_nuclear,
        final_objective_at_mean=result.rows[-1].objective_at_mean,
        consensus_bound_violations=result.consensus_violations,
        max_tracking_residual=result.max_tracking_residual,
        max_avg_iterate_residual=result.max_avg_iterate_residual,
        noise_alpha_moment=result.noise_alpha_moment,
        ball_exited=result.ball_exited,
    )
    if record_timing:
        summary["total_wall_time_ms"] = sum(r.wall_time_ms or 0.0 for r in result.rows)
    _write_json(summary_path, summary)
    return ExecuteOutcome(rid, metrics_path, summary_path, result)


def sweep(cfg: config_mod.ExperimentConfig, record_timing: bool = False, workers: int = 1):
    """Run the config once per sweep horizon; returns outcomes plus a sweep summary path.

    The horizons run as lanes of one engine pass (see `_execute_lanes`), each
    retiring at its own K, and each writes its own artifacts, those of
    `execute` at that horizon. A Diverged has the outcome of running the
    horizons one after another in `cfg.sweep` order, and no sweep summary is
    written. Outcomes and the sweep summary are in ascending horizon order.
    `workers` is accepted for compatibility and has no effect.
    """
    # The sweep's rules cover every horizon, and the per-horizon configs
    # differ from `cfg` only there, so one validation covers them all.
    config_mod.validate_config(cfg)
    horizons = cfg.sweep or (cfg.horizon,)
    distinct = list(dict.fromkeys(horizons))
    cfgs = [replace(cfg, horizon=k, sweep=()) for k in distinct]
    outcomes = dict(zip(distinct, _execute_lanes(cfgs, record_timing)))

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


# What `_execute_lanes` builds once from the first config, the noise's seed and the aligned CSV's horizon.
_SHARED_KEYS = tuple(
    field for (section, key), (field, _) in config_mod._FORMAT.items()
    if section in ("topology", "problem", "noise") or (section, key) in (("run", "horizon"), ("run", "seed"))
)


def compare(cfgs, out_dir: str | None = None) -> str:
    """Run >= 2 configs sharing problem/topology/seed; write aligned per-iteration CSV.

    The configs run as lanes of one engine pass, so each round's noise is
    drawn and measured once; their artifacts are those of `execute` on each
    config in turn. A Diverged is re-raised and no compare CSV is written.
    """
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
    for cfg in cfgs:
        config_mod.validate_config(cfg)

    outcomes = _execute_lanes(cfgs)
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
