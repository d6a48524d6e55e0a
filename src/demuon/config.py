"""Experiment configuration: INI-style sections of flat key=value pairs.

Sections and keys (defaults in brackets):

  [run]       algorithm, horizon, seed [0], out_dir [runs],
              orthogonalizer [svd], sweep []
  [topology]  family, n_nodes, weights_csv (custom only)
  [problem]   kind [quadratic], m [8], n [6], p [10],
              heterogeneity [0.5], seed [0], path (custom_file only)
  [noise]     family [gaussian], alpha [2.0], scale [0.1], dof (student_t)
  [schedule]  mode [explicit], eta [0.1], theta [0.2],
              dsgd_eta [0.01], clip_eta [10.0], clip_tau [0.1]
"""

from __future__ import annotations

import configparser
import os
from dataclasses import asdict, dataclass, replace

from . import noise as noise_mod
from . import optimizers, problems, topology

CUSTOM_FILE = "custom_file"
PROBLEM_KINDS = problems.KINDS + (CUSTOM_FILE,)


class ConfigError(ValueError):
    """A config failed validation; the message names the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    horizon: int
    seed: int = 0
    out_dir: str = "runs"
    orthogonalizer: str = "svd"
    sweep: tuple = ()
    topology_family: str = "complete"
    n_nodes: int = 4
    weights_csv: str | None = None
    problem_kind: str = problems.QUADRATIC
    m: int = 8
    n: int = 6
    p: int = 10
    heterogeneity: float = 0.5
    problem_seed: int = 0
    problem_path: str | None = None
    noise_family: str = noise_mod.GAUSSIAN
    alpha: float = 2.0
    scale: float = 0.1
    dof: float | None = None
    schedule_mode: str = "explicit"
    eta: float = 0.1
    theta: float = 0.2
    dsgd_eta: float = 0.01
    clip_eta: float = 10.0
    clip_tau: float = 0.1

    def as_dict(self) -> dict:
        out = asdict(self)
        out["sweep"] = list(self.sweep)
        return out


def _get(parser, section, key, convert, default, *, required=False):
    if not parser.has_option(section, key) or parser.get(section, key).strip() == "":
        if required:
            raise ConfigError(f"{section}.{key} is required")
        return default
    raw = parser.get(section, key).strip()
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


def _int_list(raw: str) -> tuple:
    return tuple(int(tok.strip()) for tok in raw.split(",") if tok.strip())


def parse_config(source) -> ExperimentConfig:
    """Parse a config file path or raw config text, validate, fill defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    text = source
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc

    cfg = ExperimentConfig(
        algorithm=_get(parser, "run", "algorithm", str, None, required=True),
        horizon=_get(parser, "run", "horizon", int, None, required=True),
        seed=_get(parser, "run", "seed", int, 0),
        out_dir=_get(parser, "run", "out_dir", str, "runs"),
        orthogonalizer=_get(parser, "run", "orthogonalizer", str, "svd"),
        sweep=_get(parser, "run", "sweep", _int_list, ()),
        topology_family=_get(parser, "topology", "family", str, None, required=True),
        n_nodes=_get(parser, "topology", "n_nodes", int, None, required=True),
        weights_csv=_get(parser, "topology", "weights_csv", str, None),
        problem_kind=_get(parser, "problem", "kind", str, problems.QUADRATIC),
        m=_get(parser, "problem", "m", int, 8),
        n=_get(parser, "problem", "n", int, 6),
        p=_get(parser, "problem", "p", int, 10),
        heterogeneity=_get(parser, "problem", "heterogeneity", float, 0.5),
        problem_seed=_get(parser, "problem", "seed", int, 0),
        problem_path=_get(parser, "problem", "path", str, None),
        noise_family=_get(parser, "noise", "family", str, noise_mod.GAUSSIAN),
        alpha=_get(parser, "noise", "alpha", float, 2.0),
        scale=_get(parser, "noise", "scale", float, 0.1),
        dof=_get(parser, "noise", "dof", float, None),
        schedule_mode=_get(parser, "schedule", "mode", str, "explicit"),
        eta=_get(parser, "schedule", "eta", float, 0.1),
        theta=_get(parser, "schedule", "theta", float, 0.2),
        dsgd_eta=_get(parser, "schedule", "dsgd_eta", float, 0.01),
        clip_eta=_get(parser, "schedule", "clip_eta", float, 10.0),
        clip_tau=_get(parser, "schedule", "clip_tau", float, 0.1),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig):
    """End-to-end field validation; raises ConfigError naming the bad key."""
    if cfg.algorithm not in optimizers.ALGORITHMS:
        raise ConfigError(f"run.algorithm must be one of {optimizers.ALGORITHMS}, got {cfg.algorithm!r}")
    if cfg.horizon < 1:
        raise ConfigError(f"run.horizon must be a positive integer, got {cfg.horizon}")
    if cfg.seed < 0:
        raise ConfigError(f"run.seed must be nonnegative, got {cfg.seed}")
    try:
        optimizers.parse_orthogonalizer(cfg.orthogonalizer)
    except ValueError as exc:
        raise ConfigError(f"run.orthogonalizer: {exc}") from exc
    if any(k < 1 for k in cfg.sweep):
        raise ConfigError(f"run.sweep entries must be positive integers, got {list(cfg.sweep)}")

    if cfg.topology_family not in topology.FAMILIES:
        raise ConfigError(
            f"topology.family must be one of {topology.FAMILIES}, got {cfg.topology_family!r}"
        )
    if cfg.n_nodes < 1:
        raise ConfigError(f"topology.n_nodes must be positive, got {cfg.n_nodes}")
    if cfg.topology_family == topology.CUSTOM and not cfg.weights_csv:
        raise ConfigError("topology.weights_csv is required for the custom family")

    if cfg.problem_kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {cfg.problem_kind!r}")
    if cfg.problem_kind == CUSTOM_FILE and not cfg.problem_path:
        raise ConfigError("problem.path is required for kind custom_file")
    if min(cfg.m, cfg.n, cfg.p) < 1:
        raise ConfigError(f"problem dimensions must be positive, got m={cfg.m} n={cfg.n} p={cfg.p}")
    if cfg.heterogeneity < 0:
        raise ConfigError(f"problem.heterogeneity must be nonnegative, got {cfg.heterogeneity}")

    if cfg.noise_family not in noise_mod.FAMILIES:
        raise ConfigError(f"noise.family must be one of {noise_mod.FAMILIES}, got {cfg.noise_family!r}")
    if not 1.0 < cfg.alpha <= 2.0:
        raise ConfigError(f"noise.alpha must lie in (1, 2], got {cfg.alpha}")
    if cfg.scale < 0:
        raise ConfigError(f"noise.scale must be nonnegative, got {cfg.scale}")
    if cfg.noise_family == noise_mod.GAUSSIAN and cfg.alpha != 2.0:
        raise ConfigError("noise.alpha must equal 2 for the gaussian family")
    if cfg.noise_family == noise_mod.STUDENT_T:
        if cfg.dof is None:
            raise ConfigError("noise.dof is required for the student_t family")
        if cfg.dof <= cfg.alpha:
            raise ConfigError(f"noise.dof must exceed alpha, got dof={cfg.dof} alpha={cfg.alpha}")

    if cfg.schedule_mode not in ("explicit", "theorem"):
        raise ConfigError(f"schedule.mode must be 'explicit' or 'theorem', got {cfg.schedule_mode!r}")
    if cfg.schedule_mode == "theorem":
        if cfg.algorithm not in optimizers.TRACKER_ALGORITHMS:
            raise ConfigError("schedule.mode=theorem only applies to demuon or gt_nsgdm")
        horizons = cfg.sweep or (cfg.horizon,)
        if min(horizons) < 4:
            raise ConfigError("schedule.mode=theorem requires every horizon K >= 4")
    if cfg.eta <= 0:
        raise ConfigError(f"schedule.eta must be positive, got {cfg.eta}")
    if not 0.0 < cfg.theta < 1.0:
        raise ConfigError(f"schedule.theta: theta must lie in (0,1), got {cfg.theta}")
    for key in ("dsgd_eta", "clip_eta", "clip_tau"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"schedule.{key} must be positive, got {getattr(cfg, key)}")


def build_mixing(cfg: ExperimentConfig) -> topology.MixingSpec:
    if cfg.topology_family == topology.CUSTOM:
        spec = topology.load_mixing_csv(cfg.weights_csv)
        if spec.n_nodes != cfg.n_nodes:
            raise ConfigError(
                f"topology.n_nodes={cfg.n_nodes} but {cfg.weights_csv} has {spec.n_nodes} nodes"
            )
        return spec
    return topology.build_family(cfg.topology_family, cfg.n_nodes)


def build_problem(cfg: ExperimentConfig) -> problems.ProblemSet:
    if cfg.problem_kind == CUSTOM_FILE:
        problem = problems.load_problem(cfg.problem_path)
    elif cfg.problem_kind == problems.QUADRATIC:
        problem = problems.make_quadratic(
            cfg.n_nodes, cfg.m, cfg.n, cfg.p, cfg.heterogeneity, cfg.problem_seed
        )
    else:
        problem = problems.make_nonconvex_gram(
            cfg.n_nodes, cfg.m, cfg.n, cfg.heterogeneity, cfg.problem_seed
        )
    if problem.n_nodes != cfg.n_nodes:
        raise ConfigError(
            f"problem has {problem.n_nodes} nodes but topology.n_nodes={cfg.n_nodes}"
        )
    return problem


def build_noise(cfg: ExperimentConfig) -> noise_mod.NoiseModel:
    return noise_mod.NoiseModel(
        family=cfg.noise_family,
        alpha=cfg.alpha,
        scale=cfg.scale,
        dof=cfg.dof,
        base_seed=cfg.seed,
    )


def build_params(cfg: ExperimentConfig):
    """Schedule for tracker algorithms, baseline constants for the rest."""
    if cfg.algorithm in optimizers.TRACKER_ALGORITHMS:
        if cfg.schedule_mode == "theorem":
            return optimizers.theoretical_schedule(cfg.horizon, cfg.alpha)
        return optimizers.ScheduleParams(cfg.eta, cfg.theta, cfg.horizon, cfg.alpha)
    return optimizers.BaselineParams(
        dsgd_eta=cfg.dsgd_eta, clip_eta=cfg.clip_eta, clip_tau=cfg.clip_tau,
    )


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    """Copy the config with kwargs applied (None values are ignored), revalidated."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    out = replace(cfg, **updates)
    validate_config(out)
    return out
