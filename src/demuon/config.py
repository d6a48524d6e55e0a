"""Experiment configuration: INI-style sections of flat key=value pairs.

`_FORMAT` declares the file format, one (section, key) -> field entry per
key; `ExperimentConfig` holds every default, and README "Config format"
lists the keys with their ranges. `validate_config` checks a rule that a
component owns by building that component or calling its check (the noise
model, the schedule, the baseline constants, the topology's node-count rule,
the problem's size rules), so validation and the run apply the same rule.
For the same reason it loads the files a config names, a custom family's
weights and a custom_file problem, as the build functions do.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import asdict, dataclass, replace

from . import noise as noise_mod
from . import optimizers, problems, topology

CUSTOM_FILE = "custom_file"
PROBLEM_KINDS = problems.KINDS + (CUSTOM_FILE,)


# Largest array, in float64 entries, that a config may ask for: the N x N
# mixing matrix, the (N, m, n) stacks of a run and the problem's node data
# each stay within it (2**25 entries are 256 MiB). Far above every config the
# lab runs, far below one that cannot be allocated.
MAX_ENTRIES = 2**25


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


def _int_list(raw: str) -> tuple:
    return tuple(int(tok.strip()) for tok in raw.split(",") if tok.strip())


# The file format: (section, key) -> (ExperimentConfig field, converter).
_FORMAT = {
    ("run", "algorithm"): ("algorithm", str),
    ("run", "horizon"): ("horizon", int),
    ("run", "seed"): ("seed", int),
    ("run", "out_dir"): ("out_dir", str),
    ("run", "orthogonalizer"): ("orthogonalizer", str),
    ("run", "sweep"): ("sweep", _int_list),
    ("topology", "family"): ("topology_family", str),
    ("topology", "n_nodes"): ("n_nodes", int),
    ("topology", "weights_csv"): ("weights_csv", str),
    ("problem", "kind"): ("problem_kind", str),
    ("problem", "m"): ("m", int),
    ("problem", "n"): ("n", int),
    ("problem", "p"): ("p", int),
    ("problem", "heterogeneity"): ("heterogeneity", float),
    ("problem", "seed"): ("problem_seed", int),
    ("problem", "path"): ("problem_path", str),
    ("noise", "family"): ("noise_family", str),
    ("noise", "alpha"): ("alpha", float),
    ("noise", "scale"): ("scale", float),
    ("noise", "dof"): ("dof", float),
    ("schedule", "mode"): ("schedule_mode", str),
    ("schedule", "eta"): ("eta", float),
    ("schedule", "theta"): ("theta", float),
    ("schedule", "dsgd_eta"): ("dsgd_eta", float),
    ("schedule", "clip_eta"): ("clip_eta", float),
    ("schedule", "clip_tau"): ("clip_tau", float),
}
_REQUIRED = (("run", "algorithm"), ("run", "horizon"), ("topology", "family"), ("topology", "n_nodes"))


def parse_config(source) -> ExperimentConfig:
    """Parse a config file path or raw config text, fill defaults, validate.

    An empty value leaves the key unset; an unknown section or key is an error.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    text = source
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc

    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    values = {}
    for section in parser.sections():
        if section not in {known for known, _ in _FORMAT}:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _FORMAT:
                raise ConfigError(f"unknown key {section}.{key}")
            if raw.strip():
                field, convert = _FORMAT[section, key]
                try:
                    values[field] = convert(raw.strip())
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key}: {exc}") from exc
    for section, key in _REQUIRED:
        if _FORMAT[section, key][0] not in values:
            raise ConfigError(f"{section}.{key} is required")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def _checked(section: str, check, *args):
    """`check(*args)`, with its ValueError turned into a ConfigError naming the key.

    Component messages start with the offending field, which is the key in
    `section`; the noise model's `base_seed` is `run.seed`.
    """
    try:
        return check(*args)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        key = "run.seed" if field == "base_seed" else f"{section}.{field}"
        raise ConfigError(f"{key} {rest}") from exc


def validate_config(cfg: ExperimentConfig):
    """Field validation; raises ConfigError naming the bad key.

    It builds no matrix, except that it loads a custom family's weights file
    and a custom_file problem as `build_mixing` and `build_problem` do, so a
    file that they would reject fails here.

    Beside the field ranges, no array the config asks for (mixing matrix,
    node stacks, problem data) may exceed MAX_ENTRIES entries.
    """
    if cfg.algorithm not in optimizers.ALGORITHMS:
        raise ConfigError(f"run.algorithm must be one of {optimizers.ALGORITHMS}, got {cfg.algorithm!r}")
    if cfg.horizon < 1:
        raise ConfigError(f"run.horizon must be a positive integer, got {cfg.horizon}")
    _checked("run", optimizers.parse_orthogonalizer, cfg.orthogonalizer)
    if any(k < 1 for k in cfg.sweep):
        raise ConfigError(f"run.sweep entries must be positive integers, got {list(cfg.sweep)}")

    _checked("topology", topology.check_node_count, cfg.topology_family, cfg.n_nodes)
    if cfg.topology_family == topology.CUSTOM:
        _custom_mixing(cfg)

    if cfg.problem_kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {cfg.problem_kind!r}")
    if cfg.problem_kind == CUSTOM_FILE:
        _custom_problem(cfg)
    _checked(
        "problem", problems.check_problem_args, cfg.n_nodes, cfg.m, cfg.n, cfg.p, cfg.heterogeneity, cfg.problem_seed
    )
    _check_sizes(cfg)

    _checked("noise", build_noise, cfg)

    if cfg.schedule_mode not in ("explicit", "theorem"):
        raise ConfigError(f"schedule.mode must be 'explicit' or 'theorem', got {cfg.schedule_mode!r}")
    if cfg.schedule_mode == "theorem":
        if cfg.algorithm not in optimizers.TRACKER_ALGORITHMS:
            raise ConfigError("schedule.mode=theorem only applies to demuon or gt_nsgdm")
        if min(cfg.sweep or (cfg.horizon,)) < 4:
            raise ConfigError("schedule.mode=theorem requires every horizon K >= 4")
    # Stricter than ScheduleParams, which also takes theta = 1.
    if not 0.0 < cfg.theta < 1.0:
        raise ConfigError(f"schedule.theta: theta must lie in (0,1), got {cfg.theta}")
    _checked("schedule", optimizers.ScheduleParams, cfg.eta, cfg.theta)
    _checked("schedule", optimizers.BaselineParams, cfg.dsgd_eta, cfg.clip_eta, cfg.clip_tau)


def _check_sizes(cfg: ExperimentConfig):
    """Raise ConfigError naming the key of the first array the config would make above MAX_ENTRIES."""
    n_nodes, m, n, p = cfg.n_nodes, cfg.m, cfg.n, cfg.p
    arrays = [("topology.n_nodes", n_nodes, "an N x N mixing matrix", n_nodes * n_nodes)]
    if cfg.problem_kind != CUSTOM_FILE:  # a problem file sets its own sizes
        key, value = ("problem.m", m) if m >= n else ("problem.n", n)
        arrays.append((key, value, "an (N, m, n) node stack", n_nodes * m * n))
        if cfg.problem_kind == problems.QUADRATIC:
            arrays.append(("problem.p", p, "(N, p, m) and (N, p, n) node data", n_nodes * p * max(m, n)))
        else:
            arrays.append(("problem.m", m, "(N, m, m) node data", n_nodes * m * m))
    for key, value, what, entries in arrays:
        if entries > MAX_ENTRIES:
            raise ConfigError(
                f"{key} = {value} gives {what} of {entries} entries, above the limit of {MAX_ENTRIES}"
            )


def _custom_mixing(cfg: ExperimentConfig) -> topology.MixingSpec:
    """The custom family's weights; ConfigError naming topology.weights_csv unless they load for N nodes."""
    if not cfg.weights_csv:
        raise ConfigError("topology.weights_csv is required for the custom family")
    try:
        spec = topology.load_mixing_csv(cfg.weights_csv)
    except topology.InvalidMixingError as exc:
        raise ConfigError(f"topology.weights_csv: {exc}") from exc
    if spec.n_nodes != cfg.n_nodes:
        raise ConfigError(
            f"topology.weights_csv: {cfg.weights_csv} has {spec.n_nodes} nodes but topology.n_nodes={cfg.n_nodes}"
        )
    return spec


def _custom_problem(cfg: ExperimentConfig) -> problems.ProblemSet:
    """The custom_file problem; ConfigError naming problem.path if it does not load, topology.n_nodes if N differs."""
    if not cfg.problem_path:
        raise ConfigError("problem.path is required for kind custom_file")
    try:
        problem = problems.load_problem(cfg.problem_path)
    except (OSError, problems.ProblemFormatError) as exc:
        raise ConfigError(f"problem.path: {exc}") from exc
    if problem.n_nodes != cfg.n_nodes:
        raise ConfigError(
            f"topology.n_nodes = {cfg.n_nodes}, but problem.path {cfg.problem_path} has {problem.n_nodes} nodes"
        )
    return problem


def build_mixing(cfg: ExperimentConfig) -> topology.MixingSpec:
    if cfg.topology_family == topology.CUSTOM:
        return _custom_mixing(cfg)
    return topology.build_family(cfg.topology_family, cfg.n_nodes)


def build_problem(cfg: ExperimentConfig) -> problems.ProblemSet:
    if cfg.problem_kind == CUSTOM_FILE:
        return _custom_problem(cfg)
    if cfg.problem_kind == problems.QUADRATIC:
        return problems.make_quadratic(cfg.n_nodes, cfg.m, cfg.n, cfg.p, cfg.heterogeneity, cfg.problem_seed)
    return problems.make_nonconvex_gram(cfg.n_nodes, cfg.m, cfg.n, cfg.heterogeneity, cfg.problem_seed)


def build_noise(cfg: ExperimentConfig) -> noise_mod.NoiseModel:
    return noise_mod.NoiseModel(cfg.noise_family, cfg.alpha, cfg.scale, cfg.dof, base_seed=cfg.seed)


def build_params(cfg: ExperimentConfig):
    """Schedule for tracker algorithms, baseline constants for the rest."""
    if cfg.algorithm in optimizers.TRACKER_ALGORITHMS:
        if cfg.schedule_mode == "theorem":
            return optimizers.theoretical_schedule(cfg.horizon, cfg.alpha)
        return optimizers.ScheduleParams(cfg.eta, cfg.theta)
    return optimizers.BaselineParams(cfg.dsgd_eta, cfg.clip_eta, cfg.clip_tau)


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    """Copy the config with kwargs applied (None values are ignored), revalidated."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    out = replace(cfg, **updates)
    validate_config(out)
    return out
