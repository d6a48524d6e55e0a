import numpy as np
import pytest

from demuon.config import (
    ConfigError,
    build_mixing,
    build_noise,
    build_params,
    build_problem,
    parse_config,
    validate_config,
    with_overrides,
)
from demuon.optimizers import BaselineParams, ScheduleParams, theoretical_schedule

MINIMAL = """
[run]
algorithm = demuon
horizon = 10

[topology]
family = ring
n_nodes = 4
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.algorithm == "demuon"
    assert cfg.horizon == 10
    assert cfg.seed == 0
    assert cfg.eta == 0.1 and cfg.theta == 0.2
    assert cfg.dsgd_eta == 0.01
    assert cfg.clip_eta == 10.0 and cfg.clip_tau == 0.1
    assert cfg.problem_kind == "quadratic"
    assert cfg.noise_family == "gaussian" and cfg.alpha == 2.0
    assert cfg.orthogonalizer == "svd"
    assert cfg.sweep == ()


def test_theta_out_of_range_message():
    text = MINIMAL + "\n[schedule]\ntheta = 1.2\n"
    with pytest.raises(ConfigError, match=r"theta must lie in \(0,1\)"):
        parse_config(text)


def test_sweep_parsing():
    cfg = parse_config(MINIMAL.replace("horizon = 10", "horizon = 10\nsweep = 16, 64, 256"))
    assert cfg.sweep == (16, 64, 256)


def test_validation_names_offending_keys():
    bad_alg = MINIMAL.replace("algorithm = demuon", "algorithm = adamw")
    with pytest.raises(ConfigError, match="run.algorithm"):
        parse_config(bad_alg)
    with pytest.raises(ConfigError, match="run.horizon"):
        parse_config(MINIMAL.replace("horizon = 10", "horizon = 0"))
    with pytest.raises(ConfigError, match="topology.family"):
        parse_config(MINIMAL.replace("family = ring", "family = mesh"))
    with pytest.raises(ConfigError, match="noise.dof"):
        parse_config(MINIMAL + "\n[noise]\nfamily = student_t\nalpha = 1.5\n")
    with pytest.raises(ConfigError, match="run.orthogonalizer"):
        parse_config(MINIMAL.replace("horizon = 10", "horizon = 10\northogonalizer = qr"))


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="run.algorithm"):
        parse_config("[run]\nhorizon = 5\n[topology]\nfamily = ring\nn_nodes = 4\n")
    with pytest.raises(ConfigError, match="topology.n_nodes"):
        parse_config("[run]\nalgorithm = dsgd\nhorizon = 5\n[topology]\nfamily = ring\n")


def test_theorem_mode_restrictions():
    theorem = MINIMAL + "\n[schedule]\nmode = theorem\n"
    cfg = parse_config(theorem)
    params = build_params(cfg)
    assert isinstance(params, ScheduleParams)
    assert params.derived_from_theorem
    with pytest.raises(ConfigError, match="theorem"):
        parse_config(theorem.replace("algorithm = demuon", "algorithm = dsgd"))
    with pytest.raises(ConfigError, match="K >= 4"):
        parse_config(theorem.replace("horizon = 10", "horizon = 3"))


def test_build_params_baselines():
    cfg = parse_config(MINIMAL.replace("algorithm = demuon", "algorithm = gt_nsgdm"))
    params = build_params(cfg)
    assert isinstance(params, ScheduleParams)
    assert params.eta == 0.1 and params.theta == 0.2
    theorem = MINIMAL.replace("algorithm = demuon", "algorithm = gt_nsgdm") + "\n[schedule]\nmode = theorem\n"
    assert build_params(parse_config(theorem)) == theoretical_schedule(10, 2.0)
    cfg_clip = parse_config(MINIMAL.replace("algorithm = demuon", "algorithm = dsgd_clip"))
    params_clip = build_params(cfg_clip)
    assert isinstance(params_clip, BaselineParams)
    assert params_clip.clip_eta == 10.0 and params_clip.clip_tau == 0.1


def test_build_components():
    cfg = parse_config(MINIMAL)
    mixing = build_mixing(cfg)
    assert mixing.n_nodes == 4 and mixing.family == "ring"
    problem = build_problem(cfg)
    assert problem.n_nodes == 4
    noise = build_noise(cfg)
    assert noise.base_seed == cfg.seed
    assert noise.scale == 0.1


def test_custom_topology_round_trip(tmp_path):
    from demuon.topology import build_ring

    w_path = tmp_path / "w.csv"
    np.savetxt(w_path, build_ring(4).weights, delimiter=",")
    text = MINIMAL.replace("family = ring", f"family = custom\nweights_csv = {w_path}")
    cfg = parse_config(text)
    mixing = build_mixing(cfg)
    assert mixing.family == "custom"
    assert mixing.mixing_rate == pytest.approx(1.0 / 3.0, abs=1e-10)

    mismatched = text.replace("n_nodes = 4", "n_nodes = 8")
    with pytest.raises(ConfigError, match="n_nodes"):
        build_mixing(parse_config(mismatched))


def test_custom_problem_file(tmp_path):
    from demuon.problems import dump_problem, make_quadratic

    path = tmp_path / "prob.txt"
    dump_problem(make_quadratic(4, 3, 2, 4, heterogeneity=0.3, seed=1), path)
    text = MINIMAL + f"\n[problem]\nkind = custom_file\npath = {path}\n"
    cfg = parse_config(text)
    problem = build_problem(cfg)
    assert problem.kind == "quadratic"
    assert (problem.m, problem.n) == (3, 2)


def test_with_overrides_revalidates():
    cfg = parse_config(MINIMAL)
    assert with_overrides(cfg, seed=7).seed == 7
    assert with_overrides(cfg, seed=None).seed == cfg.seed
    with pytest.raises(ConfigError):
        with_overrides(cfg, horizon=-1)


def test_config_file_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL)
    cfg = parse_config(path)
    assert cfg.algorithm == "demuon"
    validate_config(cfg)
