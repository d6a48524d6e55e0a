import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon import noise, optimizers, problems, topology
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
    with pytest.raises(ConfigError, match=r"^run\.horizon: invalid literal"):
        parse_config(MINIMAL.replace("horizon = 10", "horizon = ten"))
    with pytest.raises(ConfigError, match="^problem.kind must be one of"):
        parse_config(MINIMAL + "\n[problem]\nkind = sparse\n")
    with pytest.raises(ConfigError, match="^could not parse config: .*section 'run' already exists"):
        parse_config(MINIMAL + "\n[run]\nseed = 1\n")
    with pytest.raises(ConfigError, match="topology.family"):
        parse_config(MINIMAL.replace("family = ring", "family = mesh"))
    with pytest.raises(ConfigError, match="noise.dof"):
        parse_config(MINIMAL + "\n[noise]\nfamily = student_t\nalpha = 1.5\n")
    for bad in ("qr", "ns: 5", "ns:+5", "ns:1_0", "ns:05", "ns:\u0665"):
        with pytest.raises(ConfigError, match="run.orthogonalizer"):
            parse_config(MINIMAL.replace("horizon = 10", f"horizon = 10\northogonalizer = {bad}"))


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
    assert params == theoretical_schedule(cfg.horizon, cfg.alpha)
    with pytest.raises(ConfigError, match="theorem"):
        parse_config(theorem.replace("algorithm = demuon", "algorithm = dsgd"))
    with pytest.raises(ConfigError, match="K >= 4"):
        parse_config(theorem.replace("horizon = 10", "horizon = 3"))
    with pytest.raises(ConfigError, match="K >= 4"):
        parse_config(theorem.replace("horizon = 10", "horizon = 1\nsweep = 4, 8"))


def test_build_params_baselines():
    cfg = parse_config(MINIMAL.replace("algorithm = demuon", "algorithm = gt_nsgdm"))
    params = build_params(cfg)
    assert isinstance(params, ScheduleParams)
    assert (params.eta, params.theta, params.horizon) == (0.1, 0.2, None)
    theorem = MINIMAL.replace("algorithm = demuon", "algorithm = gt_nsgdm") + "\n[schedule]\nmode = theorem\n"
    assert build_params(parse_config(theorem)) == theoretical_schedule(10, 2.0)
    cfg_clip = parse_config(MINIMAL.replace("algorithm = demuon", "algorithm = dsgd_clip"))
    params_clip = build_params(cfg_clip)
    assert isinstance(params_clip, BaselineParams)
    assert params_clip.clip_eta == 10.0 and params_clip.clip_tau == 0.1


def test_build_components():
    cfg = parse_config(MINIMAL)
    mixing = build_mixing(cfg)
    np.testing.assert_array_equal(mixing.weights, topology.build_family("ring", 4).weights)
    problem = build_problem(cfg)
    assert problem.n_nodes == 4
    noise = build_noise(cfg)
    assert noise.base_seed == cfg.seed
    assert noise.scale == 0.1


def test_custom_topology_round_trip(tmp_path):
    from demuon.topology import build_family

    w_path = tmp_path / "w.csv"
    np.savetxt(w_path, build_family("ring", 4).weights, delimiter=",")
    text = MINIMAL.replace("family = ring", f"family = custom\nweights_csv = {w_path}")
    cfg = parse_config(text)
    mixing = build_mixing(cfg)
    np.testing.assert_allclose(mixing.weights, build_family("ring", 4).weights, atol=1e-12)
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


def test_config_path_object_is_always_a_path(tmp_path):
    # A missing Path is a missing file, never config text.
    missing = tmp_path / "missing.ini"
    message = f"[Errno 2] No such file or directory: {str(missing)!r}"
    with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
        parse_config(missing)
    # A str stays a path only when it names a file; otherwise it is the config text.
    (tmp_path / "exp.ini").write_text(MINIMAL)
    assert parse_config(str(tmp_path / "exp.ini")) == parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="^could not parse config"):
        parse_config(str(missing))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("schedule", "eta", "nan"),
        ("schedule", "eta", "inf"),
        ("schedule", "dsgd_eta", "nan"),
        ("schedule", "clip_eta", "nan"),
        ("schedule", "clip_tau", "inf"),
        ("noise", "scale", "nan"),
        ("noise", "scale", "inf"),
        ("problem", "heterogeneity", "nan"),
        ("problem", "heterogeneity", "inf"),
    ],
)
def test_non_finite_values_are_rejected(section, key, value):
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} .*finite"):
        parse_config(MINIMAL + f"\n[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("dof", ["nan", "inf"])
def test_non_finite_dof_is_rejected(dof):
    text = MINIMAL + f"\n[noise]\nfamily = student_t\nalpha = 1.5\ndof = {dof}\n"
    with pytest.raises(ConfigError, match=r"^noise\.dof "):
        parse_config(text)


@pytest.mark.parametrize(
    "family, n_nodes, seed, key",
    [
        ("ring", 2, 0, "topology.n_nodes"),
        ("directed_exponential", 6, 0, "topology.n_nodes"),
        ("directed_exponential", 1, 0, "topology.n_nodes"),
        ("complete", 0, 0, "topology.n_nodes"),
        ("ring", 4, 2**64, "run.seed"),
        ("ring", 4, -1, "run.seed"),
    ],
)
def test_rules_of_the_built_components_reach_validation(family, n_nodes, seed, key):
    text = MINIMAL.replace("family = ring\nn_nodes = 4", f"family = {family}\nn_nodes = {n_nodes}")
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} "):
        parse_config(text.replace("horizon = 10", f"horizon = 10\nseed = {seed}"))


def test_validation_builds_the_same_message_as_the_component():
    with pytest.raises(ValueError) as component:
        noise.NoiseModel("student_t", 1.5, 0.1)
    with pytest.raises(ConfigError) as edge:
        parse_config(MINIMAL + "\n[noise]\nfamily = student_t\nalpha = 1.5\n")
    assert str(edge.value) == f"noise.{component.value}"


@pytest.mark.parametrize(
    "extra, key",
    [
        ("\n[schedul]\nmode = theorem\n", "[schedul]"),
        ("\n[schedule]\ndsgd_etaa = 0.5\n", "schedule.dsgd_etaa"),
        ("\n[DEFAULT]\nseed = 1\n", "[DEFAULT]"),
    ],
    ids=["stray-section", "stray-key", "default-section"],
)
def test_unknown_sections_and_keys_are_rejected(extra, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(MINIMAL + extra)


def test_percent_is_a_literal_character():
    cfg = parse_config(MINIMAL.replace("horizon = 10", "horizon = 10\nout_dir = runs/50% %(x)s"))
    assert cfg.out_dir == "runs/50% %(x)s"


_FLOATS = ("nan", "inf", "-inf", "-1", "0", "0.5", "1", "1.5", "2", "3")
_SEEDS = ("-1", "0", str(2**64 - 1), str(2**64))


def _split(pool, *ordinary):
    """(ordinary values, the rest of `pool` as odd values)."""
    return ordinary, tuple(v for v in pool if v not in ordinary)


# (section, key) -> (ordinary values, odd values).
_VALUES = {
    ("run", "algorithm"): (optimizers.ALGORITHMS, ("adamw",)),
    ("run", "horizon"): (("4", "6"), ("0", "1", "x")),
    ("run", "seed"): _split(_SEEDS, "0", str(2**64 - 1)),
    ("run", "out_dir"): (("runs", "runs/50%", "a%(b)s"), ()),
    ("run", "orthogonalizer"): (("svd", "ns:3"), ("ns:0", "qr")),
    ("run", "sweep"): (("4, 8",), ("0, 4", "2")),
    ("topology", "family"): (topology.FAMILIES, ("mesh",)),
    ("problem", "kind"): (problems.KINDS + ("custom_file",), ("mystery",)),
    ("problem", "m"): (("1", "3"), ("0", "-1")),
    ("problem", "n"): (("1", "2"), ("0",)),
    ("problem", "p"): (("1", "3"), ("0",)),
    ("problem", "heterogeneity"): _split(_FLOATS, "0", "0.5", "1", "1.5", "2", "3"),
    ("problem", "seed"): _split(_SEEDS, "0", str(2**64 - 1), str(2**64)),
    ("noise", "family"): (noise.FAMILIES, ("cauchy",)),
    ("noise", "alpha"): _split(_FLOATS, "1.5", "2"),
    ("noise", "scale"): _split(_FLOATS, "0", "0.5", "1", "1.5", "2", "3"),
    ("noise", "dof"): _split(_FLOATS, "2", "3"),
    ("schedule", "mode"): (("explicit", "theorem"), ("sometimes",)),
    ("schedule", "theta"): _split(_FLOATS, "0.5"),
    **{
        ("schedule", key): _split(_FLOATS, "0.5", "1", "1.5", "2", "3")
        for key in ("eta", "dsgd_eta", "clip_eta", "clip_tau")
    },
}
_KNOWN_KEYS = [*_VALUES, ("topology", "n_nodes"), ("topology", "weights_csv"), ("problem", "path")]
_STRAYS = (("schedule", "dsgd_etaa"), ("schedul", "mode"), ("run", "sed"))


@pytest.fixture(scope="module")
def node_files(tmp_path_factory):
    """Per node count 1..9: a custom weights CSV and a problem file for that many nodes."""
    root = tmp_path_factory.mktemp("node_files")
    for n in range(1, 10):
        np.savetxt(root / f"w{n}.csv", topology.build_family("complete", n).weights, delimiter=",")
        problems.dump_problem(problems.make_quadratic(n, 2, 2, 2, 0.5, 1), root / f"p{n}.txt")
    return root


@st.composite
def config_texts(draw, root):
    """An INI text and the stray (section, key) it holds, if any.

    Each key is left out or set to an ordinary value, up to two keys get odd
    values, n_nodes runs over 0..9, and now and then a stray key is added.
    """
    entries = {}
    for (section, key), (ordinary, _) in _VALUES.items():
        required = (section, key) in (("run", "algorithm"), ("run", "horizon"), ("topology", "family"))
        entries[section, key] = draw(st.sampled_from(ordinary if required else (None, *ordinary)))
    for section, key in draw(st.lists(st.sampled_from([k for k, v in _VALUES.items() if v[1]]), max_size=2)):
        entries[section, key] = draw(st.sampled_from(_VALUES[section, key][1]))
    # Ordinary values first: generation favours the front of a sampled list.
    n_nodes = draw(st.sampled_from((4, 8, 2, 1, 3, 5, 6, 7, 9, 0)))
    entries["topology", "n_nodes"] = str(n_nodes)
    if entries["topology", "family"] == "custom":
        entries["topology", "weights_csv"] = draw(st.sampled_from((f"{root}/w{max(n_nodes, 1)}.csv", None)))
    if entries["problem", "kind"] == "custom_file":
        entries["problem", "path"] = draw(st.sampled_from((f"{root}/p{max(n_nodes, 1)}.txt", None)))
    stray = draw(st.sampled_from((None,) * 9 + _STRAYS))
    if stray is not None:
        entries[stray] = "0.5"
    sections = {}
    for (section, key), value in entries.items():
        if value is not None:
            sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items())
    return text, stray


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsed_configs_build_or_name_a_key(node_files, data):
    """A config either fails with a ConfigError naming a key, or every component builds."""
    text, stray = data.draw(config_texts(node_files))
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        names = [f"{section}.{key}" for section, key in _KNOWN_KEYS]
        if stray is not None:
            names += [f"{stray[0]}.{stray[1]}", f"[{stray[0]}]"]
        assert any(name in str(exc) for name in names), str(exc)
        return
    assert stray is None
    build_mixing(cfg)
    build_noise(cfg)
    build_params(cfg)
    build_problem(cfg)
