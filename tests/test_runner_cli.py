import csv
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from demuon import runner
from demuon.cli import main
from demuon.config import parse_config, with_overrides
from demuon.runner import compare, execute, run_id, sweep, version_hash


def config_text(out_dir, algorithm="demuon", horizon=8, extra=""):
    return f"""
[run]
algorithm = {algorithm}
horizon = {horizon}
seed = 3
out_dir = {out_dir}

[topology]
family = ring
n_nodes = 4

[problem]
kind = quadratic
m = 3
n = 2
p = 4
heterogeneity = 0.4
seed = 11

[noise]
family = gaussian
alpha = 2.0
scale = 0.2
{extra}
"""


def test_execute_writes_expected_artifacts(tmp_path):
    cfg = parse_config(config_text(tmp_path))
    outcome = execute(cfg)
    lines = open(outcome.metrics_path).read().splitlines()
    assert len(lines) == 9  # header + 8 data rows
    assert lines[0].startswith("iter,consensus_error_x,consensus_bound,avg_grad_nuclear")
    summary = json.load(open(outcome.summary_path))
    assert summary["horizon"] == 8
    assert 0 <= summary["iota"] < 8
    assert summary["consensus_bound_violations"] == 0
    assert summary["version"] == version_hash()
    assert summary["config"]["algorithm"] == "demuon"
    assert summary["noise_alpha_moment"] > 0


def test_execute_is_byte_identical(tmp_path):
    cfg = parse_config(config_text(tmp_path))
    first = execute(cfg)
    metrics_1 = open(first.metrics_path, "rb").read()
    summary_1 = open(first.summary_path, "rb").read()
    second = execute(cfg)
    assert open(second.metrics_path, "rb").read() == metrics_1
    assert open(second.summary_path, "rb").read() == summary_1


def test_runs_in_one_process_read_the_package_sources_once(tmp_path, monkeypatch):
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return open(path, *args, **kwargs)

    version_hash.cache_clear()
    monkeypatch.setattr(runner, "open", spy, raising=False)
    cfg = parse_config(config_text(tmp_path))
    summary = json.load(open(execute(cfg).summary_path))
    _, sweep_path = sweep(with_overrides(cfg, sweep=(4, 6)), workers=1)
    sources = [path for path in opened if path.endswith(".py")]
    assert sources and len(sources) == len(set(sources))
    assert summary["version"] == json.load(open(sweep_path))["version"] == version_hash()


def test_run_id_depends_on_config(tmp_path):
    cfg = parse_config(config_text(tmp_path))
    assert run_id(cfg) == run_id(cfg)
    assert run_id(with_overrides(cfg, seed=4)) != run_id(cfg)
    # The output directory only places the files: one experiment, one id, wherever it is written.
    elsewhere = with_overrides(cfg, out_dir=str(tmp_path / "elsewhere"))
    assert run_id(elsewhere) == run_id(cfg)
    first, second = execute(cfg), execute(elsewhere)
    assert os.path.basename(first.summary_path) == os.path.basename(second.summary_path)
    assert json.load(open(second.summary_path))["config"]["out_dir"] == elsewhere.out_dir


def test_sweep_outcomes_and_summary(tmp_path):
    cfg = parse_config(config_text(tmp_path, extra="\n[schedule]\nmode = theorem\n"))
    cfg = with_overrides(cfg, sweep=(4, 8, 16))
    outcomes, sweep_path = sweep(cfg)
    assert [o.result.horizon for o in outcomes] == [4, 8, 16]
    payload = json.load(open(sweep_path))
    assert [entry["horizon"] for entry in payload["sweep"]] == [4, 8, 16]
    assert all("avg_grad_nuclear_mean" in entry for entry in payload["sweep"])


def test_sweep_workers_do_not_change_bytes(tmp_path):
    cfg = parse_config(config_text(tmp_path))
    cfg = with_overrides(cfg, sweep=(4, 6))
    out_serial, path_serial = sweep(cfg, workers=1)
    blobs = {o.metrics_path: open(o.metrics_path, "rb").read() for o in out_serial}
    sweep_blob = open(path_serial, "rb").read()
    out_par, path_par = sweep(cfg, workers=2)
    for o in out_par:
        assert open(o.metrics_path, "rb").read() == blobs[o.metrics_path]
    assert open(path_par, "rb").read() == sweep_blob


def test_compare_aligned_columns(tmp_path):
    texts = [config_text(tmp_path, algorithm=a) for a in ("demuon", "dsgd", "dsgd_clip", "gt_nsgdm")]
    cfgs = [parse_config(t) for t in texts]
    path = compare(cfgs)
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    assert header[0] == "iter"
    assert "demuon_avg_grad_nuclear" in header
    assert "gt_nsgdm_objective_at_mean" in header
    assert len(header) == 1 + 2 * 4
    assert len(lines) == 1 + 8
    assert [row.split(",")[0] for row in lines[1:]] == [str(k) for k in range(8)]


# A value of each key that differs from `config_text`'s, and whether compared configs must share the key: every
# [topology], [problem] and [noise] key, run.seed and run.horizon must, a schedule key need not.
COMPARE_KEYS = {
    ("run", "horizon"): (9, True),
    ("run", "seed"): (4, True),
    ("topology", "family"): ("complete", True),
    ("topology", "n_nodes"): (5, True),
    ("topology", "weights_csv"): ("w.csv", True),
    ("problem", "kind"): ("nonconvex_gram", True),
    ("problem", "m"): (4, True),
    ("problem", "n"): (3, True),
    ("problem", "p"): (5, True),
    ("problem", "heterogeneity"): (0.5, True),
    ("problem", "seed"): (12, True),
    ("problem", "path"): ("p.npz", True),
    ("noise", "family"): ("student_t", True),
    ("noise", "alpha"): (1.5, True),
    ("noise", "scale"): (0.3, True),
    ("noise", "dof"): (2.0, True),
    ("schedule", "eta"): (0.05, False),
}


@pytest.mark.parametrize("key", COMPARE_KEYS, ids=".".join)
def test_compare_rejects_mismatch_and_singleton(tmp_path, key):
    from demuon.config import _FORMAT, ConfigError

    cfg = parse_config(config_text(tmp_path))
    with pytest.raises(ConfigError):
        compare([cfg])
    field, _ = _FORMAT[key]
    value, shared = COMPARE_KEYS[key]
    other = replace(cfg, algorithm="dsgd", **{field: value})
    if shared:
        with pytest.raises(ConfigError, match=f"^compare config #2 differs on {field}: "):
            compare([cfg, other])
    else:
        assert os.path.exists(compare([cfg, other]))


def test_cli_run_and_validate(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out"))
    assert main(["validate", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["algorithm"] == "demuon"

    assert main(["run", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith(".csv")
    assert printed[1].endswith(".json")


def test_cli_overrides_and_sweep(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out", extra="\n[schedule]\nmode = theorem\n"))
    assert main(["sweep", str(path), "--seed", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].endswith(".json")
    sweep_payload = json.load(open(out[-1]))
    assert sweep_payload["config"]["seed"] == 9


def test_cli_error_is_machine_readable(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text(config_text(tmp_path) + "\n[schedule]\ntheta = 1.2\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "theta" in payload["message"]


@pytest.mark.parametrize("verb", ["run", "sweep", "compare", "validate"])
def test_cli_missing_config_names_the_path(tmp_path, capsys, verb):
    missing = str(tmp_path / "no_such.ini")
    args = [verb, missing] + ([missing] if verb == "compare" else [])
    assert main(args) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "FileNotFoundError"
    assert missing in payload["message"]


@pytest.mark.parametrize("spec", ["ns: 5", "ns:+5", "ns:1_0", "ns:05", "ns:\u0665"])
def test_cli_rejects_noncanonical_orthogonalizer(tmp_path, capsys, spec):
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out"))
    assert main(["run", str(path), "--orthogonalizer", spec]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert "run.orthogonalizer" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (("family = ring\nn_nodes = 4", "family = ring\nn_nodes = 2"), "topology.n_nodes"),
        (("family = ring\nn_nodes = 4", "family = directed_exponential\nn_nodes = 6"), "topology.n_nodes"),
        (("seed = 3\n", f"seed = {2**64}\n"), "run.seed"),
    ],
    ids=["ring-2", "directed_exponential-6", "seed-2**64"],
)
@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_validate_rejects_what_run_cannot_build(tmp_path, capsys, edit, key, verb):
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out").replace(*edit, 1))
    assert main([verb, str(path)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"{key} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edits, key",
    [
        ((("family = ring\nn_nodes = 4", "family = complete\nn_nodes = 1000000"),), "topology.n_nodes"),
        ((("m = 3", "m = 5000000"),), "problem.m"),
        ((("n = 2", "n = 5000000"),), "problem.n"),
        ((("p = 4", "p = 10000000"),), "problem.p"),
        ((("kind = quadratic", "kind = nonconvex_gram"), ("m = 3", "m = 3000")), "problem.m"),
    ],
    ids=["complete-1e6-nodes", "m", "n", "p", "gram-m"],
)
@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_rejects_configs_too_large_to_allocate(tmp_path, capsys, edits, key, verb):
    # Each of these configs passes every field range, and `run` on it used to
    # end in a MemoryError (7.28 TiB for the complete graph on 10^6 nodes).
    text = config_text(tmp_path / "out")
    for edit in edits:
        text = text.replace(*edit, 1)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    assert main([verb, str(path)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"{key} = ")
    assert not (tmp_path / "out").exists()


def test_cli_compare(tmp_path, capsys):
    p1 = tmp_path / "a.ini"
    p2 = tmp_path / "b.ini"
    p1.write_text(config_text(tmp_path / "out", algorithm="demuon"))
    p2.write_text(config_text(tmp_path / "out", algorithm="dsgd"))
    assert main(["compare", str(p1), str(p2)]) == 0
    path = capsys.readouterr().out.strip()
    header = open(path).read().splitlines()[0]
    assert header.startswith("iter,demuon_avg_grad_nuclear")


def test_theorem_schedule_fills_potential_column(tmp_path):
    theorem = parse_config(config_text(tmp_path, extra="\n[schedule]\nmode = theorem\n"))
    explicit = with_overrides(theorem, schedule_mode="explicit")
    for cfg, filled in ((theorem, True), (explicit, False)):
        with open(execute(cfg).metrics_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all((row["potential"] != "") == filled for row in rows)


def test_an_orthogonalizer_changes_the_metrics_of_demuon_alone(tmp_path):
    # Only the polar kernel reads the orthogonalizer: the other algorithms
    # write the same metrics bytes under ns:3 as under svd, with another run id.
    for algorithm in ("demuon", "gt_nsgdm", "dsgd", "dsgd_clip"):
        metrics, ids = [], set()
        for spec in ("svd", "ns:3"):
            text = config_text(tmp_path / algorithm / spec.replace(":", ""), algorithm=algorithm)
            outcome = execute(parse_config(text.replace("horizon = 8", f"horizon = 8\northogonalizer = {spec}")))
            metrics.append(open(outcome.metrics_path, "rb").read())
            ids.add(json.load(open(outcome.summary_path))["run_id"])
        assert len(ids) == 2, algorithm
        assert (metrics[0] == metrics[1]) == (algorithm != "demuon"), algorithm


def test_record_timing_fills_last_column(tmp_path):
    cfg = parse_config(config_text(tmp_path))
    timed = execute(cfg, record_timing=True)
    rows = open(timed.metrics_path).read().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] != "" for row in rows)
    untimed = execute(cfg, record_timing=False)
    rows = open(untimed.metrics_path).read().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] == "" for row in rows)


def diverging_config_text(out_dir, horizon=50, m=4, n=3, seed=0):
    """dsgd at eta = 1 on the Gram family under Student-t noise (dof 1.3): it diverges."""
    return f"""
[run]
algorithm = dsgd
horizon = {horizon}
seed = {seed}
out_dir = {out_dir}

[topology]
family = ring
n_nodes = 4

[problem]
kind = nonconvex_gram
m = {m}
n = {n}
seed = {seed}

[noise]
family = student_t
alpha = 1.2
scale = 0.3
dof = 1.3

[schedule]
dsgd_eta = 1.0
"""


def test_cli_divergence_error_names_round_node_and_quantity(tmp_path, capsys):
    path = tmp_path / "diverge.ini"
    path.write_text(diverging_config_text(tmp_path))
    # The run leaves the certified ball before it diverges; that is its only warning.
    with pytest.warns(RuntimeWarning, match="certified ball"):
        assert main(["run", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "Diverged"
    assert err["algorithm"] == "dsgd"
    assert err["quantity"] == "iterate"
    assert isinstance(err["iteration"], int) and 0 <= err["iteration"] < 50
    assert isinstance(err["node"], int) and 0 <= err["node"] < 4
    assert f"iteration {err['iteration']}" in err["message"]


def test_diverged_run_writes_its_finished_rounds_and_a_diverged_summary(tmp_path):
    from demuon.optimizers import Diverged

    cfg = parse_config(diverging_config_text(tmp_path / "diverged"))
    with pytest.raises(Diverged) as caught, pytest.warns(RuntimeWarning, match="certified ball"):
        execute(cfg)
    exc = caught.value
    rid = run_id(cfg)
    summary = json.load(open(tmp_path / "diverged" / f"summary_{rid}.json"))
    assert summary["status"] == "diverged"
    assert summary["run_id"] == rid
    assert (summary["algorithm"], summary["iteration"], summary["node"], summary["quantity"]) == (
        "dsgd", exc.iteration, exc.node, "iterate",
    )
    assert summary["config"] == cfg.as_dict()
    partial = open(tmp_path / "diverged" / f"metrics_{rid}.csv").read()
    # The rounds before the failing one are exactly those of a run that stops there.
    with pytest.warns(RuntimeWarning, match="certified ball"):
        finished = execute(parse_config(diverging_config_text(tmp_path / "finished", exc.iteration)))
    assert partial == open(finished.metrics_path).read()
    assert len(partial.splitlines()) == exc.iteration + 1
    assert "status" not in json.load(open(finished.summary_path))


def test_divergence_at_a_gram_route_size_names_the_round_and_writes_the_summary(tmp_path):
    # At 32 x 16 the diagnostic norms take the Gram route. At seed 2 the Gram of
    # the last finite round's mean gradient overflows; that slice must fall back
    # to the SVD, not raise LinAlgError from eigvalsh.
    from demuon.optimizers import Diverged

    cfg = parse_config(diverging_config_text(tmp_path, m=32, n=16, seed=2))
    with pytest.raises(Diverged) as caught, pytest.warns(RuntimeWarning, match="certified ball"):
        execute(cfg)
    exc = caught.value
    assert (exc.algorithm, exc.iteration, exc.quantity) == ("dsgd", 6, "iterate")
    assert "iteration 6" in str(exc)
    rid = run_id(cfg)
    summary = json.load(open(tmp_path / f"summary_{rid}.json"))
    assert (summary["status"], summary["iteration"], summary["node"]) == ("diverged", 6, exc.node)
    assert len(open(tmp_path / f"metrics_{rid}.csv").read().splitlines()) == 6 + 1


# The ball exit before the divergence is not what this test checks.
@pytest.mark.filterwarnings("ignore:iterates left the certified ball")
def test_sweep_worker_divergence_reaches_the_cli_as_diverged(tmp_path, capsys):
    path = tmp_path / "diverge.ini"
    path.write_text(diverging_config_text(tmp_path).replace("horizon = 50", "horizon = 50\nsweep = 5, 50"))
    assert main(["sweep", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "Diverged"
    assert (err["algorithm"], err["quantity"]) == ("dsgd", "iterate")


# Compared configs around the diverging dsgd (eta 1, diverges at round 6); dsgd
# at eta 0.2 diverges later, at round 26, and the demuon, gt_nsgdm and
# dsgd_clip runs finish.
COMPARE_DIVERGENCE_CASES = {
    "first": [("dsgd", 1.0), ("demuon", 1.0), ("gt_nsgdm", 1.0)],
    "middle": [("demuon", 1.0), ("dsgd", 1.0), ("gt_nsgdm", 1.0)],
    "last": [("demuon", 1.0), ("gt_nsgdm", 1.0), ("dsgd", 1.0)],
    "later_lane_diverges_first": [("dsgd_clip", 1.0), ("dsgd", 0.2), ("dsgd", 1.0)],
}


@pytest.mark.parametrize("case", sorted(COMPARE_DIVERGENCE_CASES))
def test_compare_divergence_writes_what_sequential_execute_writes(tmp_path, case):
    import shutil
    import warnings

    from demuon.optimizers import Diverged

    out = tmp_path / "out"
    cfgs = [
        parse_config(
            diverging_config_text(out)
            .replace("algorithm = dsgd", f"algorithm = {algorithm}")
            .replace("dsgd_eta = 1.0", f"dsgd_eta = {eta}")
        )
        for algorithm, eta in COMPARE_DIVERGENCE_CASES[case]
    ]

    def outcome(call):
        """(artifact bytes by name, the Diverged's fields and message, warning texts)."""
        with warnings.catch_warnings(record=True) as caught, pytest.raises(Diverged) as raised:
            warnings.simplefilter("always")
            call()
        exc = raised.value
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        fields = (exc.algorithm, exc.iteration, exc.node, exc.quantity, str(exc))
        return files, fields, [str(w.message) for w in caught]

    def one_by_one():
        for cfg in cfgs:
            execute(cfg)

    sequential = outcome(one_by_one)
    assert outcome(lambda: compare(cfgs)) == sequential
    files = sequential[0]
    kept = 1 + [algorithm for algorithm, _ in COMPARE_DIVERGENCE_CASES[case]].index("dsgd")
    assert len(files) == 2 * kept
    assert not any(name.startswith("compare_") for name in files)


# dsgd at eta 1 diverges at round 6: a horizon of 4 or 3 finishes first.
@pytest.mark.parametrize("horizons", [(4, 50, 3, 20), (50, 4), (3, 4, 50)], ids=["middle", "first", "last"])
def test_sweep_divergence_writes_what_sequential_execute_writes(tmp_path, horizons):
    # The horizons run as lanes of one pass; the outcome is that of executing
    # them one after another in `run.sweep` order, so a horizon after the
    # diverging one writes nothing even when it finished first.
    import shutil
    import warnings

    from demuon.optimizers import Diverged

    out = tmp_path / "out"
    sweep_list = ", ".join(map(str, horizons))
    cfg = parse_config(diverging_config_text(out).replace("horizon = 50", f"horizon = 50\nsweep = {sweep_list}"))

    def outcome(call):
        with warnings.catch_warnings(record=True) as caught, pytest.raises(Diverged) as raised:
            warnings.simplefilter("always")
            call()
        exc = raised.value
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files, (exc.algorithm, exc.iteration, exc.node, exc.quantity, str(exc)), [str(w.message) for w in caught]

    def one_by_one():
        for k in horizons:
            execute(with_overrides(cfg, horizon=k, sweep=()))

    sequential = outcome(one_by_one)
    assert outcome(lambda: sweep(cfg)) == sequential
    assert len(sequential[0]) == 2 * (1 + horizons.index(50))
    assert not any(name.startswith("sweep_") for name in sequential[0])


@pytest.mark.parametrize("contents", ["", "\n\n", "# no rows\n"])
def test_cli_run_rejects_a_weights_csv_without_rows(tmp_path, capsys, contents):
    weights = tmp_path / "w.csv"
    weights.write_text(contents)
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out").replace("family = ring", f"family = custom\nweights_csv = {weights}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path)]) == 1
    assert [str(w.message) for w in caught] == []
    payload = json.loads(capsys.readouterr().err)
    # Validation loads the weights, so the file is rejected before any run.
    assert payload["error"] == "ConfigError"
    assert payload["message"] == f"topology.weights_csv: mixing CSV {weights} holds no rows"
    assert not (tmp_path / "out").exists()


WEIGHTS_FILES = {
    "missing": None,
    "empty": "",
    "not-a-number": "0.5,x\n0.5,0.5\n",
    "not-stochastic": "1.0,1.0\n1.0,1.0\n",
    "three-nodes": "".join(",".join(["0.3333333333333333"] * 3) + "\n" for _ in range(3)),
}


@pytest.mark.parametrize("case", sorted(WEIGHTS_FILES))
def test_cli_validate_rejects_the_weights_csv_that_run_rejects(tmp_path, capsys, case):
    # A custom family's weights file is loaded at validation: `validate` and
    # `run` reject the same files, with the same ConfigError naming the key.
    weights = tmp_path / "w.csv"
    if WEIGHTS_FILES[case] is not None:
        weights.write_text(WEIGHTS_FILES[case])
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out").replace("family = ring", f"family = custom\nweights_csv = {weights}"))
    payloads = []
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 1
        payloads.append(json.loads(capsys.readouterr().err))
    assert payloads[0] == payloads[1]
    assert payloads[0]["error"] == "ConfigError"
    assert payloads[0]["message"].startswith("topology.weights_csv: ")
    assert not (tmp_path / "out").exists()


def test_cli_validate_and_run_accept_a_valid_weights_csv(tmp_path, capsys):
    from demuon.topology import build_family

    weights = tmp_path / "w.csv"
    np.savetxt(weights, build_family("ring", 4).weights, delimiter=",")
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out").replace("family = ring", f"family = custom\nweights_csv = {weights}"))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["weights_csv"] == str(weights)
    assert main(["run", str(path)]) == 0


def _problem_file(tmp_path, case):
    """The path of a problem file for `case`: missing, a directory, malformed, or a valid file for N nodes."""
    from demuon.problems import dump_problem, make_quadratic

    path = tmp_path / "prob.txt"
    if case == "directory":
        path.mkdir()
    elif case in ("empty", "bad-header"):
        path.write_text("" if case == "empty" else "quadratic 4 3 2\n")
    elif case != "missing":
        dump_problem(make_quadratic(int(case[0]), 3, 2, 4, heterogeneity=0.4, seed=11), path)
    return path


# Each rejected problem file, and the key its ConfigError names first.
PROBLEM_FILE_KEYS = {
    "missing": "problem.path: ",
    "directory": "problem.path: ",
    "empty": "problem.path: ",
    "bad-header": "problem.path: ",
    "3-nodes": "topology.n_nodes ",
}


@pytest.mark.parametrize("case", sorted(PROBLEM_FILE_KEYS))
def test_cli_validate_rejects_the_problem_file_that_run_rejects(tmp_path, capsys, case):
    # A custom_file problem is loaded at validation: `validate` and `run`
    # reject the same files, with the same ConfigError naming the key.
    key = PROBLEM_FILE_KEYS[case]
    problem = _problem_file(tmp_path, case)
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out").replace("kind = quadratic", f"kind = custom_file\npath = {problem}"))
    payloads = []
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 1
        payloads.append(json.loads(capsys.readouterr().err))
    assert payloads[0] == payloads[1]
    assert payloads[0]["error"] == "ConfigError"
    assert payloads[0]["message"].startswith(key)
    assert not (tmp_path / "out").exists()


def test_cli_validate_and_run_accept_a_valid_problem_file(tmp_path, capsys):
    problem = _problem_file(tmp_path, "4-nodes")
    path = tmp_path / "exp.ini"
    path.write_text(config_text(tmp_path / "out").replace("kind = quadratic", f"kind = custom_file\npath = {problem}"))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["problem_path"] == str(problem)
    assert main(["run", str(path)]) == 0


def test_cli_sweep_loads_each_custom_file_four_times(tmp_path, capsys, monkeypatch):
    # A 3-horizon sweep on a custom weights CSV and a custom_file problem
    # loads each file at parsing, at the CLI's overrides, at the sweep's one
    # validation (its horizons differ from the config only in `horizon`) and
    # at the build.
    import demuon.problems
    import demuon.topology
    from demuon.topology import build_family

    calls = {"load_problem": 0, "load_mixing_csv": 0}
    for module, name in ((demuon.problems, "load_problem"), (demuon.topology, "load_mixing_csv")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    weights = tmp_path / "w.csv"
    np.savetxt(weights, build_family("ring", 4).weights, delimiter=",")
    problem = _problem_file(tmp_path, "4-nodes")
    path = tmp_path / "exp.ini"
    text = config_text(tmp_path / "out", extra="[schedule]\nmode = theorem\n")
    text = text.replace("horizon = 8", "horizon = 8\nsweep = 4, 6, 8").replace("family = ring", f"family = custom\nweights_csv = {weights}")
    path.write_text(text.replace("kind = quadratic", f"kind = custom_file\npath = {problem}"))
    assert main(["sweep", str(path), "--seed", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4  # three metrics CSVs and the sweep summary
    assert calls == {"load_problem": 4, "load_mixing_csv": 4}


def test_hand_built_configs_are_validated_by_every_entry_point(tmp_path):
    # Configs that never went through `parse_config` are still validated in
    # full: a bad horizon, a bad sweep entry and a missing weights file.
    from demuon.config import ConfigError

    cfg = parse_config(config_text(tmp_path / "out"))
    missing = replace(cfg, topology_family="custom", weights_csv=str(tmp_path / "missing.csv"))
    with pytest.raises(ConfigError, match="run.horizon"):
        execute(replace(cfg, horizon=0))
    with pytest.raises(ConfigError, match="topology.weights_csv"):
        execute(missing)
    with pytest.raises(ConfigError, match="run.sweep"):
        sweep(replace(cfg, sweep=(4, 0, 8)))
    with pytest.raises(ConfigError, match="topology.weights_csv"):
        sweep(replace(missing, sweep=(4, 8)))
    with pytest.raises(ConfigError, match="topology.weights_csv"):
        compare([missing, replace(missing, algorithm="dsgd")])
    assert not (tmp_path / "out").exists()
