import csv
import json

import numpy as np
import pytest

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


def test_run_id_depends_on_config(tmp_path):
    cfg = parse_config(config_text(tmp_path))
    assert run_id(cfg) == run_id(cfg)
    assert run_id(with_overrides(cfg, seed=4)) != run_id(cfg)


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


def test_compare_rejects_mismatch_and_singleton(tmp_path):
    from demuon.config import ConfigError

    cfg = parse_config(config_text(tmp_path))
    with pytest.raises(ConfigError):
        compare([cfg])
    other = parse_config(config_text(tmp_path, algorithm="dsgd").replace("seed = 3", "seed = 4"))
    with pytest.raises(ConfigError):
        compare([cfg, other])


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


def test_record_timing_fills_last_column(tmp_path):
    cfg = parse_config(config_text(tmp_path))
    timed = execute(cfg, record_timing=True)
    rows = open(timed.metrics_path).read().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] != "" for row in rows)
    untimed = execute(cfg, record_timing=False)
    rows = open(untimed.metrics_path).read().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] == "" for row in rows)


def diverging_config_text(out_dir, horizon=50):
    """dsgd at eta = 1 on the Gram family under Student-t noise (dof 1.3): it diverges."""
    return f"""
[run]
algorithm = dsgd
horizon = {horizon}
seed = 0
out_dir = {out_dir}

[topology]
family = ring
n_nodes = 4

[problem]
kind = nonconvex_gram
m = 4
n = 3
seed = 0

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


# Workers cannot hand the ball-exit warning back; they would raise it under the error filter.
@pytest.mark.filterwarnings("ignore:iterates left the certified ball")
def test_sweep_worker_divergence_reaches_the_cli_as_diverged(tmp_path, capsys):
    path = tmp_path / "diverge.ini"
    path.write_text(diverging_config_text(tmp_path).replace("horizon = 50", "horizon = 50\nsweep = 5, 50"))
    assert main(["sweep", str(path), "--workers", "2"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "Diverged"
    assert (err["algorithm"], err["quantity"]) == ("dsgd", "iterate")
