"""The layer-coverage guard: unobserved layers read None, predicted idle layers read 0.

    python -m pytest bench/test_tracing.py
"""

import time

import pytest

import demuon.optimizers
import tracing
from workloads import WORKLOADS


def _traced(name, tmp_path):
    tracer = tracing.Tracer()
    plan = WORKLOADS[name].plan(0, str(tmp_path))
    with tracer.installed():
        t0 = time.perf_counter()
        plan.call()
        wall = time.perf_counter() - t0
    return tracer, wall


def test_wrappers_are_removed_after_the_block():
    original = demuon.optimizers.msgn_exact
    with tracing.Tracer().installed():
        assert demuon.optimizers.msgn_exact is not original
    assert demuon.optimizers.msgn_exact is original


def test_layer_never_called_reads_none_unless_predicted_idle():
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    values = tracer.values(frozenset({"linalg.msgn"}))
    assert values["linalg.msgn.calls"] == 0
    assert values["linalg.msgn.self_ms"] == 0.0
    assert values["linalg.norms.calls"] is None
    assert values["runner.io.self_ms"] is None
    unobserved, broken = tracer.guard(frozenset({"linalg.msgn"}))
    assert "linalg.norms: never called" in unobserved
    assert broken == []


@pytest.mark.parametrize("gone", ["demuon.optimizers:no_such_kernel", "demuon.no_such_module:msgn"])
def test_missing_name_reads_none(gone, monkeypatch, tmp_path):
    monkeypatch.setitem(tracing.SPAN_LAYERS, "linalg.msgn", (gone,))
    tracer, _ = _traced("quickstart", tmp_path)
    values = tracer.values(WORKLOADS["quickstart"].idle_layers)
    assert values["linalg.msgn.calls"] is None
    assert values["linalg.msgn.self_ms"] is None
    assert values["linalg.norms.calls"] > 0
    unobserved, _ = tracer.guard(WORKLOADS["quickstart"].idle_layers)
    assert unobserved == [f"linalg.msgn: missing {gone}"]


def test_called_idle_layer_breaks_the_guard():
    tracer = tracing.Tracer()
    tracer.calls["linalg.msgn"] = 3
    _, broken = tracer.guard(frozenset({"linalg.msgn"}))
    assert broken == ["linalg.msgn: 3 calls, predicted 0"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_layer_observed_and_predicted_zeros_hold(name, tmp_path):
    tracer, wall = _traced(name, tmp_path)
    idle = WORKLOADS[name].idle_layers
    assert tracer.guard(idle) == ([], [])
    values = tracer.values(idle)
    assert None not in values.values()
    assert (values["linalg.msgn.calls"] == 0) == (name == "baselines_gram")
    assert (values["diagnostics.potential.calls"] == 0) == (name != "rate_sweep")
    assert 0.95 <= tracer.covered_s / wall <= 1.0


def test_benchmark_json_lists_the_workloads_and_metrics():
    import json
    import os

    import bootstrap
    import run

    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.METRICS)
