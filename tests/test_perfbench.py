"""The benchmark's tracer still finds every layer it wraps and reads what they return."""

import runpy
from pathlib import Path

import kornlab
import kornlab.cli
from kornlab import korn_estimator

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_layers_resolve():
    tracer = runpy.run_path(str(TRACER))
    assert tracer["LAYERS"]
    for mod_name, attr in tracer["LAYERS"]:
        assert callable(getattr(getattr(kornlab, mod_name), attr)), (mod_name, attr)
    # the axis-rule span is put on the class, not on a module attribute
    owner, cls, method = tracer["AXIS_RULE"].split(".")
    assert callable(getattr(getattr(getattr(kornlab, owner), cls), method))


def test_tracer_reads_the_crosschecks_lobpcg_result(monkeypatch):
    # the crosscheck solves its blocks directly, so the tracer's lobpcg layer
    # sees no call and the workload's check judges the returned gap alone
    tracer = runpy.run_path(str(TRACER))
    workloads = runpy.run_path(str(TRACER.parent / "workloads.py"))
    t = tracer["Tracer"]()
    wrapped = t.wrap("lobpcg", korn_estimator.lobpcg, tracer["_observe_lobpcg"])
    monkeypatch.setattr(korn_estimator, "lobpcg", wrapped)
    diff = korn_estimator.grid_crosscheck(8)
    assert t.calls["lobpcg"] == 0
    assert workloads["check_crosscheck"](diff, t.observed.get("lobpcg.lambda")) == []
