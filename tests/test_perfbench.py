"""The benchmark's tracer still finds every layer it wraps and reads what they return."""

import runpy
from pathlib import Path

import numpy as np

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
    # the traced crosscheck reads LOBPCG's eigenvalues and residual history per
    # column; a one-column start block gives 0-d history rows, which it cannot index
    tracer = runpy.run_path(str(TRACER))
    t = tracer["Tracer"]()
    wrapped = t.wrap("lobpcg", korn_estimator.lobpcg, tracer["_observe_lobpcg"])
    monkeypatch.setattr(korn_estimator, "lobpcg", wrapped)
    korn_estimator.grid_crosscheck(8)
    assert abs(t.observed["lobpcg.lambda"] - (3.0 - np.sqrt(5.0)) / 4.0) <= 1e-8
    assert t.observed["lobpcg.iterations"] >= 1
