"""The benchmark's tracer still finds every layer it wraps."""

import runpy
from pathlib import Path

import kornlab
import kornlab.cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_layers_resolve():
    tracer = runpy.run_path(str(TRACER))
    assert tracer["LAYERS"]
    for mod_name, attr in tracer["LAYERS"]:
        assert callable(getattr(getattr(kornlab, mod_name), attr)), (mod_name, attr)
    # the axis-rule span is put on the class, not on a module attribute
    owner, cls, method = tracer["AXIS_RULE"].split(".")
    assert callable(getattr(getattr(getattr(kornlab, owner), cls), method))
