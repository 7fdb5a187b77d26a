"""The benchmark's tracer wraps package functions by module and name.

``perfbench/tracing.py`` is loaded by path, unchanged.  A renamed or
moved function would otherwise surface only in the traced benchmark
run, which the test suite does not run."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    spans = [(layer, name) for layer, names in layers.items() for name in names]
    assert ("closed_form", "finish_result") in spans
    missing = [
        f"{layer}.{name}"
        for layer, name in spans
        if not callable(getattr(importlib.import_module(f"greechie_mle.{layer}"), name, None))
    ]
    assert missing == []
