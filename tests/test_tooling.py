"""Names that code outside the package looks up must resolve.

The benchmark's tracer wraps package functions by module and name;
``perfbench/tracing.py`` is loaded by path, unchanged.  A renamed or
moved function would otherwise surface only in the traced benchmark
run, which the test suite does not run.  Likewise every name in
``greechie_mle.__all__`` must exist, so a removed export leaves no
stale name behind, and every public attribute other than a submodule
must be listed there, so an added export is not left out."""

import importlib
import runpy
import types
from pathlib import Path

import greechie_mle

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


def test_public_names_resolve():
    names = greechie_mle.__all__
    assert [name for name in names if not hasattr(greechie_mle, name)] == []


def test_public_names_listed():
    unlisted = [
        name
        for name, value in vars(greechie_mle).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name not in greechie_mle.__all__
    ]
    assert unlisted == []


def test_all_shapes_names_and_order():
    # Every benchmark workload draws its shapes from this dict, in order.
    assert list(greechie_mle.shapes.all_shapes()) == [
        "tennis",
        "disjoint_pairs",
        "path3",
        "path3_wide",
        "path4",
        "path5",
        "comb",
        "four_cycle",
    ]
