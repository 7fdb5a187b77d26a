"""Names that code outside the package looks up must resolve.

The benchmark's tracer wraps package functions by module and name;
``perfbench/tracing.py`` is loaded by path, unchanged.  A renamed or
moved function would otherwise surface only in the traced benchmark
run, which the test suite does not run.  Likewise every name in
``greechie_mle.__all__`` must exist, so a removed export leaves no
stale name behind, and every public attribute other than a submodule
must be listed there, so an added export is not left out.  And numpy
stays the only runtime dependency, every leaf error type is raised
somewhere in the package, every BENCH_<n>.json file of paired
benchmark runs covers the whole benchmark, every option the README's
command-line section names exists, and the same-answers harness's
worker runs every corpus and refuses a package from another tree."""

import argparse
import ast
import importlib
import json
import re
import runpy
import sys
import types
from pathlib import Path

import pytest

import greechie_mle
from greechie_mle.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_numpy_is_the_only_runtime_dependency():
    # The banded Newton solve is written out in numeric.py; scipy's
    # banded solvers would add a dependency to save about 30 lines.
    pyproject = (ROOT / "pyproject.toml").read_text()
    listed = ast.literal_eval(re.search(r"^dependencies = (\[.*\])$", pyproject, re.M)[1])
    assert [re.match(r"[\w.-]+", dep)[0] for dep in listed] == ["numpy"]
    importers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in modules):
                importers.append(path.name)
    assert importers == []


def test_every_error_type_is_raised():
    # One cause, one type: an error class that no code raises names no
    # cause and should go.  Base classes are reached through their leaves.
    from greechie_mle import errors

    classes = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and cls.__module__ == errors.__name__
    ]
    leaves = {
        cls.__name__
        for cls in classes
        if not any(other is not cls and issubclass(other, cls) for other in classes)
    }
    raised = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert "NonConvergence" in leaves and "GreechieError" not in leaves
    assert sorted(leaves - raised) == []


def test_bench_files_name_every_workload():
    # BENCH_<n>.json, written by tools/bench_pairs.py, pairs parent and
    # change runs of every workload and end-to-end metric of the benchmark.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted(w["name"] for w in spec["workloads"])
    metrics = sorted(m["name"] for m in spec["end_to_end"])
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        doc = json.loads(path.read_text())
        assert sorted(doc["workloads"]) == workloads, path.name
        for name, result in doc["workloads"].items():
            assert sorted(result["metrics"]) == metrics, (path.name, name)


def test_readme_options_exist():
    # A removed option must leave no mention in the README's examples or
    # its exit-code paragraph.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = set(parser._option_string_actions)
    for sub in commands.choices.values():
        options |= set(sub._option_string_actions)
    assert named and sorted(named - options) == []


def test_same_answers_runs_every_corpus(capsys, monkeypatch):
    # One record per corpus from this tree's worker, compared with itself;
    # the git-archived parent is left to the manual run.
    harness = runpy.run_path(str(ROOT / "tools" / "same_answers.py"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    harness["worker"](ROOT / "src", 1)
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["corpus"] for r in records] == list(harness["CORPORA"])
    report = harness["compare"](records, records)
    for entry in report.values():
        assert (entry["records"], entry["identical"], entry["differing"]) == (1, 1, [])
        assert [sum(c.values()) for c in entry["census"].values()] == [1, 1]


def test_same_answers_worker_rejects_another_copy(monkeypatch, tmp_path):
    # A worker whose package does not come from the tree it was given
    # would compare one tree with itself.
    worker = runpy.run_path(str(ROOT / "tools" / "same_answers.py"))["worker"]
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="greechie_mle imported from"):
        worker(tmp_path, 1)


def test_same_answers_reports_differences():
    compare = runpy.run_path(str(ROOT / "tools" / "same_answers.py"))["compare"]
    solved = {"corpus": "shapes", "id": "0", "p": {"a": "1/4", "b": "0.75"}, "method": "numeric"}
    moved = {**solved, "p": {"a": "0.25", "b": "3/4"}}
    failed = {"corpus": "shapes", "id": "1", "error": "NonConvergence", "message": "m",
              "node_path": "root"}
    entry = compare([solved, failed], [moved, failed])["shapes"]
    assert (entry["records"], entry["identical"], entry["max_abs_dp"]) == (2, 1, 0.0)
    assert entry["census"]["change"] == {"NonConvergence": 1, "numeric": 1}
    assert entry["differing"] == ["0"]
