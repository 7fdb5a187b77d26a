"""Same answers: run named corpora in a parent revision and in the working tree.

    python3 tools/same_answers.py [--parent REV] [--limit N]

The change is the working tree of the checkout holding this file; the
parent revision (default HEAD) is extracted from it with ``git archive``
into a temporary directory.  This script then runs itself once per tree
as a worker, importing ``greechie_mle`` from that tree's ``src/`` and the
seeded corpus generators from the working tree, so both trees see the
same inputs.  A worker that imports the package from anywhere else exits
non-zero, so an installed copy cannot stand in for either tree.  Each
record is one ``estimate`` call, kept as p (exact fractions as "n/d",
floats by repr), method and plan tree, or as the error's type, message
and ``node_path``; or one in-process CLI call, kept as exit code, stdout
and stderr.  Standard output receives one JSON
report: per corpus, the number of records, how many are identical, the
largest |p difference| between records that both solved, the census of
routes, errors and exit codes on each side, and the first differing
record ids.  ``--limit`` keeps the first N records of each corpus.

Corpora: ``shapes`` (8 reference shapes, 150 ``randint(1, 1000)`` and
150 ``int(10**U(0,9))`` draws each, through ``auto`` and ``numeric``),
``zero_share`` (100 draws per shape, each count ``randint(0, 3)`` with
probability 0.15, else ``randint(1, 300)``, both methods),
``zero_census`` (200 ``random_diagram(Random("zero counts"))`` draws, 30%
zeros), ``random_diagram`` (3 000 ``random_diagram(Random(11))`` draws
with ``randint(1, 50)`` counts), ``cycles`` (three ``10**U(0,9)`` draws
on the 128- and 512-operation cycles) and ``cli`` (validate, classify
and estimate, text and JSON, with ``--self-check`` and every method, on
each fixture).
"""

import argparse
import collections
import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ("shapes", "zero_share", "zero_census", "random_diagram", "cycles", "cli")
SHOWN = 20  # differing record ids listed per corpus in the report


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


# ---- worker: runs inside one tree ------------------------------------------


def estimate_record(api, diagram, counts: dict, method: str) -> dict:
    try:
        result = api.estimate(diagram, counts, method)
    except Exception as exc:  # a crash is an answer too
        return {"error": type(exc).__name__, "message": str(exc),
                "node_path": getattr(exc, "node_path", None)}
    return {"p": {x: str(v) for x, v in result.p.items()}, "method": result.method,
            "tree": result.diagnostics["tree"]}


def cli_record(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"crash {type(exc).__name__}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def corpus(name: str, api, conftest):
    """(record id, job) pairs of one corpus, in a fixed order: a job is
    (diagram, counts, method) for ``estimate`` or an argv for the CLI."""
    both = ("auto", "numeric")
    if name == "shapes":
        for shape, d in api.shapes.all_shapes().items():
            rng = random.Random(f"shapes/{shape}")
            for i in range(150):
                counts = {x: rng.randint(1, 1000) for x in d.outcomes}
                for method in both:
                    yield f"{shape}/moderate/{i}/{method}", (d, counts, method)
            for i in range(150):
                counts = {x: int(10 ** rng.uniform(0, 9)) for x in d.outcomes}
                for method in both:
                    yield f"{shape}/skewed/{i}/{method}", (d, counts, method)
    elif name == "zero_share":
        for shape, d in api.shapes.all_shapes().items():
            rng = random.Random(f"zero share/{shape}")
            for i in range(100):
                counts = {x: rng.randint(0, 3) if rng.random() < 0.15 else rng.randint(1, 300)
                          for x in d.outcomes}
                for method in both:
                    yield f"{shape}/{i}/{method}", (d, counts, method)
    elif name == "zero_census":
        rng = random.Random("zero counts")
        for i in range(200):
            d = conftest.random_diagram(rng)
            counts = {x: 0 if rng.random() < 0.3 else rng.randint(1, 50) for x in d.outcomes}
            yield str(i), (d, counts, "auto")
    elif name == "random_diagram":
        rng = random.Random(11)
        for i in range(3000):
            d = conftest.random_diagram(rng)
            yield str(i), (d, {x: rng.randint(1, 50) for x in d.outcomes}, "auto")
    elif name == "cycles":
        for k in (128, 512):
            d = conftest.cycle_diagram(k)
            rng = random.Random(f"cycle{k}")
            for i in range(3):
                counts = {x: int(10 ** rng.uniform(0, 9)) for x in d.outcomes}
                yield f"{k}/{i}", (d, counts, "auto")
    else:  # cli
        estimates = [[], ["--self-check"], ["--method", "closed"], ["--method", "numeric"]]
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            calls = [["validate"], ["classify"]] + [["estimate", *opts] for opts in estimates]
            for call in calls:
                for fmt in ("text", "json"):
                    argv = [call[0], str(path), *call[1:], "--format", fmt]
                    yield f"{path.name}/{' '.join(argv[2:])}", argv


def worker(src: Path, limit) -> None:
    sys.path[:0] = [str(src), str(ROOT)]
    import greechie_mle as api
    from greechie_mle.cli import main
    from tests import conftest

    if not Path(api.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"greechie_mle imported from {api.__file__}, not from {src}")
    for name in CORPORA:
        for rid, job in islice(corpus(name, api, conftest), limit):
            rec = cli_record(main, job) if name == "cli" else estimate_record(api, *job)
            print(json.dumps({"corpus": name, "id": rid, **rec}, sort_keys=True))


# ---- comparison: runs both trees and compares their records --------------


def route(rec: dict) -> str:
    if "code" in rec:
        return f"exit {rec['code']}"
    return rec.get("method") or rec["error"]


def p_difference(a: dict, b: dict) -> float:
    if "p" not in a or "p" not in b or a["p"].keys() != b["p"].keys():
        return 0.0
    return max(abs(float(Fraction(a["p"][x])) - float(Fraction(b["p"][x]))) for x in a["p"])


def compare(parent: list[dict], change: list[dict]) -> dict:
    report = {}
    for name in CORPORA:
        census = {"parent": collections.Counter(), "change": collections.Counter()}
        report[name] = {"records": 0, "identical": 0, "max_abs_dp": 0.0, "census": census,
                        "differing": []}
    for a, b in zip(parent, change, strict=True):
        assert a["id"] == b["id"], (a["id"], b["id"])
        entry = report[a["corpus"]]
        entry["records"] += 1
        entry["census"]["parent"][route(a)] += 1
        entry["census"]["change"][route(b)] += 1
        entry["max_abs_dp"] = max(entry["max_abs_dp"], p_difference(a, b))
        if a == b:
            entry["identical"] += 1
        elif len(entry["differing"]) < SHOWN:
            entry["differing"].append(a["id"])
    for entry in report.values():
        entry["census"] = {side: dict(sorted(c.items())) for side, c in entry["census"].items()}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.limit)
        return 0

    parent_commit = git("rev-parse", args.parent)
    change_commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change_commit += "+working-tree"
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", parent_commit, "src"], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        command = [sys.executable, __file__]
        if args.limit is not None:
            command += ["--limit", str(args.limit)]
        procs = [
            subprocess.Popen(command + ["--worker", str(src)], stdout=subprocess.PIPE, text=True)
            for src in (Path(tmp) / "src", ROOT / "src")
        ]
        outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("a worker failed", file=sys.stderr)
        return 1
    parent, change = ([json.loads(line) for line in out.splitlines()] for out in outputs)
    doc = {"parent_commit": parent_commit, "change_commit": change_commit,
           "corpora": compare(parent, change)}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
