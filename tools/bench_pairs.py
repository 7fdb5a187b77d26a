"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--parent REV] [--seed 3]

The change is the working tree of the checkout holding this file; the
parent revision (default HEAD) is extracted from it with ``git archive``
into a temporary directory.  For every workload of BENCHMARK.json,
``python3 perfbench/run.py`` then runs PAIRS = 10 times in each, with
the same seed and the benchmark's run length.  The parent runs first in
the first pair, the change in the second, and so on.  The output file
holds, per workload and end-to-end metric, the per-run values, the
parent and change medians and quartiles and the number of pairs the
change won, together with each run's correct/failed tally, both
revisions, the seed, the run length and the machine.  Progress goes to
standard error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarise(spec: dict, parent_runs: list[dict], change_runs: list[dict]) -> dict:
    metrics = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        before = [run["metrics"][name]["value"] for run in parent_runs]
        after = [run["metrics"][name]["value"] for run in change_runs]
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": statistics.median(before),
            "change_median": statistics.median(after),
            "parent_quartiles": quartiles(before),
            "change_quartiles": quartiles(after),
            "change_wins": sum((a > b) if higher else (a < b) for a, b in zip(after, before)),
            "parent_runs": before,
            "change_runs": after,
        }
    tally = {
        side: [{"correct": run["correct"], "attempted": run["attempted"],
                "failed": run["failed"]} for run in runs]
        for side, runs in (("parent", parent_runs), ("change", change_runs))
    }
    return {"metrics": metrics, "runs": tally}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_commit = git("rev-parse", args.parent)
    change_commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change_commit += "+working-tree"

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", parent_commit], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        for workload in [w["name"] for w in spec["workloads"]]:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for pair in range(PAIRS):
                sides = [("parent", parent_dir), ("change", ROOT)]
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    run = run_once(checkout, workload, args.seed, seconds)
                    runs[side].append(run)
                    ops = run["metrics"]["ops_per_s"]["value"]
                    print(f"{workload} pair {pair + 1}/{PAIRS} {side}: "
                          f"{ops:.1f} ops/s, failed {run['failed']}", file=sys.stderr)
            results[workload] = summarise(spec, runs["parent"], runs["change"])

    doc = {
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "order": "parent first in odd-numbered pairs, change first in even",
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workloads": results,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
