"""Smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload for a single round, untraced and traced, and checks
that each run exits 0 and ends with the result line (attempted and
failed counts, every metric of BENCHMARK.json).  Then checks that the
checker rejects an estimate with mass moved inside one operation, and
that the benchmark refuses to run where there is no package source.
Exits 1 and names each problem if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_problems(proc: subprocess.CompletedProcess, metric_names: set[str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["no result line"]
    result = json.loads(lines[-1])
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and 0 <= failed < attempted):
        out.append(f"attempted {attempted!r}, failed {failed!r}")
    if result.get("correct") is not True:
        out.append(f"outputs incorrect: {proc.stderr.strip()[-500:]}")
    if set(result.get("metrics", {})) != metric_names:
        out.append(f"metrics {sorted(result.get('metrics', {}))} != {sorted(metric_names)}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            for msg in result_problems(run(workload, trace, ROOT), names[trace]):
                problems.append(f"{workload} --trace {trace}: {msg}")

    sys.path.insert(0, str(ROOT / "src"))
    import greechie_mle

    from workloads import negative_controls

    problems += [f"negative control: {msg}" for msg in negative_controls(greechie_mle)]

    # A directory holding only BENCHMARK.json and the benchmark: no result.
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(spec["workloads"][0]["name"], 0, bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("ran without the package source")

    for msg in problems:
        print(f"FAIL {msg}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
