"""Benchmark of greechie-mle: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up its inputs, runs untimed warm-up operations,
then runs whole rounds of operations, one at a time, until S seconds
have passed.  Each operation is timed alone with ``perf_counter`` and
checked afterwards, untimed, by ``checks.py``.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a run with every traced function wrapped; its spans
are written to ``perfbench/out/trace-<workload>.npz``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy is first imported: with the
# default pool the first calls on a large diagram take several times as
# long as the later ones, and timings spread with the machine's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# The machine's speed is sampled with reference_work() between operations.
# REFERENCE_S is its time in a quiet spell of the 2-CPU machine the
# benchmark was built on; every time is divided by the slowdown
# (sample / REFERENCE_S) measured around it.
REFERENCE_S = 0.82e-3
REFERENCE_EVERY_S = 0.025  # wall time between samples inside a round


def reference_work() -> Fraction:
    """Fixed work that uses nothing of the package: interpreted loops over
    a dict, small-array numpy calls and Fraction sums, the mix the
    workloads spend their time in."""
    acc: dict[int, int] = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    v = np.arange(1.0, 65.0)
    for _ in range(60):
        v = np.sqrt(v * 1.0001 + 1.0)
        v.sum()
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(1, i)
    return f


def reference_sample() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # message -> count
    scale: list = field(default_factory=list)  # 1 / slowdown, per attempted operation
    rounds: list = field(default_factory=list)  # scaled (ops per s, p50 s, p90 s)
    slowdowns: list = field(default_factory=list)  # median per round


def run_round(ops, tracer, tally: Tally) -> None:
    """Run one round: time each operation alone, then check it.

    Reference samples are taken between operations, every
    REFERENCE_EVERY_S of wall time and at both ends of the round.  Each
    operation's time is divided by the slowdown at that moment, from the
    mean of the samples just before and just after it.  Appends the
    round's completed operations per second of timed time and its median
    and 90th-percentile operation times."""
    refs, last_ref = [reference_sample()], time.perf_counter()
    timed = []  # (seconds, index of the last sample before, completed)
    for op in ops:
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_sample())
            last_ref = time.perf_counter()
        if tracer is not None:
            tracer.op_id = tally.attempted
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            t1 = time.perf_counter()
            tally.failed += 1
            key = f"{type(exc).__name__}: {exc}"
            tally.failures[key] = tally.failures.get(key, 0) + 1
            timed.append((t1 - t0, len(refs) - 1, False))
        else:
            t1 = time.perf_counter()
            timed.append((t1 - t0, len(refs) - 1, True))
            tally.problems += op.check(out)
        tally.attempted += 1
        out = None  # drop the result: numeric diagnostics keep per-sweep lists
    refs.append(reference_sample())
    scale = [2 * REFERENCE_S / (refs[k] + refs[k + 1]) for _, k, _ in timed]
    tally.scale += scale
    tally.slowdowns.append(statistics.median(refs) / REFERENCE_S)
    times = [dt * s for (dt, _, ok), s in zip(timed, scale) if ok]
    if times:
        busy = sum(dt * s for (dt, _, _), s in zip(timed, scale))
        # Inclusive quantiles stay inside the data on the 6- and 8-operation rounds.
        cuts = times * 9
        if len(times) > 1:
            cuts = statistics.quantiles(times, n=10, method="inclusive")
        tally.rounds.append((len(times) / busy, cuts[4], cuts[8]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "greechie_mle" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import greechie_mle as api
    import greechie_mle.cli as cli

    from workloads import WORKLOADS, negative_controls

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(api)

    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](api, cli, args.seed, workdir)
        tally = Tally(problems=negative_controls(api))
        warm = Tally()
        run_round(workload.warmup(), None, warm)
        tally.problems += warm.problems
        if tracer is not None:
            tracer.reset()

        t_first = time.perf_counter()
        setup_slowdown = statistics.median(reference_sample() for _ in range(3)) / REFERENCE_S
        counted = None
        rounds = 0
        while rounds == 0 or time.perf_counter() - t_first < args.seconds:
            run_round(workload.round(rounds), tracer, tally)
            rounds += 1
            if tracer is not None and counted is None:
                counted = (tally.attempted, tracer.counts())
        wall = time.perf_counter() - t_first
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not tally.rounds:
        print("error: no operation completed", file=sys.stderr)
        return 1
    # Every round holds the same kinds of operation, so each round gives a
    # full estimate of each figure; the run reports their medians.
    ops_per_s, p50, p90 = (statistics.median(col) for col in zip(*tally.rounds))
    if tracer is None:
        values = {
            "setup_s": (t_first - T_START) / setup_slowdown,
            "ops_per_s": ops_per_s,
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layer = tracer.metrics(tally.scale, *counted)
        layer["traced.ops_per_s"] = (ops_per_s, "1/s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.write(OUT / f"trace-{args.workload}.npz", t_first)

    for failure, n in sorted(tally.failures.items()):
        print(f"failed x{n}: {failure}", file=sys.stderr)
    for problem in tally.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {tally.attempted} ops in "
          f"{wall:.1f} s, median slowdown {statistics.median(tally.slowdowns):.2f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
