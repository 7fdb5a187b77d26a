"""The four workloads: their inputs, their operations and the checks on them.

A workload class is built from (api, cli, seed, workdir) and hands the
runner untimed ``warmup()`` operations and whole rounds ``round(r)``.
Every round of a workload holds the same kinds of operation in the same
numbers, so the share of failed operations is the same in every run, and
the inputs of round r depend only on the seed and r.  An operation's ``run`` is the
timed call into the package; its ``check`` runs afterwards, untimed.

The package is reached through module attributes at call time
(``api.estimate``, ``cli.main``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from checks import Problem, estimate_problems, log_lik, negative_control, oracle_problems


@dataclass(frozen=True)
class Op:
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Shape:
    name: str
    diagram: object
    problem: Problem


def make_shape(name: str, diagram) -> Shape:
    problem = Problem(
        outcomes=tuple(diagram.outcomes),
        operations=tuple(tuple(op) for op in diagram.operations),
    )
    return Shape(name, diagram, problem)


def skewed_counts(problem: Problem, rng: random.Random) -> dict[str, int]:
    """Counts drawn as 10**U(0,9): from 1 to about a billion."""
    return {x: int(10 ** rng.uniform(0, 9)) for x in problem.outcomes}


def moderate_counts(problem: Problem, rng: random.Random, low: int) -> dict[str, int]:
    return {x: rng.randint(low, 1000) for x in problem.outcomes}


def positive_assignment(problem: Problem, rng: random.Random) -> dict[str, float]:
    """A strictly positive assignment with every operation summing to 1.

    Outcomes shared by several operations get their values first: an
    operation made only of shared outcomes is split at random, the other
    shared outcomes get 0.05 to 0.30 each, and each operation's own
    outcomes then share what is left.  Built in Fractions, so the sums
    are exact before the conversion to float."""
    shared = {x for x in problem.outcomes if len(problem.edges_of(x)) > 1}
    p: dict[str, Fraction] = {}

    def split(members, total: Fraction) -> None:
        weights = [rng.randint(1, 10) for _ in members]
        for x, w in zip(members, weights):
            p[x] = total * w / sum(weights)

    for op in problem.operations:
        if all(x in shared for x in op) and not any(x in p for x in op):
            split(op, Fraction(1))
    for x in problem.outcomes:
        if x in shared and x not in p:
            p[x] = Fraction(rng.randint(5, 30), 100)
    for op in problem.operations:
        free = [x for x in op if x not in p]
        rest = 1 - sum((p[x] for x in op if x in p), Fraction(0))
        if free:
            split(free, rest)
    if any(v <= 0 for v in p.values()) or any(
        sum(p[x] for x in op) != 1 for op in problem.operations
    ):
        raise ValueError("no positive assignment of this construction exists")
    return {x: float(p[x]) for x in problem.outcomes}


def reference_counts(
    problem: Problem, p_true: Mapping[str, float], trials: int, seed: int
) -> dict[str, int]:
    """The counts ``sample_outcomes`` must return under a uniform policy,
    computed by the procedure its module documents: Philox(seed) draws a
    (trials, 2) array; the first column picks the operation by running
    sums of the weights, the second the member by running sums of p_true."""
    u = np.random.Generator(np.random.Philox(seed)).random((trials, 2))
    m = len(problem.operations)
    chosen = np.minimum(
        np.searchsorted(np.cumsum(np.full(m, 1.0 / m)), u[:, 0], side="right"), m - 1)
    counts = dict.fromkeys(problem.outcomes, 0)
    for j, op in enumerate(problem.operations):
        cum_p = np.cumsum([p_true[x] for x in op])
        member = np.minimum(
            np.searchsorted(cum_p, u[chosen == j, 1], side="right"), len(op) - 1)
        for i, hits in enumerate(np.bincount(member, minlength=len(op))):
            counts[op[i]] += int(hits)
    return counts


def _label(shape: Shape, problems: list[str]) -> list[str]:
    return [f"{shape.name}: {msg}" for msg in problems]


def estimate_op(api, shape: Shape, counts: Mapping[str, int]) -> Op:
    """``estimate`` on given counts, checked for feasibility and optimality."""

    def run():
        return api.estimate(shape.diagram, counts)

    def check(result) -> list[str]:
        return _label(shape, estimate_problems(shape.problem, counts, result.p))

    return Op(run, check)


def negative_controls(api) -> list[str]:
    """The checker must pass the true estimate and reject it once mass is
    moved inside one operation: once on an exact route, once on the
    numeric one."""
    cases = (
        ("tennis", {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}),
        ("comb", {"t1": 40, "t2": 25, "t3": 35, "u1": 12, "v1": 30,
                  "u2": 8, "v2": 17, "u3": 22, "v3": 9}),
    )
    out = []
    for name, counts in cases:
        shape = make_shape(name, getattr(api.shapes, name)())
        result = api.estimate(shape.diagram, counts)
        out += _label(shape, negative_control(shape.problem, counts, result.p))
    return out


class ShapesRoundtrip:
    """A seeded sampler draw on each reference shape, then ``estimate``
    on the counts it gave.

    Draws whose counts hold a zero are left out and drawn again: on them
    the zero-count reduction can return an assignment that is not the
    maximiser (see the README), and they are too rare to show in every
    run.  The benchmark finds them with its own copy of the sampler's
    documented procedure, which also checks the sampler's output."""

    name = "shapes_roundtrip"
    DRAWS = 25  # per shape and round

    def __init__(self, api, cli, seed: int, workdir: Path) -> None:
        self.api, self.seed = api, seed
        self.shapes = [make_shape(n, d) for n, d in api.shapes.all_shapes().items()]
        self.policies = {s.name: api.OperationPolicy.uniform(s.diagram) for s in self.shapes}

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        ops = []
        for _ in range(self.DRAWS):
            for shape in self.shapes:
                while True:
                    p_true = positive_assignment(shape.problem, rng)
                    trials = int(10 ** rng.uniform(2, 4))
                    seed = rng.randrange(1, 2**31)
                    expected = reference_counts(shape.problem, p_true, trials, seed)
                    if 0 not in expected.values():
                        break
                ops.append(self._op(shape, p_true, trials, seed, expected))
        return ops

    def warmup(self) -> list[Op]:
        return self.round(-1)[: len(self.shapes)]

    def _op(self, shape: Shape, p_true: dict, trials: int, seed: int, expected: dict) -> Op:
        api, policy = self.api, self.policies[shape.name]

        def run():
            counts = api.sample_outcomes(shape.diagram, p_true, policy, trials, seed)
            return counts, api.estimate(shape.diagram, counts)

        def check(out) -> list[str]:
            counts, result = out
            if counts != expected:
                msg = f"sampler counts {counts} != documented procedure's {expected}"
                return _label(shape, [msg])
            return _label(shape, estimate_problems(shape.problem, counts, result.p))

        return Op(run, check)


# path3_wide counts on which the chain-closed route returns an infeasible
# assignment (AssertionError): the one operation expected to fail.
PATH3_WIDE_INFEASIBLE = {
    "a1": 231059, "a2": 29, "a3": 3323071, "y1": 600607640, "b1": 26517931,
    "b2": 48542, "y2": 916692828, "c1": 19, "c2": 10, "c3": 59,
}
class SkewedCounts:
    """``estimate`` on counts spread over nine decades.

    Seeded draws go to the shapes solved exactly (tennis, disjoint_pairs).
    The chain Newton and numeric shapes get a fixed corpus instead, the
    same in every round and for every seed: seeded draws on them fail now
    and then (see the README), and their slow cases are rare enough that
    a run's throughput would depend on how many it happened to draw."""

    name = "skewed_counts"
    SEEDED = ("tennis", "disjoint_pairs")
    SEEDED_DRAWS = 100  # per seeded shape and round
    CORPUS = {"path4": 40, "path5": 40, "four_cycle": 20}  # draws per shape

    def __init__(self, api, cli, seed: int, workdir: Path) -> None:
        self.api, self.seed = api, seed
        shapes = {n: make_shape(n, d) for n, d in api.shapes.all_shapes().items()}
        self.seeded = [shapes[n] for n in self.SEEDED]
        corpus_rng = random.Random(f"{self.name}/corpus")
        self.fixed = [estimate_op(api, shapes["path3_wide"], PATH3_WIDE_INFEASIBLE)]
        self.first = {}
        for name, draws in self.CORPUS.items():
            self.first[name] = len(self.fixed)
            for _ in range(draws):
                counts = skewed_counts(shapes[name].problem, corpus_rng)
                self.fixed.append(estimate_op(api, shapes[name], counts))

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        ops = list(self.fixed)
        for _ in range(self.SEEDED_DRAWS):
            for shape in self.seeded:
                ops.append(estimate_op(self.api, shape, skewed_counts(shape.problem, rng)))
        return ops

    def warmup(self) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/warmup")
        ops = [estimate_op(self.api, s, skewed_counts(s.problem, rng)) for s in self.seeded]
        return ops + [self.fixed[i] for i in self.first.values()]


def cycle_document(k: int) -> tuple[list[str], list[list[str]]]:
    """k operations {k_j, m_j, k_(j+1)} closed into one cycle."""
    outcomes = [name for j in range(k) for name in (f"k{j}", f"m{j}")]
    operations = [[f"k{j}", f"m{j}", f"k{(j + 1) % k}"] for j in range(k)]
    return outcomes, operations


class LargeCli:
    """``greechie-mle estimate <file> --format json`` called in-process on
    cycles and chains of 128 to 512 operations."""

    name = "large_cli"
    SIZES = (128, 256, 512)
    # A k-cycle with k >= 5 and an acyclic chain pass every structural rule.
    VALIDATION = {"g1": True, "g2_omp": True, "g2_oml": True, "intersection": True}

    def __init__(self, api, cli, seed: int, workdir: Path) -> None:
        self.cli = cli
        rng = random.Random(f"{self.name}/{seed}")
        self.ops = []
        for k in self.SIZES:
            chain = api.shapes.chain_path([2] * k)
            for kind, (outcomes, operations) in (
                ("cycle", cycle_document(k)),
                ("chain", (list(chain.outcomes), [list(op) for op in chain.operations])),
            ):
                problem = Problem(tuple(outcomes), tuple(map(tuple, operations)))
                counts = moderate_counts(problem, rng, 1)
                path = workdir / f"{kind}{k}.json"
                path.write_text(json.dumps(
                    {"outcomes": outcomes, "operations": operations, "counts": counts}))
                self.ops.append(self._op(f"{kind}-{k}", problem, counts, path))

    def round(self, r: int) -> list[Op]:
        return list(self.ops)

    def warmup(self) -> list[Op]:
        return self.ops[:2]

    def _op(self, label: str, problem: Problem, counts: dict, path: Path) -> Op:
        cli = self.cli
        argv = ["estimate", str(path), "--format", "json"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(out) -> list[str]:
            code, text = out
            if code != 0:
                return [f"{label}: exit code {code}"]
            doc = json.loads(text)
            p = {x: float(v) for x, v in doc["probabilities"].items()}
            problems = estimate_problems(problem, counts, p)
            if doc["validation"] != self.VALIDATION:
                problems.append(f"validation block {doc['validation']} != {self.VALIDATION}")
            if not problems:
                ll = log_lik(counts, p)
                if abs(doc["log_likelihood"] - ll) > 1e-9 * abs(ll):
                    problems.append(f"log_likelihood {doc['log_likelihood']!r} != {ll!r}")
            return [f"{label}: {msg}" for msg in problems]

        return Op(run, check)


class OracleCheck:
    """``estimate`` and ``brute_force_mle`` under one fixed budget on each
    reference shape: the library form of ``greechie-mle oracle-check``."""

    name = "oracle_check"
    DRAWS = 1  # per shape and round

    def __init__(self, api, cli, seed: int, workdir: Path) -> None:
        self.api, self.seed = api, seed
        self.shapes = [make_shape(n, d) for n, d in api.shapes.all_shapes().items()]
        self.budget = api.OracleBudget(sample_count=10_000, refine_steps=20, rng_seed=1)
        self.warmup_budget = api.OracleBudget(sample_count=100, refine_steps=2, rng_seed=1)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        return [
            self._op(shape, moderate_counts(shape.problem, rng, 10))
            for _ in range(self.DRAWS)
            for shape in self.shapes
        ]

    def warmup(self) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/warmup")
        return [
            self._op(shape, moderate_counts(shape.problem, rng, 10), self.warmup_budget)
            for shape in self.shapes
        ]

    def _op(self, shape: Shape, counts: dict, budget=None) -> Op:
        api, budget = self.api, budget or self.budget

        def run():
            result = api.estimate(shape.diagram, counts)
            return result, api.brute_force_mle(shape.diagram, counts, budget)

        def check(out) -> list[str]:
            result, oracle_p = out
            problems = estimate_problems(shape.problem, counts, result.p)
            problems += oracle_problems(shape.problem, counts, result.p, oracle_p)
            return _label(shape, problems)

        return Op(run, check)


WORKLOADS = {w.name: w for w in (ShapesRoundtrip, SkewedCounts, LargeCli, OracleCheck)}
