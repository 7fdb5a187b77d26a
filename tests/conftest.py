"""Shared test helpers: seeded count and diagram generators and fixture
paths."""

import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from greechie_mle import GreechieDiagram, build_diagram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_counts(
    diagram: GreechieDiagram, rng: np.random.Generator, low: int = 1, high: int = 50
) -> dict[str, int]:
    """Positive integer counts for every outcome, from a seeded generator."""
    draws = rng.integers(low, high + 1, size=len(diagram.outcomes))
    return {x: int(v) for x, v in zip(diagram.outcomes, draws)}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(20240817))


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


LINEAR_KINDS = ("acyclic", "path", "cycle", "branched", "disconnected")


def random_linear_diagram(
    rng: random.Random, kind: str, prefix: str = "x"
) -> GreechieDiagram:
    """A seeded random diagram whose operations pairwise share at most one
    outcome, in shuffled declaration order.

    acyclic: a tree of operations, each new one meeting the others in one
    outcome.  path: operations in a row, consecutive ones sharing one
    outcome.  cycle: a ring of 3 to 12 operations with trees hung on it.
    branched: a ring plus operations through two outcomes that share no
    operation yet, closing further cycles.  disconnected: two or three
    of the others side by side.
    """
    if kind == "disconnected":
        pieces = [
            random_linear_diagram(rng, rng.choice(LINEAR_KINDS[:4]), f"{prefix}{i}_")
            for i in range(rng.randint(2, 3))
        ]
        outcomes = [x for d in pieces for x in d.outcomes]
        operations = [list(op) for d in pieces for op in d.operations]
        rng.shuffle(operations)
        return build_diagram(outcomes, operations)

    outcomes: list[str] = []
    operations: list[list[str]] = []
    together: set[frozenset[str]] = set()  # outcome pairs sharing an operation

    def add(old: list[str], fresh: int) -> None:
        op = old + [f"{prefix}{len(outcomes) + k}" for k in range(fresh)]
        if not op or any(frozenset(op) == frozenset(o) for o in operations):
            return
        outcomes.extend(op[len(old):])
        rng.shuffle(op)
        operations.append(op)
        together.update(frozenset(pair) for pair in itertools.combinations(op, 2))

    if kind == "path":
        add([], rng.randint(1, 3))
        last = 0  # where the previous operation's own outcomes start
        for _ in range(rng.randint(1, 12)):
            start = len(outcomes)
            add([rng.choice(outcomes[last:])], rng.randint(1, 3))
            last = start
    elif kind == "acyclic":
        add([], rng.randint(1, 3))
        for _ in range(rng.randint(0, 15)):
            add([rng.choice(outcomes)], rng.randint(0, 3))
    else:
        ring = [f"{prefix}r{k}" for k in range(rng.randint(3, 12))]
        outcomes.extend(ring)
        for k, x in enumerate(ring):
            add([x, ring[(k + 1) % len(ring)]], rng.randint(0, 2))
        if kind == "branched":
            for _ in range(rng.randint(1, 4)):
                a, b = rng.sample(outcomes, 2)
                if frozenset((a, b)) not in together:
                    add([a, b], rng.randint(0, 2))
        for _ in range(rng.randint(0, 6)):
            add([rng.choice(outcomes)], rng.randint(1, 3))
    rng.shuffle(outcomes)
    return build_diagram(outcomes, operations)


def cycle_diagram(k: int) -> GreechieDiagram:
    """A ring of k operations {k_j, m_j, k_(j+1)}."""
    outcomes = [x for j in range(k) for x in (f"k{j}", f"m{j}")]
    return build_diagram(
        outcomes, [[f"k{j}", f"m{j}", f"k{(j + 1) % k}"] for j in range(k)]
    )


def pair_ring(k: int) -> GreechieDiagram:
    """A ring of k operations {x_j, x_(j+1)}; for even k the operations
    are linearly dependent (their alternating sum is zero)."""
    names = [f"x{j}" for j in range(k)]
    return build_diagram(names, [[names[j], names[(j + 1) % k]] for j in range(k)])


def random_diagram(rng: random.Random) -> GreechieDiagram:
    """A seeded random diagram of 2 to 8 operations over at most 8
    outcomes, with no restriction on how many outcomes two share."""
    pool = [f"o{k}" for k in range(rng.randint(3, 8))]
    operations: list[list[str]] = []
    for _ in range(rng.randint(2, 8)):
        op = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        if all(frozenset(op) != frozenset(o) for o in operations):
            operations.append(op)
    covered = {x for op in operations for x in op}
    return build_diagram([x for x in pool if x in covered], operations)


def assert_kkt(diagram: GreechieDiagram, freq, result, tol: float = 1e-9) -> None:
    """The KKT conditions of a numeric estimate, with sigma = A^T lambda
    summed exactly from ``diagnostics["multipliers"]`` (one per
    operation of ``diagram``): p sigma / n within tol of 1 on observed
    outcomes, and on unobserved ones sigma >= -tol max(sigma) and
    p sigma <= tol."""
    lam = result.diagnostics["multipliers"]
    sigma = {x: math.fsum(lam[j] for j in js) for x, js in diagram.edges_of.items()}
    top = max(sigma.values())
    for x, s in sigma.items():
        p = float(result.p[x])
        if freq[x] > 0:
            assert abs(p * s / freq[x] - 1) <= tol, (x, p, s, freq)
        else:
            assert s >= -tol * top, (x, s, freq)
            assert p * s <= tol, (x, p, s, freq)
