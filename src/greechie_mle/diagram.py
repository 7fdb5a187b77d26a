"""Hypergraph event model (Greechie diagrams).

An event structure is a finite hypergraph: outcomes are vertices and
operations are edges.  Each operation is one performable experiment whose
member outcomes are mutually exclusive and exhaustive, so a probability
assignment must give every operation unit total mass.

This module owns the model types, the structural validation rules (the
separation condition on edge pairs and the minimum-cycle-length
conditions), the zero-count reduction, and likelihood evaluation.
Everything here is immutable and purely functional.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    DiagramError,
    DuplicateEdge,
    DuplicateOutcome,
    EmptyAfterReduction,
    EmptyEdge,
    IntersectionTooLarge,
    UncoveredOutcome,
    UnknownMember,
)

OutcomeId = str
Operation = tuple[OutcomeId, ...]
FrequencyTable = Mapping[OutcomeId, int]
ProbabilityAssignment = Mapping[OutcomeId, Union[Fraction, float]]

NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class GreechieDiagram:
    """Finite hypergraph of outcomes (vertices) and operations (edges).

    Outcome and operation order is the declaration order; all outputs
    derived from a diagram follow it, which keeps results deterministic.
    """

    outcomes: tuple[OutcomeId, ...]
    operations: tuple[Operation, ...]

    @cached_property
    def outcome_index(self) -> dict[OutcomeId, int]:
        return {x: i for i, x in enumerate(self.outcomes)}

    @cached_property
    def edge_sets(self) -> tuple[frozenset[OutcomeId], ...]:
        return tuple(frozenset(op) for op in self.operations)

    @cached_property
    def edges_of(self) -> dict[OutcomeId, tuple[int, ...]]:
        """Operation indices containing each outcome, in declaration order."""
        member: dict[OutcomeId, list[int]] = {x: [] for x in self.outcomes}
        for j, op in enumerate(self.operations):
            for x in op:
                member[x].append(j)
        return {x: tuple(js) for x, js in member.items()}

    def __repr__(self) -> str:  # keep test failure output readable
        ops = ", ".join("{" + ",".join(op) + "}" for op in self.operations)
        return f"GreechieDiagram({len(self.outcomes)} outcomes; {ops})"


def build_diagram(
    outcome_list: Iterable[OutcomeId], operation_list: Iterable[Iterable[OutcomeId]]
) -> GreechieDiagram:
    """Validate raw outcome/operation listings and freeze them.

    Rejects duplicate outcomes, unknown or duplicate members, duplicate
    edges (same member set regardless of order), empty edges, and
    outcomes not covered by any edge.
    """
    outcomes = tuple(outcome_list)
    seen: set[OutcomeId] = set()
    for x in outcomes:
        if not isinstance(x, str) or not x:
            raise DiagramError(f"outcome tokens must be nonempty strings, got {x!r}")
        if x in seen:
            raise DuplicateOutcome(x)
        seen.add(x)

    operations: list[Operation] = []
    edge_sets: list[frozenset[OutcomeId]] = []
    for j, raw in enumerate(operation_list):
        op = tuple(raw)
        if not op:
            raise EmptyEdge(j)
        members: set[OutcomeId] = set()
        for x in op:
            if x not in seen:
                raise UnknownMember(x, j)
            if x in members:
                raise DuplicateOutcome(x, where=f"operation #{j}")
            members.add(x)
        fs = frozenset(op)
        if fs in edge_sets:
            raise DuplicateEdge(op)
        edge_sets.append(fs)
        operations.append(op)

    covered = set().union(*edge_sets) if edge_sets else set()
    for x in outcomes:
        if x not in covered:
            raise UncoveredOutcome(x)

    return GreechieDiagram(outcomes=outcomes, operations=tuple(operations))


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...] = ()

    def __post_init__(self) -> None:
        assert self.passed == (len(self.violations) == 0)

    @staticmethod
    def from_violations(violations: list[Violation]) -> "ValidationReport":
        return ValidationReport(passed=not violations, violations=tuple(violations))


def check_g1(diagram: GreechieDiagram) -> ValidationReport:
    """Separation condition: every ordered pair of distinct operations
    (B1, B2) must satisfy card(B1 minus B2) >= 2."""
    violations: list[Violation] = []
    sets = diagram.edge_sets
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i == j:
                continue
            diff = a - b
            if len(diff) < 2:
                violations.append(
                    Violation(
                        rule="G1",
                        witness=(diagram.operations[i], diagram.operations[j]),
                        message=(
                            f"operation {set(diagram.operations[i])!r} minus "
                            f"{set(diagram.operations[j])!r} leaves only {sorted(diff)!r}"
                        ),
                    )
                )
    return ValidationReport.from_violations(violations)


def _check_pairwise_intersections(diagram: GreechieDiagram) -> None:
    sets = diagram.edge_sets
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) > 1:
                raise IntersectionTooLarge(diagram.operations[i], diagram.operations[j])


def minimum_cycle_length(
    diagram: GreechieDiagram,
) -> tuple[Optional[int], Optional[tuple]]:
    """Length of the shortest cycle, or (None, None) if acyclic.

    A cycle of length n is an alternating closed sequence
    v_0 B_0 v_1 B_1 ... v_{n-1} B_{n-1} (v_0) with n >= 3, all edges
    distinct, all connecting vertices distinct, and {v_i, v_{i+1}} in B_i.
    Found as half the girth of the bipartite vertex-edge incidence graph;
    requires pairwise edge intersections of at most one outcome, which
    rules out bipartite 4-cycles, so the correspondence is exact.

    Returns (length, witness) where the witness alternates outcome ids
    and operation indices around the cycle.
    """
    _check_pairwise_intersections(diagram)

    n = len(diagram.outcomes)
    m = len(diagram.operations)
    # Bipartite incidence graph: nodes 0..n-1 outcomes, n..n+m-1 operations.
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for j, op in enumerate(diagram.operations):
        for x in op:
            i = diagram.outcome_index[x]
            adj[i].append(n + j)
            adj[n + j].append(i)

    best_len: Optional[int] = None
    best_cycle: Optional[list[int]] = None
    for root in range(n + m):
        dist = [-1] * (n + m)
        parent = [-1] * (n + m)
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best_len is not None and 2 * dist[u] >= best_len:
                break
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    # Non-tree edge: closes a cycle through the BFS tree.
                    length = dist[u] + dist[v] + 1
                    if best_len is None or length < best_len:
                        best_len = length
                        best_cycle = _closure_cycle(parent, u, v)
    if best_len is None:
        return None, None

    cycle = best_cycle or []
    # Rotate so the sequence starts at an outcome node.
    start = next(k for k, node in enumerate(cycle) if node < n)
    cycle = cycle[start:] + cycle[:start]
    witness = tuple(
        diagram.outcomes[node] if node < n else node - n for node in cycle
    )
    return best_len // 2, witness


def _closure_cycle(parent: list[int], u: int, v: int) -> list[int]:
    """Simple cycle through non-tree edge (u, v): tree paths trimmed at
    their lowest common ancestor."""
    path_u = [u]
    while parent[path_u[-1]] >= 0:
        path_u.append(parent[path_u[-1]])
    path_v = [v]
    while parent[path_v[-1]] >= 0:
        path_v.append(parent[path_v[-1]])
    while len(path_u) > 1 and len(path_v) > 1 and path_u[-2] == path_v[-2]:
        path_u.pop()
        path_v.pop()
    # path_u ends at the LCA; path_v supplies the return leg without it.
    return path_u + path_v[-2::-1]


def check_g2(diagram: GreechieDiagram, target: str = "omp") -> ValidationReport:
    """Minimum-cycle-length condition.

    target "omp" requires every cycle length >= 4; target "oml" requires
    >= 5.  Acyclic diagrams pass vacuously.  Raises IntersectionTooLarge
    when two operations share more than one outcome, in which case the
    criterion is not applicable (the diagram itself may still be fine).
    """
    target = target.lower()
    if target not in ("omp", "oml"):
        raise ValueError(f"target must be 'omp' or 'oml', got {target!r}")
    return _g2_report(diagram, target, *minimum_cycle_length(diagram))


def _check_g2_both(diagram: GreechieDiagram) -> tuple[ValidationReport, ValidationReport]:
    """check_g2 for "omp" and for "oml" from a single cycle search."""
    length, witness = minimum_cycle_length(diagram)
    return (
        _g2_report(diagram, "omp", length, witness),
        _g2_report(diagram, "oml", length, witness),
    )


def _g2_report(
    diagram: GreechieDiagram,
    target: str,
    length: Optional[int],
    witness: Optional[tuple],
) -> ValidationReport:
    required = 4 if target == "omp" else 5
    if length is None or length >= required:
        return ValidationReport(passed=True)
    assert witness is not None
    pretty = " - ".join(
        str(tok) if isinstance(tok, str) else "{" + ",".join(diagram.operations[tok]) + "}"
        for tok in witness
    )
    return ValidationReport.from_violations(
        [
            Violation(
                rule=f"G2-{target.upper()}",
                witness=(length, witness),
                message=f"cycle of length {length} < {required}: {pretty}",
            )
        ]
    )


def validate_diagram(diagram: GreechieDiagram) -> ValidationReport:
    """Combined report over every structural rule.

    Covering is re-checked for completeness, the intersection
    precondition is reported as INTERSECTION instead of raising, and the
    cycle conditions appear under G2-OMP / G2-OML.
    """
    violations: list[Violation] = []
    covered = set().union(*diagram.edge_sets) if diagram.edge_sets else set()
    for x in diagram.outcomes:
        if x not in covered:
            violations.append(
                Violation("COVERING", (x,), f"outcome {x!r} belongs to no operation")
            )
    violations.extend(check_g1(diagram).violations)
    try:
        for report in _check_g2_both(diagram):
            violations.extend(report.violations)
    except IntersectionTooLarge as exc:
        violations.append(
            Violation("INTERSECTION", (exc.edge_a, exc.edge_b), str(exc))
        )
    return ValidationReport.from_violations(violations)


def check_frequencies(diagram: GreechieDiagram, freq: FrequencyTable) -> None:
    """Counts must cover exactly the outcome set, with nonnegative integers."""
    if set(freq) != set(diagram.outcomes):
        missing = sorted(set(diagram.outcomes) - set(freq))
        extra = sorted(set(freq) - set(diagram.outcomes))
        raise ValueError(
            f"frequency domain mismatch: missing {missing!r}, unknown {extra!r}"
        )
    for x, v in freq.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"count for {x!r} must be a nonnegative integer, got {v!r}")


@dataclass(frozen=True)
class Reduction:
    """Outcome of zero-count removal.

    ``dropped_operations`` lists operations that lost every member; a
    nonempty list makes the estimation problem infeasible (an operation
    with no members cannot reach unit mass) and estimation entry points
    reject it.  ``collapsed_operations`` lists operations that became
    duplicates of an earlier one after removal; keeping one copy of the
    constraint is equivalent.
    """

    diagram: GreechieDiagram
    freq: dict[OutcomeId, int]
    zeroed: frozenset[OutcomeId]
    dropped_operations: tuple[Operation, ...] = ()
    collapsed_operations: tuple[Operation, ...] = ()


def reduce_zero_counts(diagram: GreechieDiagram, freq: FrequencyTable) -> Reduction:
    """Remove every outcome with a zero count from the vertex set and
    from every operation.

    Assigning probability zero to an unobserved outcome can only raise
    the mass available to observed ones, so the reduced problem has the
    same maximizer with p = 0 re-inserted at the end.  The reduced
    diagram may violate the separation condition; that is acceptable,
    the solvers do not rely on it.  Idempotent.
    """
    check_frequencies(diagram, freq)
    if all(v == 0 for v in freq.values()):
        raise EmptyAfterReduction("every count is zero")

    zeroed = frozenset(x for x in diagram.outcomes if freq[x] == 0)
    if not zeroed:
        return Reduction(
            diagram=diagram,
            freq={x: int(freq[x]) for x in diagram.outcomes},
            zeroed=frozenset(),
        )

    outcomes = tuple(x for x in diagram.outcomes if x not in zeroed)
    kept_ops: list[Operation] = []
    kept_sets: list[frozenset[OutcomeId]] = []
    dropped: list[Operation] = []
    collapsed: list[Operation] = []
    for op in diagram.operations:
        trimmed = tuple(x for x in op if x not in zeroed)
        if not trimmed:
            dropped.append(op)
            continue
        fs = frozenset(trimmed)
        if fs in kept_sets:
            collapsed.append(op)
            continue
        kept_sets.append(fs)
        kept_ops.append(trimmed)

    reduced = GreechieDiagram(outcomes=outcomes, operations=tuple(kept_ops))
    return Reduction(
        diagram=reduced,
        freq={x: int(freq[x]) for x in outcomes},
        zeroed=zeroed,
        dropped_operations=tuple(dropped),
        collapsed_operations=tuple(collapsed),
    )


def log_likelihood(freq: FrequencyTable, p: ProbabilityAssignment) -> float:
    """Sum of n(x) * ln p(x) over outcomes with n(x) > 0.

    Returns -inf when some observed outcome has probability zero.
    Outcomes with n(x) = 0 contribute nothing whatever their p(x),
    following the convention that 0 ** 0 = 1 in the likelihood product.
    """
    total = 0.0
    for x, n in freq.items():
        if n == 0:
            continue
        px = p[x]
        if px <= 0:
            return float("-inf")
        total += n * math.log(px)
    return total


def check_probability(
    diagram: GreechieDiagram,
    p: ProbabilityAssignment,
    tol: float = NORMALIZATION_TOL,
) -> bool:
    """True iff every p(x) lies in [0, 1] and every operation's total
    mass is within tol of 1.  The range check extends tol past both
    ends, since float solutions land within rounding of the box (a
    single-outcome operation puts p at 1 exactly up to the solver's
    inner tolerance); exact rational inputs are unaffected in practice
    because the closed forms keep them inside the box."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if set(p) != set(diagram.outcomes):
        return False
    for x in diagram.outcomes:
        v = p[x]
        if v < -tol or v > 1 + tol:
            return False
    for op in diagram.operations:
        total = sum(p[x] for x in op)
        if abs(total - 1) > tol:
            return False
    return True
