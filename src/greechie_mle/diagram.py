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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    DiagramError,
    DuplicateEdge,
    DuplicateOutcome,
    EmptyEdge,
    InfeasibleReduction,
    IntersectionTooLarge,
    UncoveredOutcome,
    UnknownMember,
    operation_text,
)

OutcomeId = str
Operation = tuple[OutcomeId, ...]
FrequencyTable = Mapping[OutcomeId, int]
ProbabilityAssignment = Mapping[OutcomeId, Union[Fraction, float]]

# The one feasibility bound: the largest worst_gap that an estimate, on
# any route, or check_probability accepts.
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

    Rejects duplicate outcomes, unknown or duplicate members (a member
    that is not a string is unknown), duplicate edges (same member set
    regardless of order), empty edges, and outcomes not covered by any
    edge.
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
    edge_sets: set[frozenset[OutcomeId]] = set()
    for j, raw in enumerate(operation_list):
        op = tuple(raw)
        if not op:
            raise EmptyEdge(j)
        members: set[OutcomeId] = set()
        for x in op:
            if not isinstance(x, str) or x not in seen:
                raise UnknownMember(x, j)
            if x in members:
                raise DuplicateOutcome(x, where=f"operation #{j}")
            members.add(x)
        fs = frozenset(op)
        if fs in edge_sets:
            raise DuplicateEdge(op)
        edge_sets.add(fs)
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
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def check_g1(diagram: GreechieDiagram) -> ValidationReport:
    """Separation condition: every ordered pair of distinct operations
    (B1, B2) must satisfy card(B1 minus B2) >= 2.

    B2 disjoint from B1 leaves B1 whole, so only a B1 of fewer than two
    outcomes is checked against every operation; any other B1 only
    against the operations it shares an outcome with."""
    violations: list[Violation] = []
    sets = diagram.edge_sets
    for i, a in enumerate(sets):
        others = range(len(sets)) if len(a) < 2 else sorted(_shared_counts(diagram, i))
        for j in others:
            if i == j:
                continue
            diff = a - sets[j]
            if len(diff) < 2:
                violations.append(
                    Violation(
                        rule="G1",
                        witness=(diagram.operations[i], diagram.operations[j]),
                        message=(
                            f"operation {operation_text(diagram.operations[i])} minus "
                            f"{operation_text(diagram.operations[j])} "
                            f"leaves only {sorted(diff)!r}"
                        ),
                    )
                )
    return ValidationReport(tuple(violations))


def _shared_counts(diagram: GreechieDiagram, i: int) -> dict[int, int]:
    """Every other operation sharing an outcome with operation i, mapped
    to the number of outcomes they share."""
    counts: dict[int, int] = {}
    for x in diagram.operations[i]:
        for j in diagram.edges_of[x]:
            if j != i:
                counts[j] = counts.get(j, 0) + 1
    return counts


def _check_pairwise_intersections(diagram: GreechieDiagram) -> None:
    """Raise IntersectionTooLarge on the first pair (in index order) of
    operations sharing more than one outcome."""
    for i, op in enumerate(diagram.operations):
        later = [j for j, c in _shared_counts(diagram, i).items() if j > i and c > 1]
        if later:
            raise IntersectionTooLarge(op, diagram.operations[min(later)])


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

    Every cycle lies in the 2-core of the incidence graph, what is left
    after repeatedly removing nodes of degree at most one, so chains and
    trees return after a linear peel.  Inside a core component that has
    a branch node (core degree >= 3) every cycle passes through one,
    because a cycle made only of degree-2 nodes is a whole component.
    Breadth-first searches therefore start only at branch nodes and at
    one node of each core component that is a simple cycle, and each
    stops at depth best/2 once a cycle of length best is known.

    Returns (length, witness) where the witness alternates outcome ids
    and operation indices around *one* shortest cycle, starting at an
    outcome.  Which shortest cycle is named is deterministic but not
    otherwise specified.
    """
    _check_pairwise_intersections(diagram)

    n = len(diagram.outcomes)
    size = n + len(diagram.operations)
    # Bipartite incidence graph: nodes 0..n-1 outcomes, n..n+m-1 operations.
    adj: list[list[int]] = [[] for _ in range(size)]
    for j, op in enumerate(diagram.operations):
        for x in op:
            i = diagram.outcome_index[x]
            adj[i].append(n + j)
            adj[n + j].append(i)

    # Peel to the 2-core; degree[u] ends as the core degree of core nodes.
    degree = [len(a) for a in adj]
    in_core = [d > 1 for d in degree]
    stack = [u for u in range(size) if not in_core[u]]
    while stack:
        for v in adj[stack.pop()]:
            if in_core[v]:
                degree[v] -= 1
                if degree[v] < 2:
                    in_core[v] = False
                    stack.append(v)
    core_adj = [
        [v for v in adj[u] if in_core[v]] if in_core[u] else [] for u in range(size)
    ]

    roots = [u for u in range(size) if in_core[u] and degree[u] > 2]
    reached = [not c for c in in_core]
    _flood(core_adj, roots, reached)
    for u in range(size):
        if not reached[u]:  # a core component without branch nodes: a simple cycle
            roots.append(u)
            _flood(core_adj, [u], reached)

    best_len: Optional[int] = None
    best_cycle: Optional[list[int]] = None
    dist = [-1] * size
    parent = [-1] * size
    for root in roots:
        dist[root] = 0
        queue = [root]  # also the nodes to reset after this search
        for u in queue:
            if best_len is not None and 2 * dist[u] >= best_len:
                break
            for v in core_adj[u]:
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
        for u in queue:
            dist[u] = parent[u] = -1
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


def _flood(adj: list[list[int]], starts: list[int], reached: list[bool]) -> None:
    """Mark every node reachable from starts in reached."""
    stack = [u for u in starts if not reached[u]]
    for u in stack:
        reached[u] = True
    while stack:
        for v in adj[stack.pop()]:
            if not reached[v]:
                reached[v] = True
                stack.append(v)


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


def _g2_report(
    diagram: GreechieDiagram,
    target: str,
    length: Optional[int],
    witness: Optional[tuple],
) -> ValidationReport:
    required = 4 if target == "omp" else 5
    if length is None or length >= required:
        return ValidationReport()
    pretty = " - ".join(
        tok if isinstance(tok, str) else operation_text(diagram.operations[tok])
        for tok in witness or ()
    )
    violation = Violation(
        rule=f"G2-{target.upper()}",
        witness=(length, witness),
        message=f"cycle of length {length} < {required}: {pretty}",
    )
    return ValidationReport((violation,))


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
        length, witness = minimum_cycle_length(diagram)
    except IntersectionTooLarge as exc:
        violations.append(
            Violation("INTERSECTION", (exc.edge_a, exc.edge_b), str(exc))
        )
    else:
        for target in ("omp", "oml"):
            violations.extend(_g2_report(diagram, target, length, witness).violations)
    return ValidationReport(tuple(violations))


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
    """Outcome of zero-count removal: the diagram and counts to solve,
    and the zero-count outcomes removed from them, which take
    probability zero.  ``zeroed`` is empty when nothing was removed,
    either because no count is zero or because no certificate proves
    the removal optimal; ``freq`` then still holds any zero counts."""

    diagram: GreechieDiagram
    freq: dict[OutcomeId, int]
    zeroed: frozenset[OutcomeId]


def reduce_zero_counts(diagram: GreechieDiagram, freq: FrequencyTable) -> Reduction:
    """Remove the zero-count outcomes from the vertex set and from every
    operation, where a certificate proves that optimal; otherwise return
    the diagram and counts unchanged.

    The certificate: every operation holding a zero-count outcome also
    holds an observed outcome y found in no other operation.  At the
    reduced maximizer sigma(y) = lambda_B = n(y) / p(y) > 0 for that
    operation B, so every removed outcome x has a positive multiplier
    sum sigma(x) = sum_{B containing x} lambda_B, and p(x) = 0 meets its
    KKT conditions in the original problem.  Under the certificate no
    operation empties or becomes a copy of another, since each keeps an
    outcome of its own.  Raises InfeasibleReduction, naming them, when
    some operations have no observed outcome (all of them when every
    count is zero): their unit sums would rest on unobserved outcomes
    alone.  The reduced diagram may violate the separation condition;
    that is acceptable, the solvers do not rely on it.  Idempotent.
    """
    check_frequencies(diagram, freq)
    zeroed = frozenset(x for x in diagram.outcomes if freq[x] == 0)
    unchanged = Reduction(
        diagram, {x: int(freq[x]) for x in diagram.outcomes}, frozenset()
    )
    if not zeroed:
        return unchanged
    unobserved = [op for op in diagram.operations if zeroed.issuperset(op)]
    if unobserved:
        raise InfeasibleReduction(unobserved)
    # Every operation losing an outcome must keep an observed one of its own.
    if not all(
        any(freq[y] > 0 and len(diagram.edges_of[y]) == 1 for y in op)
        for op in diagram.operations
        if not zeroed.isdisjoint(op)
    ):
        return unchanged
    reduced = GreechieDiagram(
        outcomes=tuple(x for x in diagram.outcomes if x not in zeroed),
        operations=tuple(
            tuple(x for x in op if x not in zeroed) for op in diagram.operations
        ),
    )
    return Reduction(reduced, {x: int(freq[x]) for x in reduced.outcomes}, zeroed)


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


def check_probability(diagram: GreechieDiagram, p: ProbabilityAssignment) -> bool:
    """True iff every p(x) lies in [0, 1] and every operation's total
    mass is within NORMALIZATION_TOL of 1, that is, iff worst_gap is at
    most NORMALIZATION_TOL (a NaN anywhere fails).  The range check
    extends the bound past both ends, since float solutions land within
    rounding of the box (a single-outcome operation puts p at 1 exactly
    up to the solver's inner tolerance); exact rational inputs are
    unaffected in practice because the closed forms keep them inside
    the box."""
    if set(p) != set(diagram.outcomes):
        return False
    return worst_gap(diagram, p) <= NORMALIZATION_TOL


def worst_gap(diagram: GreechieDiagram, p: ProbabilityAssignment) -> float:
    """Largest distance of an operation sum from 1, or of a probability
    from [0, 1]; NaN when some probability is NaN."""
    values = [float(v) for v in p.values()]
    if math.isnan(sum(values)):  # max() would skip a NaN
        return math.nan
    gaps = [abs(float(sum(p[x] for x in op)) - 1.0) for op in diagram.operations]
    return max(gaps + [-min(values, default=0.0), max(values, default=0.0) - 1.0, 0.0])
