"""Structural decomposition of event structures.

Recognizes the three structures with known direct estimators, in order
of preference: horizontal sums (disconnected pieces are independent
subproblems), products (every operation picks one operation from each
factor), and chains of three operations (in a path, consecutive ones
sharing a single outcome).  Everything else, longer chains included,
becomes a numeric leaf for the general solver.  The result is a
recursive plan tree consumed by the solver dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Union

from .diagram import GreechieDiagram, Operation, OutcomeId


@dataclass(frozen=True)
class ClassicalLeaf:
    """A single operation: the multinomial case."""

    diagram: GreechieDiagram


@dataclass(frozen=True)
class NumericLeaf:
    """No recognized structure; handled by the general concave solver."""

    diagram: GreechieDiagram


@dataclass(frozen=True)
class ChainDescriptor:
    """Operations A_1..A_m in a path; A_i and A_{i+1} share exactly the
    outcome y_i, non-consecutive operations are disjoint, and the y_i
    are pairwise distinct.  interiors[i] holds A_i minus its shared
    outcomes (may be empty for degenerate diagrams)."""

    edges: tuple[Operation, ...]
    shared: tuple[OutcomeId, ...]
    interiors: tuple[tuple[OutcomeId, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Chain:
    diagram: GreechieDiagram
    descriptor: ChainDescriptor


@dataclass(frozen=True)
class HorizontalSum:
    diagram: GreechieDiagram
    children: tuple["DecompositionTree", ...]


@dataclass(frozen=True)
class Product:
    diagram: GreechieDiagram
    factors: tuple["DecompositionTree", ...]


DecompositionTree = Union[ClassicalLeaf, NumericLeaf, Chain, HorizontalSum, Product]


def connected_components(diagram: GreechieDiagram) -> list[GreechieDiagram]:
    """Split along the relation "x and y share an operation".

    Every operation lies entirely inside one component, so each
    component is returned with its induced operation list.  Components
    are ordered by their earliest outcome; outcome and operation order
    inside each component follows the parent declaration order.  A
    connected diagram is returned as the one component.
    """
    labels: dict[OutcomeId, int] = {}
    next_label = 0
    for x in diagram.outcomes:
        if x in labels:
            continue
        labels[x] = next_label
        stack = [x]
        while stack:
            y = stack.pop()
            for j in diagram.edges_of[y]:
                for z in diagram.operations[j]:
                    if z not in labels:
                        labels[z] = next_label
                        stack.append(z)
        next_label += 1
    if next_label == 1:
        return [diagram]

    outcomes: list[list[OutcomeId]] = [[] for _ in range(next_label)]
    for x in diagram.outcomes:
        outcomes[labels[x]].append(x)
    ops: list[list[Operation]] = [[] for _ in range(next_label)]
    for op in diagram.operations:
        ops[labels[op[0]]].append(op)
    return [
        GreechieDiagram(outcomes=tuple(xs), operations=tuple(os))
        for xs, os in zip(outcomes, ops)
    ]


def _coexistence(diagram: GreechieDiagram) -> list[set[int]]:
    """coex[i] = indices of outcomes sharing at least one operation with i."""
    idx = diagram.outcome_index
    coex: list[set[int]] = [set() for _ in diagram.outcomes]
    for op in diagram.operations:
        ids = [idx[x] for x in op]
        for a in ids:
            coex[a].update(ids)
    return coex


def _non_coexistence_parts(diagram: GreechieDiagram) -> list[list[int]]:
    """Connected components of the graph joining outcomes that never
    appear together in any operation.

    The graph is the complement of the coexistence graph, so each step
    splits the outcomes not yet reached into those coexisting with the
    current one (kept for later) and the rest (reached now), for
    O(n + sum of |coex|) work in all."""
    n = len(diagram.outcomes)
    coex = _coexistence(diagram)
    unreached = set(range(n))
    parts: list[list[int]] = []
    for start in range(n):
        if start not in unreached:
            continue
        unreached.discard(start)
        bucket = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            found = unreached - coex[u]
            unreached &= coex[u]
            bucket.extend(found)
            stack.extend(found)
        parts.append(sorted(bucket))
    return parts


def factor_product(diagram: GreechieDiagram) -> Optional[list[GreechieDiagram]]:
    """Find a product factorization with at least two factors, or None.

    Outcomes from different factors always coexist in some operation, so
    parts of the non-coexistence graph refine any true factor partition.
    Starting from those parts, the partition is accepted once every
    operation meets every part and the operations are exactly the
    Cartesian combinations of the per-part traces.  On failure, the
    smallest set of parts witnessing a missing trace combination must
    lie inside a single true factor, so those parts are merged and the
    check repeats; when one part remains there is no factorization.
    """
    n_edges = len(diagram.operations)
    if n_edges == 0:
        return None
    idx = diagram.outcome_index
    edge_members: list[set[int]] = [set(idx[x] for x in op) for op in diagram.operations]

    parts = [frozenset(p) for p in _non_coexistence_parts(diagram)]

    while len(parts) > 1:
        # Trace of each operation on each part, as index frozensets.
        traces = [
            [frozenset(edge & part) for part in parts] for edge in edge_members
        ]
        empty = next(
            (
                (ei, pi)
                for ei, row in enumerate(traces)
                for pi, tr in enumerate(row)
                if not tr
            ),
            None,
        )
        if empty is not None:
            # The part misses this operation entirely, so it cannot stand
            # alone; fold it into the part owning the operation's first
            # member (a deterministic choice, re-verified below).
            ei, pi = empty
            first = min(edge_members[ei])
            other = next(k for k, part in enumerate(parts) if first in part)
            parts = _merge_parts(parts, {pi, other})
            continue

        distinct = [set(row[pi] for row in traces) for pi in range(len(parts))]
        if prod(len(d) for d in distinct) == n_edges:
            # The trace tuple determines the operation (parts partition the
            # outcomes), so matching counts make the map a bijection.
            return _factor_diagrams(diagram, parts)

        support = _missing_combination_support(traces, distinct)
        if support is None:
            return None
        parts = _merge_parts(parts, support)

    return None


def _merge_parts(
    parts: list[frozenset[int]], which: set[int]
) -> list[frozenset[int]]:
    merged = frozenset().union(*(parts[k] for k in which))
    out = [p for k, p in enumerate(parts) if k not in which]
    out.append(merged)
    out.sort(key=min)
    return out


def _missing_combination_support(
    traces: list[list[frozenset[int]]], distinct: list[set[frozenset[int]]]
) -> Optional[set[int]]:
    """Smallest set of parts whose joint traces miss a combination.

    Checked by subset size: for parts S, the operations realize at most
    prod_{s in S} |E_s| distinct |S|-tuples; fewer means some
    combination never occurs.  Minimality of S makes merging it safe:
    a missing combination over parts of two independent factors would
    contradict the realizability of its sub-combinations.
    """
    from itertools import combinations

    k_parts = len(distinct)
    for size in range(2, k_parts + 1):
        for subset in combinations(range(k_parts), size):
            expected = prod(len(distinct[pi]) for pi in subset)
            realized = {tuple(row[pi] for pi in subset) for row in traces}
            if len(realized) < expected:
                return set(subset)
    return None


def _factor_diagrams(
    diagram: GreechieDiagram, parts: list[frozenset[int]]
) -> list[GreechieDiagram]:
    """Build factor sub-diagrams: outcomes in declaration order, one
    operation per distinct trace in first-appearance order."""
    factors = []
    order = sorted(parts, key=min)
    for part in order:
        outcomes = tuple(x for x in diagram.outcomes if diagram.outcome_index[x] in part)
        seen: set[frozenset[OutcomeId]] = set()
        ops: list[Operation] = []
        for op in diagram.operations:
            tr = tuple(x for x in op if diagram.outcome_index[x] in part)
            key = frozenset(tr)
            if key not in seen:
                seen.add(key)
                ops.append(tr)
        factors.append(GreechieDiagram(outcomes=outcomes, operations=tuple(ops)))
    return factors


def detect_chain(diagram: GreechieDiagram) -> Optional[ChainDescriptor]:
    """Recognize a path of operations, or None.

    Requirements: the operation-intersection graph is a simple path,
    and consecutive operations share exactly one outcome.  Any pair
    sharing two or more outcomes disqualifies the diagram, and so does
    an outcome in three operations (they would form a triangle), so each
    shared outcome joins exactly one consecutive pair and the descriptor
    invariants follow.  The graph is built from each outcome's list of
    operations, in time linear in the incidences.
    """
    m = len(diagram.operations)
    if m < 2:
        return None
    adj: list[list[int]] = [[] for _ in range(m)]
    shared_at: dict[tuple[int, int], OutcomeId] = {}
    for y, js in diagram.edges_of.items():
        if len(js) > 2:
            return None  # three operations through y: a triangle, not a path
        if len(js) == 2:
            if js in shared_at:
                return None  # the pair shares two outcomes
            i, j = js
            adj[i].append(j)
            adj[j].append(i)
            shared_at[js] = y

    degrees = [len(a) for a in adj]
    if any(d > 2 for d in degrees) or degrees.count(1) != 2:
        return None
    if sum(degrees) != 2 * (m - 1):
        return None

    start = min(i for i in range(m) if degrees[i] == 1)
    order = [start]
    prev = -1
    while len(order) < m:
        nxt = [j for j in adj[order[-1]] if j != prev]
        if len(nxt) != 1:
            return None  # disconnected: several path pieces
        prev = order[-1]
        order.append(nxt[0])

    shared = tuple(
        shared_at[(min(a, b), max(a, b))] for a, b in zip(order, order[1:])
    )
    shared_set = set(shared)
    edges = tuple(diagram.operations[i] for i in order)
    interiors = tuple(
        tuple(x for x in edge if x not in shared_set) for edge in edges
    )
    return ChainDescriptor(edges=edges, shared=shared, interiors=interiors)


def build_plan(diagram: GreechieDiagram) -> DecompositionTree:
    """Recursive classification driving solver dispatch.

    Components first, then single-edge leaves, then products (preferred
    over chains: they admit exact rational solutions), then chains of
    exactly three operations with a nonempty interior in each, which the
    quadratic solves, and a numeric leaf otherwise.  Longer chains have
    no closed form here and go to the general solver; so do chains with
    an empty interior block, whose splitting-parameter denominators can
    vanish at the optimum.
    """
    components = connected_components(diagram)
    if len(components) > 1:
        return HorizontalSum(
            diagram=diagram, children=tuple(build_plan(c) for c in components)
        )
    if len(diagram.operations) == 1:
        return ClassicalLeaf(diagram)
    factors = factor_product(diagram)
    if factors is not None:
        return Product(diagram=diagram, factors=tuple(build_plan(f) for f in factors))
    if len(diagram.operations) == 3:
        chain = detect_chain(diagram)
        if chain is not None and all(chain.interiors):
            return Chain(diagram=diagram, descriptor=chain)
    return NumericLeaf(diagram)


def plan_summary(node: DecompositionTree) -> dict:
    """JSON-ready description of a plan tree."""
    if isinstance(node, ClassicalLeaf):
        return {"kind": "classical", "outcomes": list(node.diagram.outcomes)}
    if isinstance(node, NumericLeaf):
        return {
            "kind": "numeric",
            "outcomes": list(node.diagram.outcomes),
            "operations": [list(op) for op in node.diagram.operations],
        }
    if isinstance(node, Chain):
        return {
            "kind": "chain",
            "operations": [list(op) for op in node.descriptor.edges],
            "shared": list(node.descriptor.shared),
        }
    if isinstance(node, HorizontalSum):
        return {
            "kind": "horizontal_sum",
            "children": [plan_summary(c) for c in node.children],
        }
    assert isinstance(node, Product)
    return {"kind": "product", "factors": [plan_summary(f) for f in node.factors]}


def plan_leaves(node: DecompositionTree) -> Iterator[DecompositionTree]:
    """The classical, chain and numeric leaves of a plan tree, in order."""
    if isinstance(node, HorizontalSum):
        for child in node.children:
            yield from plan_leaves(child)
    elif isinstance(node, Product):
        for factor in node.factors:
            yield from plan_leaves(factor)
    else:
        yield node


def plan_verdict(node: DecompositionTree) -> str:
    """constructible | chain-solvable | numeric-only.

    Constructible means the tree bottoms out in classical leaves under
    sums and products only; a three-operation chain (the quadratic)
    anywhere downgrades to chain-solvable, and any numeric leaf, chains
    of four or more operations included, to numeric-only.
    """
    kinds = {type(leaf) for leaf in plan_leaves(node)}
    if NumericLeaf in kinds:
        return "numeric-only"
    if Chain in kinds:
        return "chain-solvable"
    return "constructible"
