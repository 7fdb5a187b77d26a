"""Structural decomposition of event structures.

Recognizes the three structures with known direct estimators, in order
of preference: horizontal sums (disconnected pieces are independent
subproblems), products (every operation picks one operation from each
factor; the finest factorization is found, whatever the declaration
order), and chains of three operations (in a path, consecutive ones
sharing a single outcome, the ends none).  Everything else, longer
chains included, becomes a numeric leaf for the general solver.  The
result is a recursive plan tree consumed by the solver dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class Chain:
    """Three operations A_1, A_2, A_3 in a path: A_1 and A_2 share
    exactly the outcome shared[0], A_2 and A_3 exactly shared[1], and A_1
    and A_3 are disjoint.  edges lists the operations in path order and
    interiors[i] holds A_i minus its shared outcomes (the planner keeps
    only chains whose interiors are all nonempty)."""

    diagram: GreechieDiagram
    edges: tuple[Operation, ...]
    shared: tuple[OutcomeId, ...]
    interiors: tuple[tuple[OutcomeId, ...], ...]


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
    """Find the finest product factorization with at least two factors,
    or None.

    A partition of the outcomes separates the operations when they are
    exactly the Cartesian combinations of its traces (an empty trace
    counts as a value).  Outcomes that never share an operation lie in
    one block of any such partition, so the blocks are built from the
    parts of the non-coexistence graph, added one at a time.  Separating
    partitions are closed under meet and projections of a product are
    products, so a block stays apart from the new part exactly when it
    separates from the rest of the outcomes seen so far; the blocks that
    fail that test merge with the new part, and the result is the finest
    separating partition, whatever the declaration order.  A factor must
    meet every operation, so the blocks that some operation misses join
    the one, among the blocks every operation meets, that holds the
    least outcome name; factors are ordered by their earliest outcome.
    """
    parts = _non_coexistence_parts(diagram)
    if len(parts) < 2:
        return None
    idx = diagram.outcome_index
    masks = [sum(1 << idx[x] for x in op) for op in diagram.operations]

    def traces(s: int) -> int:
        return len({m & s for m in masks})

    blocks: list[int] = []
    seen = 0
    for part in parts:
        joined = sum(1 << i for i in part)
        seen |= joined
        total = traces(seen)
        apart = []
        for b in blocks:
            if traces(seen & ~b) * traces(b) == total:
                apart.append(b)
            else:
                joined |= b
        blocks = apart + [joined]

    full = [b for b in blocks if all(m & b for m in masks)]
    if len(full) < 2:
        return None
    if len(full) < len(blocks):
        names = diagram.outcomes
        host = min(full, key=lambda b: min(x for i, x in enumerate(names) if b >> i & 1))
        full.remove(host)
        full.append(sum(b for b in blocks if b not in full))
    return _factor_diagrams(diagram, full)


def _factor_diagrams(diagram: GreechieDiagram, parts: list[int]) -> list[GreechieDiagram]:
    """Build factor sub-diagrams from outcome-index bitmasks, ordered by
    their least index: outcomes in declaration order, one operation per
    distinct trace in first-appearance order."""
    factors = []
    idx = diagram.outcome_index
    for part in sorted(parts, key=lambda b: b & -b):
        outcomes = tuple(x for x in diagram.outcomes if part >> idx[x] & 1)
        seen: set[frozenset[OutcomeId]] = set()
        ops: list[Operation] = []
        for op in diagram.operations:
            tr = tuple(x for x in op if part >> idx[x] & 1)
            key = frozenset(tr)
            if key not in seen:
                seen.add(key)
                ops.append(tr)
        factors.append(GreechieDiagram(outcomes=outcomes, operations=tuple(ops)))
    return factors


def detect_chain(diagram: GreechieDiagram) -> Optional[Chain]:
    """Recognize three operations in a path, or None.

    Requires exactly three operations, two pairs of which meet in
    exactly one outcome each while the third pair is disjoint (so no
    outcome lies in all three).  The path starts at the end operation
    declared first.  Found from each outcome's list of operations, in
    time linear in the incidences.
    """
    if len(diagram.operations) != 3:
        return None
    shared_at: dict[tuple[int, ...], OutcomeId] = {}
    for y, js in diagram.edges_of.items():
        if len(js) > 2 or js in shared_at:
            return None  # y lies in all three, or the pair shares two outcomes
        if len(js) == 2:
            shared_at[js] = y
    if len(shared_at) != 2:
        return None
    first, second = shared_at
    (middle,) = set(first) & set(second)
    (start, y1), (end, y2) = sorted(
        (i, y) for js, y in shared_at.items() for i in js if i != middle
    )
    edges = tuple(diagram.operations[i] for i in (start, middle, end))
    interiors = tuple(tuple(x for x in edge if x not in (y1, y2)) for edge in edges)
    return Chain(diagram=diagram, edges=edges, shared=(y1, y2), interiors=interiors)


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
    chain = detect_chain(diagram)
    if chain is not None and all(chain.interiors):
        return chain
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
            "operations": [list(op) for op in node.edges],
            "shared": list(node.shared),
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
