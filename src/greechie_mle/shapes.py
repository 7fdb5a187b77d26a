"""Reference diagram shapes.

Small named diagrams exercising every structural case the estimators
distinguish: products, horizontal sums, three-operation chains, and the
shapes with no closed form (chains of four and five operations, a comb
whose spine meets three teeth, and a four-cycle of operations).  Tests, demos, and the
shipped CLI fixture files all build from here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .diagram import GreechieDiagram, build_diagram


def tennis() -> GreechieDiagram:
    """Two three-outcome operations sharing one outcome.

    The motivating two-experiment setup: {a, c, e} and {b, d, e} agree
    on e.  A product of {e vs rest} with the two-way refinements, and
    also the smallest chain."""
    return build_diagram(
        ["a", "c", "e", "b", "d"],
        [["a", "c", "e"], ["b", "d", "e"]],
    )


def disjoint_pairs() -> GreechieDiagram:
    """Two disjoint two-outcome operations: the smallest horizontal sum."""
    return build_diagram(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])


def path3() -> GreechieDiagram:
    """Three operations in a path, interiors of sizes 2, 1, 2."""
    return build_diagram(
        ["a1", "a2", "y1", "b", "y2", "c1", "c2"],
        [["a1", "a2", "y1"], ["y1", "b", "y2"], ["y2", "c1", "c2"]],
    )


def path3_wide() -> GreechieDiagram:
    """The path3 shape with wider operations (interiors 3, 2, 3)."""
    return build_diagram(
        ["a1", "a2", "a3", "y1", "b1", "b2", "y2", "c1", "c2", "c3"],
        [
            ["a1", "a2", "a3", "y1"],
            ["y1", "b1", "b2", "y2"],
            ["y2", "c1", "c2", "c3"],
        ],
    )


def path4() -> GreechieDiagram:
    """Four operations in a path: a numeric leaf, whose multipliers give
    its three splitting parameters."""
    return build_diagram(
        ["a1", "a2", "y1", "b", "y2", "c", "y3", "d1", "d2"],
        [
            ["a1", "a2", "y1"],
            ["y1", "b", "y2"],
            ["y2", "c", "y3"],
            ["y3", "d1", "d2"],
        ],
    )


def path5() -> GreechieDiagram:
    """Five operations in a path: a numeric leaf, like path4."""
    return build_diagram(
        ["a1", "a2", "y1", "b", "y2", "c", "y3", "d", "y4", "e1", "e2"],
        [
            ["a1", "a2", "y1"],
            ["y1", "b", "y2"],
            ["y2", "c", "y3"],
            ["y3", "d", "y4"],
            ["y4", "e1", "e2"],
        ],
    )


def comb() -> GreechieDiagram:
    """A spine operation meeting three disjoint teeth.

    The operation-intersection graph is a star, not a path, so no chain
    or product applies; the numeric solver handles it.  Acyclic, so both
    cycle conditions hold vacuously."""
    return build_diagram(
        ["t1", "t2", "t3", "u1", "v1", "u2", "v2", "u3", "v3"],
        [
            ["t1", "t2", "t3"],
            ["t1", "u1", "v1"],
            ["t2", "u2", "v2"],
            ["t3", "u3", "v3"],
        ],
    )


def four_cycle() -> GreechieDiagram:
    """Four operations closed into a cycle of length four.

    Passes the length-4 cycle bound (orthomodular poset reading) and
    fails the length-5 bound (lattice reading); no closed form."""
    return build_diagram(
        ["k1", "m1", "k2", "m2", "k3", "m3", "k4", "m4"],
        [
            ["k1", "m1", "k2"],
            ["k2", "m2", "k3"],
            ["k3", "m3", "k4"],
            ["k4", "m4", "k1"],
        ],
    )


def triangle() -> GreechieDiagram:
    """Three operations pairwise sharing one outcome: a length-3 cycle,
    the canonical violation of the cycle conditions."""
    return build_diagram(
        ["a", "x", "b", "y", "c", "z"],
        [["a", "x", "b"], ["b", "y", "c"], ["c", "z", "a"]],
    )


def g1_violation() -> GreechieDiagram:
    """{a, b} and {a, c}: the second operation adds only one new outcome,
    violating the two-new-outcomes rule."""
    return build_diagram(["a", "b", "c"], [["a", "b"], ["a", "c"]])


def thin_path3() -> GreechieDiagram:
    """A three-operation path whose end operations are bare pairs.

    Violates the two-new-outcomes rule (each end differs from the middle
    by one outcome only), but remains a well-formed hypergraph; used to
    exercise validation and the solvers on degenerate shapes."""
    return build_diagram(
        ["a", "y1", "b", "y2", "c"],
        [["a", "y1"], ["y1", "b", "y2"], ["y2", "c"]],
    )


def chain_path(interior_sizes: Sequence[int]) -> GreechieDiagram:
    """A path of len(interior_sizes) operations with the given interior
    sizes; consecutive operations share one fresh outcome each."""
    if len(interior_sizes) < 2:
        raise ValueError("a chain needs at least two operations")
    outcomes: list[str] = []
    operations: list[list[str]] = []
    prev_shared: Optional[str] = None
    for j, size in enumerate(interior_sizes):
        if size < 0:
            raise ValueError("interior sizes must be nonnegative")
        op: list[str] = []
        if prev_shared is not None:
            op.append(prev_shared)
        for i in range(size):
            name = f"b{j}_{i}"
            outcomes.append(name)
            op.append(name)
        if j < len(interior_sizes) - 1:
            shared = f"y{j}"
            outcomes.append(shared)
            op.append(shared)
            prev_shared = shared
        operations.append(op)
    return build_diagram(outcomes, operations)


def closed_form_shapes() -> dict[str, GreechieDiagram]:
    """The shapes with a closed-form plan, on which every solver route
    must agree: products, sums and three-operation chains.  Longer
    chains are numeric-only and are not among them."""
    return {
        "tennis": tennis(),
        "disjoint_pairs": disjoint_pairs(),
        "path3": path3(),
        "path3_wide": path3_wide(),
    }


def all_shapes() -> dict[str, GreechieDiagram]:
    """Every reference shape the acceptance suite sweeps: the closed-form
    ones, then the numeric-only ones."""
    return {
        **closed_form_shapes(),
        "path4": path4(),
        "path5": path5(),
        "comb": comb(),
        "four_cycle": four_cycle(),
    }
