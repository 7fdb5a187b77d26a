"""Plan construction: components, product factoring, chain detection."""

import itertools
import random

import numpy as np
import pytest

from greechie_mle import (
    Chain,
    ClassicalLeaf,
    GreechieDiagram,
    HorizontalSum,
    NumericLeaf,
    Product,
    build_diagram,
    build_plan,
    connected_components,
    detect_chain,
    factor_product,
    plan_summary,
    plan_verdict,
    shapes,
)
from greechie_mle.decompose import _non_coexistence_parts
from tests.conftest import LINEAR_KINDS, random_diagram, random_linear_diagram


def rescan_components(d):
    """connected_components with one scan of every outcome and operation
    per component: the reference for the one-pass grouping."""
    labels = {}
    count = 0
    for x in d.outcomes:
        if x in labels:
            continue
        labels[x] = count
        stack = [x]
        while stack:
            for j in d.edges_of[stack.pop()]:
                for z in d.operations[j]:
                    if z not in labels:
                        labels[z] = count
                        stack.append(z)
        count += 1
    components = []
    for lab in range(count):
        outcomes = tuple(x for x in d.outcomes if labels[x] == lab)
        ops = tuple(op for op in d.operations if labels[op[0]] == lab)
        components.append(GreechieDiagram(outcomes=outcomes, operations=ops))
    return components


def all_pairs_chain(d):
    """detect_chain by trying every order of the three operations, with
    the intersections taken pair by pair: the reference."""
    if len(d.operations) != 3:
        return None
    sets = d.edge_sets
    for a, b, c in itertools.permutations(range(3)):
        if a > c or sets[a] & sets[c]:
            continue
        left, right = sets[a] & sets[b], sets[b] & sets[c]
        if len(left) == len(right) == 1:
            shared = (*left, *right)
            edges = tuple(d.operations[i] for i in (a, b, c))
            interiors = tuple(tuple(x for x in e if x not in shared) for e in edges)
            return Chain(diagram=d, edges=edges, shared=shared, interiors=interiors)
    return None


def all_pairs_non_coexistence_parts(d):
    """Components of the non-coexistence graph from every outcome pair."""
    n = len(d.outcomes)
    label = list(range(n))
    together = {
        frozenset(d.outcome_index[x] for x in pair)
        for op in d.operations
        for pair in itertools.combinations(op, 2)
    }

    def find(a):
        while label[a] != a:
            a = label[a]
        return a

    for a, b in itertools.combinations(range(n), 2):
        if frozenset((a, b)) not in together:
            label[find(b)] = find(a)
    parts = {}
    for a in range(n):
        parts.setdefault(find(a), []).append(a)
    return sorted(parts.values())


def parity_diagram():
    """Four operations over six outcomes whose traces realize only half
    of the trace combinations; the smallest diagram with no product
    factorization, no chain, and no disconnection."""
    return build_diagram(
        ["a", "b", "x", "y", "u", "v"],
        [["a", "x", "u"], ["a", "y", "v"], ["b", "x", "v"], ["b", "y", "u"]],
    )


class TestComponents:
    def test_connected_diagram_is_single(self):
        comps = connected_components(shapes.path3())
        assert len(comps) == 1
        assert comps[0].outcomes == shapes.path3().outcomes

    def test_split_preserves_declaration_order(self):
        d = build_diagram(
            ["a", "p", "b", "q", "c"],
            [["a", "b"], ["p", "q"], ["b", "c"]],
        )
        comps = connected_components(d)
        assert [c.outcomes for c in comps] == [("a", "b", "c"), ("p", "q")]
        assert comps[0].operations == (("a", "b"), ("b", "c"))
        assert comps[1].operations == (("p", "q"),)


    def test_many_components_match_rescan(self):
        rng = random.Random("components")
        pieces = [shapes.disjoint_pairs() for _ in range(3)]
        pieces += [random_linear_diagram(rng, "disconnected") for _ in range(40)]
        outcomes = []
        operations = []
        for k, piece in enumerate(pieces):
            outcomes += [f"{k}.{x}" for x in piece.outcomes]
            operations += [[f"{k}.{x}" for x in op] for op in piece.operations]
        rng.shuffle(outcomes)
        rng.shuffle(operations)
        d = build_diagram(outcomes, operations)
        reference = rescan_components(d)
        assert len(reference) > 100
        assert connected_components(d) == reference


class TestAgainstQuadraticReferences:
    """Planner steps built from the outcomes' operation lists give the
    answers of the all-pairs algorithms they replaced."""

    def cases(self, seed):
        rng = random.Random(seed)
        for kind in LINEAR_KINDS:
            for _ in range(100):
                yield random_linear_diagram(rng, kind)
        for _ in range(300):
            yield random_diagram(rng)
        yield from shapes.all_shapes().values()

    def test_detect_chain(self):
        # Three-operation draws from both generators, for enough chains.
        rng = random.Random("three operations")
        extra = []
        while len(extra) < 300:
            if rng.random() < 0.5:
                d = random_linear_diagram(rng, "path")
            else:
                d = random_diagram(rng)
            if len(d.operations) == 3:
                extra.append(d)
        chains = 0
        for d in itertools.chain(self.cases("chains"), extra):
            found = detect_chain(d)
            assert found == all_pairs_chain(d), d
            if len(d.operations) != 3:
                assert found is None, d
            chains += found is not None
        assert chains > 100

    def test_non_coexistence_parts(self):
        split = 0
        for d in self.cases("parts"):
            parts = _non_coexistence_parts(d)
            assert parts == all_pairs_non_coexistence_parts(d), d
            split += len(parts) > 1
        assert split > 50


class TestFactorProduct:
    def test_tennis_splits_off_shared_outcome(self):
        factors = factor_product(shapes.tennis())
        assert factors is not None
        assert [f.outcomes for f in factors] == [("a", "c", "b", "d"), ("e",)]
        assert factors[0].operations == (("a", "c"), ("b", "d"))
        assert factors[1].operations == (("e",),)

    def test_two_shared_outcomes(self):
        d = build_diagram(
            ["x1", "x2", "z1", "z2", "y1", "y2"],
            [["x1", "x2", "z1", "z2"], ["y1", "y2", "z1", "z2"]],
        )
        factors = factor_product(d)
        assert factors is not None
        assert [set(f.outcomes) for f in factors] == [
            {"x1", "x2", "y1", "y2"},
            {"z1"},
            {"z2"},
        ]

    def test_parity_diagram_is_prime(self):
        # Initial parts {a,b}, {x,y}, {u,v}: all pairwise trace
        # combinations are realized, only the triple check fails, so the
        # merge has to escalate past pairs before giving up.
        assert factor_product(parity_diagram()) is None

    def test_empty_trace_forces_merges(self):
        d = build_diagram(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])
        assert factor_product(d) is None

    def test_cycles_are_prime(self):
        assert factor_product(shapes.four_cycle()) is None
        assert factor_product(shapes.triangle()) is None

    def test_paths_are_prime(self):
        assert factor_product(shapes.path3()) is None
        assert factor_product(shapes.comb()) is None


class TestDetectChain:
    def test_path3_descriptor(self):
        d = shapes.path3()
        chain = detect_chain(d)
        assert chain is not None
        assert chain.diagram == d
        assert chain.edges == d.operations
        assert chain.shared == ("y1", "y2")
        assert chain.interiors == (("a1", "a2"), ("b",), ("c1", "c2"))
        # Declared middle first: the path starts at the end declared first.
        d = build_diagram(
            ["a", "y1", "b", "y2", "c"], [["y1", "b", "y2"], ["c", "y2"], ["a", "y1"]]
        )
        chain = detect_chain(d)
        assert chain.edges == (("c", "y2"), ("y1", "b", "y2"), ("a", "y1"))
        assert chain.shared == ("y2", "y1")

    def test_two_operation_chain(self):
        # Two operations sharing one outcome factor as a product.
        assert detect_chain(shapes.tennis()) is None

    def test_rejects_branching_and_cycles(self):
        assert detect_chain(shapes.comb()) is None
        assert detect_chain(shapes.four_cycle()) is None
        assert detect_chain(shapes.triangle()) is None
        star = build_diagram(["a", "y", "b", "c"], [["a", "y"], ["y", "b"], ["y", "c"]])
        assert detect_chain(star) is None

    def test_rejects_single_operation(self):
        assert detect_chain(build_diagram(["a", "b"], [["a", "b"]])) is None

    def test_rejects_disconnected_path_pieces(self):
        d = build_diagram(
            ["a", "y", "b", "p", "q"],
            [["a", "y"], ["y", "b"], ["p", "q"]],
        )
        assert detect_chain(d) is None

    def test_rejects_large_intersection(self):
        d = build_diagram(
            ["a", "b", "s", "t", "c", "d"],
            [["a", "s", "t"], ["s", "t", "b", "c"], ["c", "d"]],
        )
        assert detect_chain(d) is None

    def test_empty_interior_is_reported(self):
        chain = detect_chain(shapes.thin_path3())
        assert chain is not None
        assert chain.interiors == (("a",), ("b",), ("c",))
        d = build_diagram(
            ["a", "y1", "y2", "b"], [["a", "y1"], ["y1", "y2"], ["y2", "b"]]
        )
        chain = detect_chain(d)
        assert chain is not None
        assert chain.interiors[1] == ()


class TestBuildPlan:
    def test_single_edge(self):
        plan = build_plan(build_diagram(["a", "b"], [["a", "b"]]))
        assert isinstance(plan, ClassicalLeaf)

    def test_disjoint_pairs(self):
        plan = build_plan(shapes.disjoint_pairs())
        assert isinstance(plan, HorizontalSum)
        assert all(isinstance(c, ClassicalLeaf) for c in plan.children)

    def test_tennis_prefers_product_over_chain(self):
        plan = build_plan(shapes.tennis())
        assert isinstance(plan, Product)

    def test_paths_become_chains(self):
        # Only three operations make a chain; longer paths have no closed
        # form and go to the general solver.
        for make in (shapes.path3, shapes.path3_wide):
            assert isinstance(build_plan(make()), Chain)
        for make in (shapes.path4, shapes.path5):
            assert isinstance(build_plan(make()), NumericLeaf)

    def test_numeric_fallbacks(self):
        for make in (shapes.comb, shapes.four_cycle, shapes.triangle, parity_diagram):
            assert isinstance(build_plan(make()), NumericLeaf)

    def test_empty_interior_chain_goes_numeric(self):
        # A vanished interior can zero a splitting denominator at the
        # optimum; the general solver has no such blind spot.
        d = build_diagram(
            ["a", "y1", "y2", "b"], [["a", "y1"], ["y1", "y2"], ["y2", "b"]]
        )
        assert isinstance(build_plan(d), NumericLeaf)

    def test_product_of_chain_and_coin(self):
        base = shapes.path3()
        ops = [list(op) + ["h", "t"] for op in base.operations]
        d = build_diagram(list(base.outcomes) + ["h", "t"], ops)
        plan = build_plan(d)
        assert isinstance(plan, Product)
        kinds = {type(f).__name__ for f in plan.factors}
        assert "Chain" in kinds
        assert plan_verdict(plan) == "chain-solvable"


class TestSummaries:
    def test_verdicts(self):
        assert plan_verdict(build_plan(shapes.disjoint_pairs())) == "constructible"
        assert plan_verdict(build_plan(shapes.tennis())) == "constructible"
        assert plan_verdict(build_plan(shapes.path3())) == "chain-solvable"
        assert plan_verdict(build_plan(shapes.comb())) == "numeric-only"

    def test_summary_shapes(self):
        tree = plan_summary(build_plan(shapes.tennis()))
        assert tree["kind"] == "product"
        assert {child["kind"] for child in tree["factors"]} >= {"classical"}
        tree = plan_summary(build_plan(shapes.path3()))
        assert tree["kind"] == "chain"
        assert tree["shared"] == ["y1", "y2"]
        tree = plan_summary(build_plan(shapes.four_cycle()))
        assert tree["kind"] == "numeric"
        assert len(tree["operations"]) == 4


def random_constructible(rng: np.random.Generator, depth: int = 2):
    """A random diagram built from single operations by products and
    disjoint unions, named so every build yields fresh outcomes."""
    counter = [0]

    def fresh(k: int) -> list[str]:
        names = [f"o{counter[0] + i}" for i in range(k)]
        counter[0] += k
        return names

    def make(level: int) -> list[list[str]]:
        if level == 0 or rng.random() < 0.3:
            return [fresh(int(rng.integers(2, 5)))]
        left = make(level - 1)
        right = make(level - 1)
        if rng.random() < 0.5:
            return left + right
        return [lo + ro for lo in left for ro in right]

    ops = make(depth)
    outcomes = list(dict.fromkeys(x for op in ops for x in op))
    return build_diagram(outcomes, ops)


def test_random_constructible_diagrams_classify_constructible():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(25):
        d = random_constructible(rng)
        assert plan_verdict(build_plan(d)) == "constructible"
