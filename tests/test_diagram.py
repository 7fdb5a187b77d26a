"""Structure validation, cycle detection, and zero-count reduction."""

import itertools
import math
import random
from collections import deque

import pytest

from greechie_mle import (
    DuplicateEdge,
    DuplicateOutcome,
    EmptyEdge,
    InfeasibleReduction,
    IntersectionTooLarge,
    OperationPolicy,
    UncoveredOutcome,
    UnknownMember,
    build_diagram,
    check_frequencies,
    check_g1,
    check_g2,
    check_probability,
    estimate,
    log_likelihood,
    minimum_cycle_length,
    reduce_zero_counts,
    sample_outcomes,
    shapes,
    validate_diagram,
)
from greechie_mle import Violation, diagram
from tests.conftest import (
    LINEAR_KINDS,
    count_calls,
    cycle_diagram,
    random_diagram,
    random_linear_diagram,
)


def all_roots_cycle_length(d):
    """Half the girth of the incidence graph by a breadth-first search
    from every node: the quadratic search minimum_cycle_length replaced,
    kept as the reference."""
    n = len(d.outcomes)
    size = n + len(d.operations)
    adj = [[] for _ in range(size)]
    for j, op in enumerate(d.operations):
        for x in op:
            adj[d.outcome_index[x]].append(n + j)
            adj[n + j].append(d.outcome_index[x])
    best = None
    for root in range(size):
        dist = [-1] * size
        parent = [-1] * size
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    length = dist[u] + dist[v] + 1
                    best = length if best is None else min(best, length)
    return None if best is None else best // 2


def assert_real_cycle(d, length, witness):
    """The witness alternates distinct outcomes and distinct operations
    around a closed cycle of the stated length."""
    assert len(witness) == 2 * length
    vertices = witness[0::2]
    edges = witness[1::2]
    assert all(isinstance(x, str) for x in vertices)
    assert len(set(vertices)) == length
    assert len(set(edges)) == length
    for k in range(length):
        members = set(d.operations[edges[k]])
        assert vertices[k] in members
        assert vertices[(k + 1) % length] in members


def all_pairs_g1(d):
    """check_g1 over every ordered pair of operations: the quadratic
    reference."""
    violations = []
    for i, a in enumerate(d.edge_sets):
        for j, b in enumerate(d.edge_sets):
            if i != j and len(a - b) < 2:
                violations.append(
                    Violation(
                        rule="G1",
                        witness=(d.operations[i], d.operations[j]),
                        message=(
                            f"operation {{{','.join(d.operations[i])}}} minus "
                            f"{{{','.join(d.operations[j])}}} "
                            f"leaves only {sorted(a - b)!r}"
                        ),
                    )
                )
    return violations


def first_large_intersection(d):
    """The first pair of operations, in index order, sharing more than
    one outcome, or None."""
    for i, j in itertools.combinations(range(len(d.operations)), 2):
        if len(d.edge_sets[i] & d.edge_sets[j]) > 1:
            return d.operations[i], d.operations[j]
    return None


class TestBuildDiagram:
    def test_accepts_and_freezes(self):
        d = build_diagram(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        assert d.outcomes == ("a", "b", "c")
        assert d.operations == (("a", "b"), ("b", "c"))
        assert d.edges_of["b"] == (0, 1)

    def test_duplicate_outcome(self):
        with pytest.raises(DuplicateOutcome):
            build_diagram(["a", "a"], [["a"]])

    def test_duplicate_member_inside_operation(self):
        with pytest.raises(DuplicateOutcome):
            build_diagram(["a", "b"], [["a", "b", "a"]])

    def test_duplicate_edge_regardless_of_order(self):
        with pytest.raises(DuplicateEdge):
            build_diagram(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_empty_edge(self):
        with pytest.raises(EmptyEdge):
            build_diagram(["a"], [["a"], []])

    def test_unknown_member(self):
        with pytest.raises(UnknownMember):
            build_diagram(["a", "b"], [["a", "b"], ["a", "z"]])

    @pytest.mark.parametrize("member", [["b"], {"b": 1}], ids=["list", "dict"])
    def test_non_string_member_is_unknown(self, member):
        with pytest.raises(UnknownMember) as info:
            build_diagram(["a", "b"], [["a", "b"], ["a", member]])
        assert info.value.member == member and info.value.index == 1

    def test_uncovered_outcome(self):
        with pytest.raises(UncoveredOutcome):
            build_diagram(["a", "b", "c"], [["a", "b"]])

    def test_nonstring_outcome(self):
        with pytest.raises(Exception):
            build_diagram([1, 2], [[1, 2]])


class TestSeparationRule:
    def test_reference_shapes_pass(self):
        for name, d in shapes.all_shapes().items():
            assert check_g1(d).passed, name

    def test_single_new_outcome_fails(self):
        report = check_g1(shapes.g1_violation())
        assert not report.passed
        # Both ordered directions violate.
        assert len(report.violations) == 2
        assert all(v.rule == "G1" for v in report.violations)

    def test_thin_path_fails(self):
        assert not check_g1(shapes.thin_path3()).passed


class TestCycles:
    def test_acyclic_shapes(self):
        for make in (shapes.path3, shapes.path5, shapes.comb, shapes.disjoint_pairs):
            assert minimum_cycle_length(make()) == (None, None)

    def test_triangle_length_three(self):
        length, witness = minimum_cycle_length(shapes.triangle())
        assert length == 3
        assert witness is not None

    def test_four_cycle_length_four(self):
        length, _ = minimum_cycle_length(shapes.four_cycle())
        assert length == 4

    def test_witness_is_a_real_cycle(self):
        rng = random.Random("witness")
        cases = [shapes.triangle(), *shapes.all_shapes().values()]
        cases += [random_linear_diagram(rng, "branched") for _ in range(20)]
        cyclic = 0
        for d in cases:
            length, witness = minimum_cycle_length(d)
            if length is not None:
                assert_real_cycle(d, length, witness)
                cyclic += 1
        assert cyclic >= 22

    def test_intersection_precondition(self):
        d = build_diagram(["a", "b", "c", "x"], [["a", "b", "x"], ["a", "b", "c"]])
        with pytest.raises(IntersectionTooLarge):
            minimum_cycle_length(d)

    def test_cycle_bounds(self):
        assert not check_g2(shapes.triangle(), "omp").passed
        assert not check_g2(shapes.triangle(), "oml").passed
        assert check_g2(shapes.four_cycle(), "omp").passed
        assert not check_g2(shapes.four_cycle(), "oml").passed
        assert check_g2(shapes.path3(), "oml").passed

    def test_bad_target(self):
        with pytest.raises(ValueError):
            check_g2(shapes.path3(), "omw")


class TestAgainstQuadraticReferences:
    """The checks that scale with the incidences give the answers of the
    all-pairs and all-roots algorithms they replaced."""

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_cycle_length_and_witness(self, kind):
        rng = random.Random(f"cycles/{kind}")
        for _ in range(150):
            d = random_linear_diagram(rng, kind)
            length, witness = minimum_cycle_length(d)
            assert length == all_roots_cycle_length(d), d
            if length is None:
                assert witness is None
                assert kind in ("acyclic", "path", "disconnected")
            else:
                assert_real_cycle(d, length, witness)

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_g1_violations(self, kind):
        rng = random.Random(f"g1/{kind}")
        for _ in range(150):
            d = random_linear_diagram(rng, kind)
            assert list(check_g1(d).violations) == all_pairs_g1(d), d

    def test_unrestricted_diagrams(self):
        rng = random.Random("unrestricted")
        raised = 0
        for _ in range(400):
            d = random_diagram(rng)
            assert list(check_g1(d).violations) == all_pairs_g1(d), d
            pair = first_large_intersection(d)
            if pair is None:
                assert minimum_cycle_length(d)[0] == all_roots_cycle_length(d), d
                continue
            raised += 1
            with pytest.raises(IntersectionTooLarge) as info:
                minimum_cycle_length(d)
            assert (info.value.edge_a, info.value.edge_b) == pair, d
        assert 50 < raised < 400


class TestScale:
    """Correctness on diagrams far beyond what a quadratic search could
    finish in a test run; no time is measured."""

    def test_long_cycle(self):
        d = cycle_diagram(4096)
        length, witness = minimum_cycle_length(d)
        assert length == 4096
        assert_real_cycle(d, length, witness)
        assert validate_diagram(d).passed

    def test_long_chain(self):
        d = shapes.chain_path([2] * 4096)
        assert minimum_cycle_length(d) == (None, None)
        assert validate_diagram(d).passed


class TestValidateDiagram:
    def test_valid_shape(self):
        assert validate_diagram(shapes.path3()).passed

    def test_collects_all_rules(self):
        report = validate_diagram(shapes.triangle())
        rules = {v.rule for v in report.violations}
        assert rules == {"G2-OMP", "G2-OML"}

    def test_one_cycle_search_for_both_targets(self, monkeypatch):
        calls = count_calls(monkeypatch, diagram, "minimum_cycle_length")
        report = validate_diagram(shapes.triangle())
        assert {v.rule for v in report.violations} == {"G2-OMP", "G2-OML"}
        assert len(calls) == 1

    def test_both_targets_match_check_g2(self):
        for d in [shapes.triangle(), *shapes.all_shapes().values()]:
            g2 = [v for v in validate_diagram(d).violations if v.rule.startswith("G2")]
            expected = check_g2(d, "omp").violations + check_g2(d, "oml").violations
            assert tuple(g2) == expected, d

    def test_intersection_reported_not_raised(self):
        d = build_diagram(["a", "b", "c", "x"], [["a", "b", "x"], ["a", "b", "c"]])
        report = validate_diagram(d)
        assert "INTERSECTION" in {v.rule for v in report.violations}


class TestFrequencies:
    def test_domain_mismatch(self):
        d = shapes.disjoint_pairs()
        with pytest.raises(ValueError, match="missing"):
            check_frequencies(d, {"a": 1, "b": 1, "c": 1})
        with pytest.raises(ValueError, match="unknown"):
            check_frequencies(d, {"a": 1, "b": 1, "c": 1, "d": 1, "z": 1})

    def test_value_validation(self):
        d = shapes.disjoint_pairs()
        base = {"a": 1, "b": 1, "c": 1, "d": 1}
        for bad in (-1, 1.5, True):
            freq = dict(base, a=bad)
            with pytest.raises(ValueError):
                check_frequencies(d, freq)


class TestReduction:
    def test_no_zeros_is_identity(self):
        d = shapes.tennis()
        freq = {x: 2 for x in d.outcomes}
        red = reduce_zero_counts(d, freq)
        assert red.diagram is d
        assert red.zeroed == frozenset()

    def test_removes_outcome_everywhere(self):
        d = shapes.tennis()
        freq = {"a": 1, "c": 3, "e": 0, "b": 1, "d": 2}
        red = reduce_zero_counts(d, freq)
        assert red.zeroed == {"e"}
        assert red.diagram.operations == (("a", "c"), ("b", "d"))

    def test_emptied_operation_is_reported(self):
        d = shapes.disjoint_pairs()
        with pytest.raises(InfeasibleReduction, match=r"1 operation\(s\) lost every member"):
            reduce_zero_counts(d, {"a": 1, "b": 1, "c": 0, "d": 0})

    def test_shared_observed_outcome_blocks_reduction(self):
        # Both operations would collapse to {a}; a is shared, so nothing
        # certifies the removal and the solver takes the diagram whole.
        d = build_diagram(["a", "b", "c"], [["a", "b"], ["a", "c"]])
        freq = {"a": 5, "b": 0, "c": 0}
        red = reduce_zero_counts(d, freq)
        assert red.diagram is d
        assert red.zeroed == frozenset()
        assert abs(estimate(d, freq).p["a"] - 1) <= 1e-12

    def test_all_zero_rejected(self):
        d = shapes.disjoint_pairs()
        with pytest.raises(InfeasibleReduction) as info:
            reduce_zero_counts(d, {x: 0 for x in d.outcomes})
        assert info.value.edges == list(d.operations)

    def test_idempotent(self):
        d = shapes.path3()
        freq = {x: (0 if x == "b" else 4) for x in d.outcomes}
        once = reduce_zero_counts(d, freq)
        twice = reduce_zero_counts(once.diagram, once.freq)
        assert twice.diagram == once.diagram
        assert twice.zeroed == frozenset()


class TestLikelihoodHelpers:
    def test_log_likelihood_value(self):
        freq = {"a": 2, "b": 1}
        p = {"a": 0.5, "b": 0.25}
        expected = 2 * math.log(0.5) + math.log(0.25)
        assert log_likelihood(freq, p) == pytest.approx(expected, rel=1e-15)

    def test_zero_count_contributes_nothing(self):
        assert log_likelihood({"a": 0, "b": 1}, {"a": 0.0, "b": 1.0}) == 0.0

    def test_observed_zero_probability_is_minus_inf(self):
        assert log_likelihood({"a": 1}, {"a": 0.0}) == -math.inf

    def test_check_probability(self):
        d = shapes.disjoint_pairs()
        good = {"a": 0.25, "b": 0.75, "c": 0.5, "d": 0.5}
        assert check_probability(d, good)
        assert not check_probability(d, dict(good, a=0.30))
        assert not check_probability(d, dict(good, a=-0.25, b=1.25))

    def test_check_probability_tolerance_slack(self):
        d = build_diagram(["a"], [["a"]])
        # Numeric routes may overshoot the box by rounding; the sum
        # tolerance applies to the range too.
        assert check_probability(d, {"a": 1.0 + 1e-12})
        assert not check_probability(d, {"a": 1.0 + 1e-6})

    def test_nan_probability_is_not_a_distribution(self):
        d = shapes.tennis()
        p = {"a": math.nan, "c": 0.5, "e": 0.5, "b": 0.25, "d": 0.25}
        assert not check_probability(d, p)
        with pytest.raises(ValueError, match="not a valid probability"):
            sample_outcomes(d, p, OperationPolicy.uniform(d), 1000, seed=1)
