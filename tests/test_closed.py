"""Closed-form solvers: exact values, algebraic identities, dispatch.

The chain identities are checked two ways: frozen algebraic values for
the reference shapes, and property tests over random positive counts
(the elimination identity in exact rational arithmetic, the quadratic
route against the general solver in floats).
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greechie_mle import (
    closed_form,
    numeric,
    EstimationError,
    GreechieError,
    InfeasibleEstimate,
    NoClosedForm,
    NonConvergence,
    InfeasibleReduction,
    Product,
    brute_force_mle,
    build_diagram,
    build_plan,
    detect_chain,
    elimination_c1,
    estimate,
    finish_result,
    log_likelihood,
    shapes,
    solve_chain_k,
    solve_classical,
    solve_numeric,
)

from tests.conftest import assert_kkt, count_calls, random_counts, random_diagram

counts_strategy = st.integers(min_value=1, max_value=1000)


class TestClassical:
    def test_exact_fractions(self):
        d = build_diagram(["a", "b", "c"], [["a", "b", "c"]])
        r = solve_classical(d, {"a": 1, "b": 2, "c": 5})
        assert r.p == {"a": Fraction(1, 8), "b": Fraction(2, 8), "c": Fraction(5, 8)}
        assert r.method == "classical"
        assert r.residual == 0.0

    def test_accepts_bare_operation(self):
        # A bare operation becomes a diagram through build_diagram(op, [op]).
        op = ["a", "b"]
        r = solve_classical(build_diagram(op, [op]), {"a": 3, "b": 1})
        assert r.p["a"] == Fraction(3, 4)

    def test_zero_total(self):
        op = ["a", "b"]
        with pytest.raises(InfeasibleReduction) as info:
            solve_classical(build_diagram(op, [op]), {"a": 0, "b": 0})
        assert info.value.edges == [("a", "b")]

    def test_requires_single_operation(self):
        with pytest.raises(ValueError):
            solve_classical(shapes.tennis(), {x: 1 for x in shapes.tennis().outcomes})

    @given(st.lists(counts_strategy, min_size=2, max_size=10))
    def test_matches_empirical_distribution_exactly(self, counts):
        op = [f"x{i}" for i in range(len(counts))]
        freq = dict(zip(op, counts))
        r = solve_classical(build_diagram(op, [op]), freq)
        total = sum(counts)
        assert all(r.p[x] == Fraction(freq[x], total) for x in op)


class TestHorizontal:
    def test_components_solved_independently(self):
        r = estimate(shapes.disjoint_pairs(), {"a": 1, "b": 3, "c": 2, "d": 2})
        assert r.p == {
            "a": Fraction(1, 4),
            "b": Fraction(3, 4),
            "c": Fraction(1, 2),
            "d": Fraction(1, 2),
        }
        assert r.method == "horizontal"


class TestProduct:
    def test_tennis_weights_and_values(self):
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        r = estimate(shapes.tennis(), freq)
        assert r.method == "product"
        assert r.p["e"] == Fraction(2, 7)
        assert r.p["a"] == Fraction(5, 28)
        assert r.diagnostics["weights"] == [5 / 7, 2 / 7]


class TestChainQuadratic:
    def test_reference_algebra(self):
        d = shapes.path3()
        r = solve_chain_k(detect_chain(d), {x: 1 for x in d.outcomes})
        root2 = math.sqrt(2.0)
        assert abs(float(r.p["y1"]) - (3.0 - root2) / 7.0) < 1e-12
        assert abs(float(r.p["y2"]) - (3.0 - root2) / 7.0) < 1e-12
        c1, c2 = r.diagnostics["splitting_parameters"]
        assert abs(c1 - (root2 - 1.0)) < 1e-12
        assert abs(c2 - (root2 - 1.0)) < 1e-12
        assert r.method == "chain-closed"
        assert r.residual < 1e-12

    def test_interior_block_ratios_constant(self):
        d = shapes.path3()
        freq = {"a1": 4, "a2": 9, "y1": 7, "b": 11, "y2": 3, "c1": 8, "c2": 2}
        chain = detect_chain(d)
        r = solve_chain_k(chain, freq)
        for interior in chain.interiors:
            ratios = [freq[x] / float(r.p[x]) for x in interior]
            assert max(ratios) - min(ratios) < 1e-9 * max(ratios)

    def test_requires_three_operations(self):
        # A Chain comes only from detect_chain, which finds none in paths
        # of two, four or five operations.
        for d in (shapes.tennis(), shapes.path4(), shapes.path5()):
            assert detect_chain(d) is None

    def test_requires_positive_counts(self):
        d = shapes.path3()
        freq = {x: 1 for x in d.outcomes}
        freq["b"] = 0
        with pytest.raises(ValueError, match="positive"):
            solve_chain_k(detect_chain(d), freq)

    def test_requires_nonempty_interiors(self):
        d = build_diagram(
            ["a", "y1", "y2", "b"], [["a", "y1"], ["y1", "y2"], ["y2", "b"]]
        )
        with pytest.raises(ValueError, match="interior"):
            solve_chain_k(detect_chain(d), {x: 1 for x in d.outcomes})

    @given(
        b1=counts_strategy,
        b2=counts_strategy,
        m2=counts_strategy,
        num=st.integers(min_value=1, max_value=99),
    )
    def test_elimination_identity_exact(self, b1, b2, m2, num):
        # The eliminated parameter satisfies its consistency equation for
        # every value of the other one, not just at the optimum.
        c2 = Fraction(num, 100)
        c1 = elimination_c1(b1, b2, m2, c2)
        m1 = 17  # cancels out of the identity
        d1 = b1 + (1 - c1) * m1
        d2 = b2 + c1 * m1 + c2 * m2
        assert (1 - c1) * d2 == c1 * d1
        assert 0 < c1 < 1

    @settings(max_examples=200)
    @given(st.lists(counts_strategy, min_size=7, max_size=7))
    def test_random_counts_always_solvable(self, values):
        d = shapes.path3()
        freq = dict(zip(d.outcomes, values))
        r = solve_chain_k(detect_chain(d), freq)
        c1, c2 = r.diagnostics["splitting_parameters"]
        assert 0.0 < c1 < 1.0
        assert 0.0 < c2 < 1.0
        assert r.residual < 1e-10

    @pytest.mark.parametrize(
        "name,freq",
        [
            ("path3", {"a1": 2544, "a2": 5937, "y1": 414008, "b": 200243579,
                       "y2": 22547350, "c1": 5, "c2": 3}),
            ("path3_wide", {"a1": 231059, "a2": 29, "a3": 3323071, "y1": 600607640,
                            "b1": 26517931, "b2": 48542, "y2": 916692828,
                            "c1": 19, "c2": 10, "c3": 59}),
        ],
    )
    def test_splitting_parameter_near_one(self, name, freq):
        # c_2 lies within 1e-7 of 1 here, so 1 - c_2 taken by subtraction
        # keeps about 7 digits and the operation sums miss by ~2e-10.
        d = getattr(shapes, name)()
        r = estimate(d, freq)
        assert r.method == "chain-closed"
        assert r.residual < 1e-12
        for op in d.operations:
            assert abs(sum(float(r.p[x]) for x in op) - 1.0) < 1e-12
        numeric = solve_numeric(d, freq)
        assert max(abs(float(r.p[x]) - numeric.p[x]) for x in d.outcomes) < 1e-9


def two_operation_chain(rng):
    """Operations I_1 + {y} and {y} + I_2 with nonempty interiors, each
    operation's members and the outcome list in random order."""
    interiors = [
        [f"{side}{k}" for k in range(rng.randint(1, 3))] for side in ("a", "b")
    ]
    ops = [interiors[0] + ["y"], ["y"] + interiors[1]]
    for op in ops:
        rng.shuffle(op)
    outcomes = interiors[0] + interiors[1] + ["y"]
    rng.shuffle(outcomes)
    return build_diagram(outcomes, ops), interiors


class TestChainGeneral:
    def test_planner_never_emits_two_operation_chain(self):
        # Two operations sharing y factor as {y} x {I_1 | I_2}, and the
        # product route reproduces the linear chain solution
        # c = n(B_2) / (n(B_1) + n(B_2)) exactly.
        rng = random.Random("two-operation chains")
        for _ in range(200):
            d, (i1, i2) = two_operation_chain(rng)
            freq = {x: rng.randint(1, 10 ** rng.randint(1, 6)) for x in d.outcomes}
            assert isinstance(build_plan(d), Product), d
            b1 = sum(freq[x] for x in i1)
            b2 = sum(freq[x] for x in i2)
            m1 = freq["y"]
            c = Fraction(b2, b1 + b2)
            d1 = b1 + (1 - c) * m1
            d2 = b2 + c * m1
            expected = {x: freq[x] / d1 for x in i1}
            expected.update({x: freq[x] / d2 for x in i2})
            expected["y"] = (1 - c) * m1 / d1
            r = estimate(d, freq)
            assert r.p == expected, (d, freq)
            assert all(isinstance(v, Fraction) for v in r.p.values())
            assert r.residual == 0.0

    def test_three_operations_delegate(self, monkeypatch):
        # Only a three-operation chain reaches the quadratic; longer
        # chains are numeric leaves.
        calls = count_calls(monkeypatch, closed_form, "solve_chain_k")
        for d in (shapes.path3(), shapes.path4(), shapes.path5()):
            estimate(d, {x: 1 for x in d.outcomes})
        assert len(calls) == 1

    def test_path4_reference_values(self):
        d = shapes.path4()
        r = estimate(d, {x: 1 for x in d.outcomes})
        assert r.method == "numeric"
        assert "splitting_parameters" not in r.diagnostics
        expected = {
            "a1": Fraction(7, 18),
            "y1": Fraction(2, 9),
            "b": Fraction(14, 27),
            "y2": Fraction(7, 27),
            "c": Fraction(14, 27),
            "y3": Fraction(2, 9),
            "d1": Fraction(7, 18),
        }
        for x, v in expected.items():
            assert abs(float(r.p[x]) - float(v)) < 1e-12, x
        # Operation B receives the share c(y, B) = lambda_B / sigma(y) of
        # a shared count n(y); on a chain, c_i = lambda_{i+1} / sigma(y_i).
        lam = r.diagnostics["multipliers"]
        c = [right / (left + right) for left, right in zip(lam, lam[1:])]
        assert abs(c[0] - 3 / 7) < 1e-12
        assert abs(c[1] - 1 / 2) < 1e-12
        assert abs(c[2] - 4 / 7) < 1e-12

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(numeric, "_MAX_ITERATIONS", 1)
        d = shapes.path5()
        with pytest.raises(NonConvergence) as info:
            estimate(d, {x: 1 for x in d.outcomes})
        assert info.value.iterations == 1
        assert info.value.node_path == "root"


class TestExecutePlan:
    def test_error_carries_node_path(self, monkeypatch):
        # A coin beside the four-cycle: the numeric leaf, the sum's second
        # child, cannot converge in one Newton iteration.
        base = shapes.four_cycle()
        d = build_diagram(
            ["p", "q"] + list(base.outcomes),
            [["p", "q"]] + [list(op) for op in base.operations],
        )
        freq = {x: 1 + i for i, x in enumerate(d.outcomes)}
        monkeypatch.setattr(numeric, "_MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergence) as info:
            estimate(d, freq)
        assert info.value.node_path == "root/sum[1]"

    def test_final_certificate_error_carries_node_path(self, monkeypatch):
        # The root's assignment is certified after _execute returns; an
        # assignment that misses an operation sum fails there, at "root".
        d = shapes.tennis()

        def off_by_one_sum(plan, freq, path):
            p = {x: Fraction(1, 3) for x in plan.diagram.outcomes}
            p["a"] = Fraction(2, 3)  # {a, c, e} sums to 4/3
            return p, "product", {}

        monkeypatch.setattr(closed_form, "_execute", off_by_one_sum)
        with pytest.raises(InfeasibleEstimate) as info:
            estimate(d, {x: 1 for x in d.outcomes})
        assert info.value.node_path == "root"


class TestEstimate:
    def test_motivating_counts_exact(self):
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        r = estimate(shapes.tennis(), freq)
        assert r.p == {
            "a": Fraction(5, 28),
            "c": Fraction(15, 28),
            "e": Fraction(2, 7),
            "b": Fraction(5, 21),
            "d": Fraction(10, 21),
        }

    def test_zeroed_outcomes_reinserted_exactly(self):
        freq = {"a": 1, "c": 3, "e": 0, "b": 1, "d": 2}
        r = estimate(shapes.tennis(), freq)
        assert r.p["e"] == Fraction(0)
        assert r.p["a"] == Fraction(1, 4)
        assert r.p["b"] == Fraction(1, 3)
        assert r.diagnostics["zeroed"] == ["e"]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            estimate(shapes.tennis(), {x: 1 for x in shapes.tennis().outcomes}, method="best")

    def test_infeasible_reduction(self):
        with pytest.raises(InfeasibleReduction):
            estimate(shapes.disjoint_pairs(), {"a": 1, "b": 1, "c": 0, "d": 0})

    def test_closed_method_rejects_numeric_plans(self):
        # Chains of four or more operations have no closed form here.
        for d in (shapes.comb(), shapes.path4(), shapes.path5()):
            with pytest.raises(NoClosedForm) as info:
                estimate(d, {x: 1 for x in d.outcomes}, method="closed")
            assert set(info.value.outcomes) == set(d.outcomes)

    def test_numeric_method_matches_closed(self):
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        exact = estimate(shapes.tennis(), freq)
        numeric = estimate(shapes.tennis(), freq, method="numeric")
        assert numeric.method == "numeric"
        worst = max(abs(float(exact.p[x]) - numeric.p[x]) for x in exact.p)
        assert worst < 1e-9

    def test_config_reaches_auto_route(self, monkeypatch):
        # Skewed counts on which the numeric solver needs 13 iterations:
        # every route must stop at the iteration cap.
        d = shapes.four_cycle()
        freq = {
            "k1": 102568457, "m1": 678, "k2": 599, "m2": 8,
            "k3": 89, "m3": 1, "k4": 8, "m4": 5899,
        }
        monkeypatch.setattr(numeric, "_MAX_ITERATIONS", 2)
        for method in ("numeric", "auto"):
            with pytest.raises(NonConvergence) as info:
                estimate(d, freq, method=method)
            assert info.value.iterations == 2, method

    def test_diagnostics_summarize_plan(self):
        d = shapes.path3()
        r = estimate(d, {x: 1 for x in d.outcomes})
        assert r.diagnostics["tree"]["kind"] == "chain"
        assert r.diagnostics["verdict"] == "chain-solvable"

    def test_zero_counts_raise_only_typed_errors(self):
        # An operation with no observed outcome, all of them when every
        # count is zero, is rejected as InfeasibleReduction before any
        # plan node runs, so no sum or product child has a zero total.
        # The only other error on these draws is a numeric leaf's
        # NonConvergence; the combiners raise nothing of their own.
        rng = random.Random("zero counts")
        outcomes = set()
        for _ in range(200):
            d = random_diagram(rng)
            freq = {x: 0 if rng.random() < 0.3 else rng.randint(1, 50) for x in d.outcomes}
            try:
                outcomes.add(estimate(d, freq).method)
            except GreechieError as exc:
                assert isinstance(exc, (InfeasibleReduction, NonConvergence)), (d, freq)
                outcomes.add(type(exc).__name__)
        assert {"horizontal", "product", "InfeasibleReduction"} <= outcomes

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=5, max_size=5),
        st.integers(min_value=2, max_value=9),
    )
    def test_scale_invariance_exact(self, values, k):
        d = shapes.tennis()
        freq = dict(zip(d.outcomes, values))
        scaled = {x: k * v for x, v in freq.items()}
        assert estimate(d, freq).p == estimate(d, scaled).p


class TestZeroCounts:
    # Inputs on which dropping the zero-count outcome loses likelihood:
    # the maximizer puts mass on it (0.314 on b for path5).
    PINNED = (
        (shapes.path5(), {"a1": 8, "a2": 6, "y1": 12, "b": 0, "y2": 7, "c": 15,
                          "y3": 17, "d": 13, "y4": 10, "e1": 13, "e2": 2}),
        (shapes.comb(), {"t1": 5, "t2": 0, "t3": 4, "u1": 30, "v1": 20,
                         "u2": 3, "v2": 2, "u3": 25, "v3": 30}),
        (shapes.path3(), {"a1": 8, "a2": 6, "y1": 12, "b": 0, "y2": 7,
                          "c1": 15, "c2": 3}),
    )

    @staticmethod
    def draws(per_shape):
        """Seeded counts holding at least one zero, on every shape."""
        rng = random.Random("zero-count kkt")
        for d in shapes.all_shapes().values():
            for _ in range(per_shape):
                freq = {}
                while 0 not in freq.values():
                    freq = {
                        x: rng.randint(0, 3) if rng.random() < 0.15 else rng.randint(1, 300)
                        for x in d.outcomes
                    }
                yield d, freq

    def test_estimates_meet_kkt(self):
        routes = set()
        for d, freq in self.PINNED + tuple(self.draws(20)):
            try:
                r = estimate(d, freq)
            except InfeasibleReduction:
                continue
            routes.add(r.method)
            for x in r.diagnostics.get("zeroed", ()):
                assert r.p[x] == 0
            if r.method == "numeric":
                assert_kkt(d, freq, r)
        assert {"numeric", "horizontal", "product"} <= routes

    def test_uncertified_input_has_no_closed_form(self):
        # Dropping t2 would leave a closed form, but no certificate holds:
        # the spine keeps no observed outcome of its own.
        d, freq = self.PINNED[1]
        assert estimate(d, freq).method == "numeric"
        with pytest.raises(NoClosedForm) as info:
            estimate(d, freq, method="closed")
        assert info.value.outcomes == d.outcomes

    def test_no_estimate_below_oracle(self):
        for d, freq in self.PINNED + tuple(self.draws(1)):
            r = estimate(d, freq)
            best = log_likelihood(freq, brute_force_mle(d, freq))
            assert r.log_lik >= best - 1e-9, (d, freq)

    @pytest.mark.xfail(
        strict=True,
        raises=NonConvergence,
        reason="ROADMAP item 2, 'Left open': a zero-count outcome with sigma* = 0 "
        "and p* > 0 stalls Newton until the 1e-150 guard fires",
    )
    def test_skewed_degenerate_zero_counts(self):
        # A maximizer exists: the feasible set is compact and holds a
        # strictly positive point (the unit-count solution), so the
        # likelihood is finite there and attains its maximum.
        d = shapes.comb()
        freq = {"t1": 33, "t2": 1073, "t3": 0, "u1": 3126192, "v1": 11,
                "u2": 19230, "v2": 0, "u3": 14, "v3": 0}
        r = estimate(d, freq)
        assert_kkt(d, freq, r)


class TestFinishResult:
    def test_infeasible_assignment_is_a_typed_error(self):
        d = shapes.tennis()
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        p = {"a": 0.2, "c": 0.5, "e": 0.2, "b": 0.3, "d": 0.5}  # a + c + e = 0.9
        with pytest.raises(InfeasibleEstimate) as info:
            finish_result(d, freq, p, "product")
        assert isinstance(info.value, EstimationError)
        assert info.value.route == "product"
        assert info.value.gap == pytest.approx(0.1)
        assert "via product" in str(info.value)

    def test_out_of_range_probability_rejected(self):
        d = build_diagram(["a", "b"], [["a", "b"]])
        with pytest.raises(InfeasibleEstimate) as info:
            finish_result(d, {"a": 1, "b": 1}, {"a": 1.5, "b": -0.5}, "classical")
        assert info.value.gap == pytest.approx(0.5)

    def test_assignment_must_cover_the_outcomes(self):
        d = build_diagram(["a", "b"], [["a", "b"]])
        with pytest.raises(ValueError):
            finish_result(d, {"a": 1, "b": 1}, {"a": 0.5, "b": 0.5, "z": 0.0}, "classical")

    def test_nan_probability_rejected(self):
        # The NaN sits in the second operation, after a gap of 0.0.
        d = shapes.disjoint_pairs()
        p = {"a": 0.5, "b": 0.5, "c": math.nan, "d": 0.5}
        with pytest.raises(InfeasibleEstimate) as info:
            finish_result(d, {x: 1 for x in d.outcomes}, p, "numeric")
        assert math.isnan(info.value.gap)


def _worst_gap(d, p):
    sums = [abs(float(sum(p[x] for x in op)) - 1.0) for op in d.operations]
    box = [max(-float(v), float(v) - 1.0, 0.0) for v in p.values()]
    return max(sums + box)


class TestCertificate:
    @pytest.mark.parametrize("name", sorted(shapes.all_shapes()))
    def test_residual_is_worst_gap(self, name, rng):
        d = shapes.all_shapes()[name]
        for freq in ({x: 1 for x in d.outcomes}, random_counts(d, rng)):
            auto = estimate(d, freq)
            routes = ["auto", "numeric"]
            if auto.diagnostics["verdict"] != "numeric-only":
                routes.append("closed")
            for method in routes:
                r = estimate(d, freq, method=method)
                assert r.residual == _worst_gap(d, r.p), (method, freq)
                if name in ("tennis", "disjoint_pairs") and method != "numeric":
                    assert r.residual == 0.0

    @pytest.mark.parametrize(
        "name, checks",
        [
            ("tennis", 4),  # three classical leaves and the root
            ("disjoint_pairs", 3),
            ("path3", 2),  # one leaf and the root
            ("path4", 2),
            ("four_cycle", 2),
        ],
    )
    def test_one_check_per_leaf_and_root(self, monkeypatch, name, checks):
        d = shapes.all_shapes()[name]
        closed_calls = count_calls(monkeypatch, closed_form, "finish_result")
        numeric_calls = count_calls(monkeypatch, numeric, "finish_result")
        estimate(d, {x: 3 for x in d.outcomes})
        assert len(closed_calls) + len(numeric_calls) == checks
