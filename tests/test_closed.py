"""Closed-form solvers: exact values, algebraic identities, dispatch.

The chain identities are checked two ways: frozen algebraic values for
the reference shapes, and property tests over random positive counts
(the elimination identity in exact rational arithmetic, the quadratic
route against the general solver in floats).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greechie_mle import (
    BlockStats,
    EstimationError,
    InfeasibleEstimate,
    NoClosedForm,
    NonConvergence,
    InfeasibleReduction,
    SplittingParameters,
    ZeroComponent,
    ZeroFactor,
    SolverConfig,
    ZeroTotal,
    build_diagram,
    build_plan,
    detect_chain,
    elimination_c1,
    estimate,
    execute_plan,
    finish_result,
    shapes,
    solve_chain2,
    solve_chain_k,
    solve_classical,
    solve_horizontal,
    solve_numeric,
    solve_product,
)

counts_strategy = st.integers(min_value=1, max_value=1000)


class TestClassical:
    def test_exact_fractions(self):
        d = build_diagram(["a", "b", "c"], [["a", "b", "c"]])
        r = solve_classical(d, {"a": 1, "b": 2, "c": 5})
        assert r.p == {"a": Fraction(1, 8), "b": Fraction(2, 8), "c": Fraction(5, 8)}
        assert r.method == "classical"
        assert r.residual == 0.0

    def test_accepts_bare_operation(self):
        r = solve_classical(("a", "b"), {"a": 3, "b": 1})
        assert r.p["a"] == Fraction(3, 4)

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            solve_classical(("a", "b"), {"a": 0, "b": 0})

    def test_requires_single_operation(self):
        with pytest.raises(ValueError):
            solve_classical(shapes.tennis(), {x: 1 for x in shapes.tennis().outcomes})

    @given(st.lists(counts_strategy, min_size=2, max_size=10))
    def test_matches_empirical_distribution_exactly(self, counts):
        op = tuple(f"x{i}" for i in range(len(counts)))
        freq = dict(zip(op, counts))
        r = solve_classical(op, freq)
        total = sum(counts)
        assert all(r.p[x] == Fraction(freq[x], total) for x in op)


class TestHorizontal:
    def test_components_solved_independently(self):
        d = shapes.disjoint_pairs()
        r = solve_horizontal(
            [build_diagram(["a", "b"], [["a", "b"]]), build_diagram(["c", "d"], [["c", "d"]])],
            {"a": 1, "b": 3, "c": 2, "d": 2},
            diagram=d,
        )
        assert r.p == {
            "a": Fraction(1, 4),
            "b": Fraction(3, 4),
            "c": Fraction(1, 2),
            "d": Fraction(1, 2),
        }
        assert r.method == "horizontal"

    def test_rejects_overlapping_components(self):
        comp = build_diagram(["a", "b"], [["a", "b"]])
        with pytest.raises(ValueError, match="disjoint"):
            solve_horizontal([comp, comp], {"a": 1, "b": 1})

    def test_zero_component_indexed(self):
        comps = [
            build_diagram(["a", "b"], [["a", "b"]]),
            build_diagram(["c", "d"], [["c", "d"]]),
        ]
        with pytest.raises(ZeroComponent) as info:
            solve_horizontal(comps, {"a": 1, "b": 1, "c": 0, "d": 0})
        assert info.value.index == 1


class TestProduct:
    def test_tennis_weights_and_values(self):
        factors = [
            build_diagram(["a", "c", "b", "d"], [["a", "c"], ["b", "d"]]),
            build_diagram(["e"], [["e"]]),
        ]
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        r = solve_product(factors, freq, diagram=shapes.tennis())
        assert r.p["e"] == Fraction(2, 7)
        assert r.p["a"] == Fraction(5, 28)
        assert r.diagnostics["weights"] == [5 / 7, 2 / 7]

    def test_zero_factor_indexed(self):
        factors = [
            build_diagram(["a", "c", "b", "d"], [["a", "c"], ["b", "d"]]),
            build_diagram(["e"], [["e"]]),
        ]
        with pytest.raises(ZeroFactor) as info:
            solve_product(factors, {"a": 1, "c": 1, "b": 1, "d": 1, "e": 0})
        assert info.value.index == 1


class TestChainQuadratic:
    def test_reference_algebra(self):
        d = shapes.path3()
        r = solve_chain2(detect_chain(d), {x: 1 for x in d.outcomes})
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
        r = solve_chain2(detect_chain(d), freq)
        chain = detect_chain(d)
        for interior in chain.interiors:
            ratios = [freq[x] / float(r.p[x]) for x in interior]
            assert max(ratios) - min(ratios) < 1e-9 * max(ratios)

    def test_requires_three_operations(self):
        with pytest.raises(ValueError):
            solve_chain2(detect_chain(shapes.tennis()), {x: 1 for x in shapes.tennis().outcomes})

    def test_requires_positive_counts(self):
        d = shapes.path3()
        freq = {x: 1 for x in d.outcomes}
        freq["b"] = 0
        with pytest.raises(ValueError, match="positive"):
            solve_chain2(detect_chain(d), freq)

    def test_requires_nonempty_interiors(self):
        d = build_diagram(
            ["a", "y1", "y2", "b"], [["a", "y1"], ["y1", "y2"], ["y2", "b"]]
        )
        with pytest.raises(ValueError, match="interior"):
            solve_chain2(detect_chain(d), {x: 1 for x in d.outcomes})

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
        r = solve_chain2(detect_chain(d), freq)
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


class TestChainGeneral:
    def test_two_operations_exact(self):
        d = shapes.tennis()
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        r = solve_chain_k(detect_chain(d), freq)
        assert r.p["e"] == Fraction(2, 7)
        assert r.p["a"] == Fraction(5, 28)
        assert r.method == "chain-closed"
        assert r.residual == 0.0

    def test_three_operations_delegate(self):
        d = shapes.path3()
        r = solve_chain_k(detect_chain(d), {x: 1 for x in d.outcomes})
        assert r.method == "chain-closed"

    def test_path4_reference_values(self):
        d = shapes.path4()
        r = solve_chain_k(detect_chain(d), {x: 1 for x in d.outcomes})
        assert r.method == "chain-iterative"
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
        c = r.diagnostics["splitting_parameters"]
        assert abs(c[0] - 3 / 7) < 1e-12
        assert abs(c[1] - 1 / 2) < 1e-12
        assert abs(c[2] - 4 / 7) < 1e-12

    def test_path5_matches_numeric(self):
        d = shapes.path5()
        freq = {x: 2 + 3 * (i % 4) for i, x in enumerate(d.outcomes)}
        chain_r = solve_chain_k(detect_chain(d), freq)
        num_r = solve_numeric(d, freq)
        worst = max(abs(float(chain_r.p[x]) - num_r.p[x]) for x in d.outcomes)
        assert worst < 1e-8

    def test_iteration_budget(self):
        d = shapes.path5()
        with pytest.raises(NonConvergence) as info:
            solve_chain_k(
                detect_chain(d),
                {x: 1 for x in d.outcomes},
                config=SolverConfig(max_sweeps=1),
            )
        assert info.value.iterations == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=200), min_size=9, max_size=9))
    def test_path4_agrees_with_numeric(self, values):
        d = shapes.path4()
        freq = dict(zip(d.outcomes, values))
        chain_r = solve_chain_k(detect_chain(d), freq)
        num_r = solve_numeric(d, freq)
        worst = max(abs(float(chain_r.p[x]) - num_r.p[x]) for x in d.outcomes)
        assert worst < 1e-8


class TestExecutePlan:
    def test_zero_component_checked_before_children(self):
        plan = build_plan(shapes.disjoint_pairs())
        with pytest.raises(ZeroComponent) as info:
            execute_plan(plan, {"a": 1, "b": 1, "c": 0, "d": 0})
        assert info.value.index == 1

    def test_zero_factor_surfaces(self):
        plan = build_plan(shapes.tennis())
        with pytest.raises(ZeroFactor):
            execute_plan(plan, {"a": 1, "c": 1, "e": 0, "b": 1, "d": 1})

    def test_error_carries_node_path(self):
        base = shapes.tennis()
        d = build_diagram(
            list(base.outcomes) + ["p", "q"],
            [list(op) for op in base.operations] + [["p", "q"]],
        )
        freq = {"a": 1, "c": 1, "e": 0, "b": 1, "d": 1, "p": 1, "q": 1}
        with pytest.raises(ZeroFactor) as info:
            execute_plan(build_plan(d), freq)
        assert info.value.node_path == "root/sum[0]"


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
        d = shapes.comb()
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

    def test_config_reaches_auto_route(self):
        # Skewed counts on which the numeric solver needs 13 iterations:
        # every route must stop at the configured cap.
        d = shapes.four_cycle()
        freq = {
            "k1": 102568457, "m1": 678, "k2": 599, "m2": 8,
            "k3": 89, "m3": 1, "k4": 8, "m4": 5899,
        }
        config = SolverConfig(max_sweeps=2)
        for method in ("numeric", "auto"):
            with pytest.raises(NonConvergence) as info:
                estimate(d, freq, method=method, config=config)
            assert info.value.iterations == 2, method

    def test_diagnostics_summarize_plan(self):
        d = shapes.path3()
        r = estimate(d, {x: 1 for x in d.outcomes})
        assert r.diagnostics["tree"]["kind"] == "chain"
        assert r.diagnostics["verdict"] == "chain-solvable"

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=5, max_size=5),
        st.integers(min_value=2, max_value=9),
    )
    def test_scale_invariance_exact(self, values, k):
        d = shapes.tennis()
        freq = dict(zip(d.outcomes, values))
        scaled = {x: k * v for x, v in freq.items()}
        assert estimate(d, freq).p == estimate(d, scaled).p


class TestFinishResult:
    def test_infeasible_assignment_is_a_typed_error(self):
        d = shapes.tennis()
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        p = {"a": 0.2, "c": 0.5, "e": 0.2, "b": 0.3, "d": 0.5}  # a + c + e = 0.9
        with pytest.raises(InfeasibleEstimate) as info:
            finish_result(d, freq, p, "product", 0.0)
        assert isinstance(info.value, EstimationError)
        assert info.value.route == "product"
        assert info.value.gap == pytest.approx(0.1)
        assert "via product" in str(info.value)

    def test_out_of_range_probability_rejected(self):
        d = build_diagram(["a", "b"], [["a", "b"]])
        with pytest.raises(InfeasibleEstimate) as info:
            finish_result(d, {"a": 1, "b": 1}, {"a": 1.5, "b": -0.5}, "classical", 0.0)
        assert info.value.gap == pytest.approx(0.5)


class TestResultTypes:
    def test_splitting_parameters_validate_range(self):
        SplittingParameters(c=(0.5, 0.25))
        with pytest.raises(ValueError):
            SplittingParameters(c=(0.0,))
        with pytest.raises(ValueError):
            SplittingParameters(c=(1.0,))

    def test_block_stats_ratio(self):
        stats = BlockStats.gather(
            ["a", "b"], {"a": 2, "b": 4}, {"a": Fraction(1, 4), "b": Fraction(1, 2)}
        )
        assert stats.n_block == 6
        assert stats.ratio == Fraction(8)

    def test_block_stats_zero_mass(self):
        stats = BlockStats.gather(["a"], {"a": 0}, {"a": Fraction(0)})
        with pytest.raises(ZeroDivisionError):
            stats.ratio
