"""General solver: convergence, certificates, dual-variable behavior.

The per-iteration dual record doubles as an empirical check of the
descent property: every accepted Newton step passes an Armijo test on
the exact change of the dual, so the recorded dual values never rise.
"""

import random

import numpy as np
import pytest

from greechie_mle import (
    NonConvergence,
    build_diagram,
    SolverConfig,
    estimate,
    kkt_residual,
    shapes,
    solve_numeric,
)
from tests.conftest import random_counts


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.kkt_tolerance == 1e-10
        assert cfg.max_sweeps == 200

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(kkt_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(kkt_tolerance=-1e-9)
        with pytest.raises(ValueError):
            SolverConfig(max_sweeps=0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(kkt_tolerance=tol)


class TestSolveNumeric:
    def test_requires_positive_counts(self):
        d = shapes.tennis()
        freq = {x: 1 for x in d.outcomes}
        freq["e"] = 0
        with pytest.raises(ValueError, match="positive"):
            solve_numeric(d, freq)

    def test_single_edge_matches_empirical(self):
        d = shapes.tennis()
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        r = solve_numeric(d, freq)
        assert r.method == "numeric"
        assert abs(r.p["e"] - 2 / 7) < 1e-9
        assert abs(r.p["a"] - 5 / 28) < 1e-9
        assert r.residual < 1e-10

    def test_agrees_with_closed_forms(self, rng):
        for name, d in shapes.closed_form_shapes().items():
            for _ in range(3):
                freq = random_counts(d, rng)
                exact = estimate(d, freq, method="closed")
                numeric = solve_numeric(d, freq)
                worst = max(abs(float(exact.p[x]) - numeric.p[x]) for x in d.outcomes)
                assert worst < 1e-8, name

    def test_four_cycle_symmetric_optimum(self):
        d = shapes.four_cycle()
        r = solve_numeric(d, {x: 1 for x in d.outcomes})
        for x in d.outcomes:
            target = 0.25 if x.startswith("k") else 0.5
            assert abs(r.p[x] - target) < 1e-9, x

    def test_negative_multiplier_reached(self):
        # Heavy interior counts on the teeth starve the spine: its
        # multiplier must go negative for the shared outcomes to keep
        # n(x)/p(x) consistent across operations.
        d = shapes.comb()
        freq = {x: (1 if x.startswith("t") else 100) for x in d.outcomes}
        r = solve_numeric(d, freq)
        multipliers = r.diagnostics["multipliers"]
        assert multipliers[0] < 0.0
        assert r.residual < 1e-10

    def test_sweep_dual_never_increases(self, rng):
        # Each accepted Newton step decreases the dual objective, so the
        # recorded dual values must come down iteration over iteration.
        # The primal surrogate in sweep_loglik carries no such
        # guarantee: before the iterate is feasible it can overshoot the
        # optimum and fall back.
        for d in shapes.all_shapes().values():
            freq = random_counts(d, rng, low=1, high=200)
            r = solve_numeric(d, freq)
            dual = r.diagnostics["sweep_dual"]
            scale = max(1.0, abs(dual[-1]))
            for earlier, later in zip(dual, dual[1:]):
                assert later <= earlier + 1e-12 * scale

    def test_sweep_records_cover_every_sweep(self):
        d = shapes.comb()
        freq = {x: (1 if x.startswith("t") else 100) for x in d.outcomes}
        r = solve_numeric(d, freq)
        track = r.diagnostics["sweep_loglik"]
        # One record at the start point, then one per iteration.
        assert len(track) == r.diagnostics["sweeps"] + 1
        assert len(r.diagnostics["sweep_dual"]) == len(track)
        assert track[-1] == pytest.approx(r.log_lik, abs=1e-9)

    def test_deterministic(self):
        d = shapes.four_cycle()
        freq = {x: 3 + i for i, x in enumerate(d.outcomes)}
        a = solve_numeric(d, freq)
        b = solve_numeric(d, freq)
        assert a.p == b.p
        assert a.diagnostics["sweeps"] == b.diagnostics["sweeps"]

    def test_sweep_budget_exhaustion(self):
        d = shapes.four_cycle()
        freq = {x: 3 + i for i, x in enumerate(d.outcomes)}
        with pytest.raises(NonConvergence) as info:
            solve_numeric(d, freq, SolverConfig(max_sweeps=1))
        assert info.value.iterations == 1

    def test_multipliers_certify_the_point(self):
        # p(x) = n(x) / sigma(x), sigma(x) summing the multipliers of the
        # operations containing x: every sigma is positive even where a
        # multiplier is negative.
        d = shapes.comb()
        freq = {x: (1 if x.startswith("t") else 100) for x in d.outcomes}
        r = solve_numeric(d, freq)
        lam = r.diagnostics["multipliers"]
        for x in d.outcomes:
            sigma = sum(lam[j] for j in d.edges_of[x])
            assert sigma > 0, x
            assert r.p[x] * sigma / freq[x] == pytest.approx(1.0, abs=1e-12), x

    def test_singular_hessian(self):
        # The operations of a hexagon of pairs are linearly dependent
        # (their alternating sum is zero), so the dual is flat along one
        # direction; the optimum puts 1/2 on every outcome.
        names = [f"x{i}" for i in range(6)]
        d = build_diagram(names, [[names[i], names[(i + 1) % 6]] for i in range(6)])
        r = solve_numeric(d, {x: 1 for x in names})
        for x in names:
            assert abs(r.p[x] - 0.5) < 1e-12
        assert r.residual < 1e-12

    def test_rank_deficient_product_matches_closed(self):
        d = build_diagram(["a", "b", "c", "d"], [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])
        freq = {"a": 3, "b": 1, "c": 7, "d": 2}
        exact = estimate(d, freq)
        r = solve_numeric(d, freq)
        for x in d.outcomes:
            assert abs(float(exact.p[x]) - r.p[x]) < 1e-12, x


# Counts from the defect reports that stalled or failed the solvers this
# one replaced, each with the Newton iterations it now needs.
STALLED_INPUTS = [
    ("comb", {"t1": 24, "t2": 9, "t3": 24, "u1": 1, "v1": 523328,
              "u2": 3, "v2": 19034, "u3": 628034, "v3": 52805}),
    ("four_cycle", {"k1": 102568457, "m1": 678, "k2": 599, "m2": 8,
                    "k3": 89, "m3": 1, "k4": 8, "m4": 5899}),
    ("path4", {"a1": 2, "a2": 1, "y1": 7285885, "b": 33937, "y2": 103808096,
               "c": 752031, "y3": 95, "d1": 456, "d2": 1}),
]


class TestSkewedCounts:
    @pytest.mark.parametrize("name,freq", STALLED_INPUTS, ids=[n for n, _ in STALLED_INPUTS])
    def test_stalled_inputs_solve(self, name, freq):
        d = getattr(shapes, name)()
        r = estimate(d, freq)
        assert r.diagnostics["sweeps"] <= 25
        assert r.residual <= 1e-10
        for op in d.operations:
            assert abs(sum(float(r.p[x]) for x in op) - 1.0) <= 1e-10

    @pytest.mark.parametrize("name", ["path3", "path3_wide", "path4", "path5", "four_cycle"])
    def test_counts_over_nine_decades(self, name):
        d = getattr(shapes, name)()
        rng = random.Random(f"skewed/{name}")
        for _ in range(40):
            freq = {x: int(10 ** rng.uniform(0, 9)) for x in d.outcomes}
            auto = estimate(d, freq)
            numeric = estimate(d, freq, method="numeric")
            for r in (auto, numeric):
                assert r.residual <= 1e-10, freq
                for op in d.operations:
                    assert abs(sum(float(r.p[x]) for x in op) - 1.0) <= 1e-10, freq
            worst = max(abs(float(auto.p[x]) - numeric.p[x]) for x in d.outcomes)
            assert worst < 1e-8, freq


class TestKktResidual:
    def test_zero_at_exact_optimum(self):
        d = shapes.tennis()
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        p = {x: float(v) for x, v in estimate(d, freq).p.items()}
        assert kkt_residual(d, freq, p) < 1e-12

    def test_grows_away_from_optimum(self):
        d = shapes.tennis()
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        p = {x: float(v) for x, v in estimate(d, freq).p.items()}
        base = kkt_residual(d, freq, p)
        worse = dict(p)
        worse["a"] += 0.05
        worse["c"] -= 0.05
        assert kkt_residual(d, freq, worse) > max(base, 1e-3)

    def test_rejects_zero_probability_on_observed(self):
        d = shapes.tennis()
        freq = {x: 1 for x in d.outcomes}
        p = {x: 0.2 for x in d.outcomes}
        p["a"] = 0.0
        with pytest.raises(ValueError):
            kkt_residual(d, freq, p)


def test_numeric_handles_reduced_thin_shapes():
    # Shapes that violate the separation rule still have a unique MLE;
    # the solver must not depend on validity.
    d = shapes.thin_path3()
    freq = {"a": 5, "y1": 1, "b": 4, "y2": 2, "c": 3}
    r = solve_numeric(d, freq)
    for op in d.operations:
        assert abs(sum(r.p[x] for x in op) - 1.0) < 1e-9

    g = shapes.g1_violation()
    freq2 = {"a": 2, "b": 3, "c": 5}
    r2 = solve_numeric(g, freq2)
    assert abs(r2.p["a"] - 0.2) < 1e-9
    assert abs(r2.p["b"] - 0.8) < 1e-9
    assert abs(r2.p["c"] - 0.8) < 1e-9
