"""General solver: convergence, certificates, dual-variable behavior."""

import random
import warnings
from decimal import Decimal

import numpy as np
import pytest

from greechie_mle import (
    numeric,
    NonConvergence,
    build_diagram,
    estimate,
    kkt_residual,
    shapes,
    solve_numeric,
)
from tests.conftest import count_calls, cycle_diagram, pair_ring, random_counts
from tests.reference import reference_optimum


class TestConfig:
    def test_defaults(self):
        assert numeric._MAX_ITERATIONS == 200


class TestSolveNumeric:
    def test_rejects_negative_counts(self):
        d = shapes.tennis()
        freq = {x: 1 for x in d.outcomes}
        freq["e"] = -1
        with pytest.raises(ValueError, match="nonnegative"):
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

    def test_skewed_shapes_converge_fast(self):
        # Counts over nine decades make the full Newton step overshoot,
        # so p and sigma each step by the fraction-to-the-boundary rule;
        # the iteration still closes the gap in a few steps on every
        # reference shape.
        rng = random.Random("descent")
        for name, d in shapes.all_shapes().items():
            for _ in range(20):
                freq = {x: int(10 ** rng.uniform(0, 9)) for x in d.outcomes}
                r = solve_numeric(d, freq)
                assert r.diagnostics["sweeps"] <= 12, (name, freq)
                assert r.residual <= 1e-10, (name, freq)

    def test_deterministic(self):
        d = shapes.four_cycle()
        freq = {x: 3 + i for i, x in enumerate(d.outcomes)}
        a = solve_numeric(d, freq)
        b = solve_numeric(d, freq)
        assert a.p == b.p
        assert a.diagnostics["sweeps"] == b.diagnostics["sweeps"]

    def test_sweep_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(numeric, "_MAX_ITERATIONS", 1)
        d = shapes.four_cycle()
        freq = {x: 3 + i for i, x in enumerate(d.outcomes)}
        with pytest.raises(NonConvergence) as info:
            solve_numeric(d, freq)
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

    def test_singular_hessian(self, rng, monkeypatch):
        # The operations of an even polygon of pairs are linearly
        # dependent (their alternating sum is zero), so the dual is flat
        # along one direction; with unit counts the optimum puts 1/2 on
        # every outcome.  The hexagon takes the dense solve, the 256-gon
        # the banded one.
        for k in (6, 256):
            d = pair_ring(k)
            banded = count_calls(monkeypatch, numeric, "_band_solve")
            r = solve_numeric(d, {x: 1 for x in d.outcomes})
            assert bool(banded) == (k == 256)
            for x in d.outcomes:
                assert abs(r.p[x] - 0.5) < 1e-12
            assert r.residual < 1e-12
            assert solve_numeric(d, random_counts(d, rng, 1, 1000)).residual <= 1e-10

    def test_rank_deficient_product_matches_closed(self):
        d = build_diagram(["a", "b", "c", "d"], [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])
        freq = {"a": 3, "b": 1, "c": 7, "d": 2}
        exact = estimate(d, freq)
        r = solve_numeric(d, freq)
        for x in d.outcomes:
            assert abs(float(exact.p[x]) - r.p[x]) < 1e-12, x

    def test_no_positive_feasible_point_dense_path_is_quiet(self, monkeypatch):
        # {o3} forces o3 = 1, so the two operations through o3 leave 0 to
        # every other outcome and {o1,o0} cannot sum to 1.  The iterates
        # drive some sigma(x) towards 0; the dense solve must report that
        # as NonConvergence at the iteration cap, without numpy warnings.
        names = [f"o{i}" for i in range(5)]
        d = build_diagram(
            names,
            [
                ["o4", "o3", "o2", "o0"],
                ["o1", "o3", "o0", "o2"],
                ["o1", "o4", "o0"],
                ["o1", "o0"],
                ["o1", "o4", "o2", "o0"],
                ["o3"],
                ["o2", "o0"],
            ],
        )
        freq = {"o0": 32, "o1": 1, "o2": 4, "o3": 35, "o4": 5}
        banded = count_calls(monkeypatch, numeric, "_band_solve")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence) as info:
                estimate(d, freq)
        assert info.value.iterations == numeric._MAX_ITERATIONS
        assert banded == []


class TestBandedSolve:
    """The Newton system is solved on its band after Cuthill-McKee
    ordering when the bandwidth is small against the operation count,
    and densely otherwise; both solves must walk the same iterates."""

    SHAPES = {
        "chain128": lambda: shapes.chain_path([2] * 128),
        "cycle128": lambda: cycle_diagram(128),
        "comb": shapes.comb,
        "four_cycle": shapes.four_cycle,
    }

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_dense_and_banded_agree(self, name, rng, monkeypatch):
        d = self.SHAPES[name]()
        freq = random_counts(d, rng, 1, 1000)
        results = []
        for ratio in (0, 10**9):  # every bandwidth banded, then none
            monkeypatch.setattr(numeric, "_BAND_RATIO", ratio)
            banded = count_calls(monkeypatch, numeric, "_band_solve")
            results.append(solve_numeric(d, freq))
            assert bool(banded) == (ratio == 0)
        band, dense = results
        assert band.diagnostics["sweeps"] == dense.diagnostics["sweeps"]
        assert max(abs(band.p[x] - dense.p[x]) for x in d.outcomes) < 1e-12
        assert band.residual <= 1e-10

    def test_bandwidth_rule(self, monkeypatch):
        # (b + 1) * _BAND_RATIO <= m takes the band: a chain has b = 1 and
        # a cycle b = 2 after ordering; a star of 200 operations through
        # one outcome has b = 199, and the reference shapes are too small.
        star = build_diagram(
            ["c"] + [f"x{j}" for j in range(200)], [["c", f"x{j}"] for j in range(200)]
        )
        cases = [
            (shapes.chain_path([2] * 64), 1),
            (cycle_diagram(128), 2),
            (cycle_diagram(95), None),
            (star, None),
            (shapes.comb(), None),
            (shapes.four_cycle(), None),
        ]
        for d, width in cases:
            banded = count_calls(monkeypatch, numeric, "_band_solve")
            r = solve_numeric(d, {x: 1 for x in d.outcomes})
            assert r.residual <= 1e-10
            widths = {args[0].shape[1] - 1 for args in banded}
            assert widths == ({width} if width else set()), d.operations[:2]

    def test_sweeps_unchanged(self, rng, monkeypatch):
        # The iteration counts of both solves on these inputs.
        default = numeric._BAND_RATIO
        for d, sweeps in ((shapes.chain_path([2] * 512), 6), (cycle_diagram(512), 7)):
            freq = random_counts(d, rng, 1, 1000)
            for ratio in (default, 10**9):  # banded, then dense
                monkeypatch.setattr(numeric, "_BAND_RATIO", ratio)
                banded = count_calls(monkeypatch, numeric, "_band_solve")
                r = solve_numeric(d, freq)
                assert bool(banded) == (ratio == default)
                assert r.diagnostics["sweeps"] == sweeps
                assert r.residual <= 1e-10

    def test_no_positive_feasible_point_is_typed(self, monkeypatch):
        # {x0}, {x0,x1}, ..., {x126,x127}, {x127} forces x0 = 1, x1 = 0,
        # and so on: the dual falls without bound along the iterates.
        names = [f"x{i}" for i in range(128)]
        d = build_diagram(
            names, [["x0"]] + [[names[i], names[i + 1]] for i in range(127)] + [["x127"]]
        )
        freq = {x: 1 + i % 5 for i, x in enumerate(names)}
        banded = count_calls(monkeypatch, numeric, "_band_solve")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence) as info:
                solve_numeric(d, freq)
        assert info.value.iterations == numeric._MAX_ITERATIONS
        assert len(banded) == numeric._MAX_ITERATIONS

    def test_non_finite_step_is_not_taken(self, monkeypatch):
        # A NaN step must end the solve with the last finite gap and the
        # iterations taken so far, before it reaches p or sigma.
        monkeypatch.setattr(numeric, "_band_solve", lambda band, rhs: np.full(len(rhs), np.nan))
        d = cycle_diagram(128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence) as info:
                solve_numeric(d, {x: 1 for x in d.outcomes})
        assert info.value.iterations == 0
        assert info.value.residual == pytest.approx(1 / 3)

    def test_band_solve_rejects_bad_diagonal(self):
        # p and sigma stay positive, so a zero, infinite or NaN Hessian
        # diagonal needs p / sigma to underflow or overflow.  The step
        # must then be NaN, which the solver reports as NonConvergence,
        # never a ZeroDivisionError.
        for bad in (0.0, -1.0, np.inf, np.nan):
            band = np.array([[0.0, 2.0], [1.0, bad], [1.0, 2.0]])
            assert np.isnan(numeric._band_solve(band, np.ones(3))).all()


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

    @pytest.mark.parametrize(
        "name", ["path3", "path3_wide", "path4", "path5", "four_cycle", "comb"]
    )
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


    @pytest.mark.parametrize("k", [64, 256])
    def test_even_polygon_over_nine_decades(self, k, monkeypatch):
        # sigma(x_j) = lambda_(j-1) + lambda_j, and the multipliers of a
        # ring of pairs {x_j, x_(j+1)} are free along the alternating
        # direction, so they grow large against the sums the solver needs.
        # The 64-gon takes the dense solve, the 256-gon the band.
        # The 256-gon also takes one draw of moderate counts on which a
        # line search on the dual reached its rounding floor above tol.
        d = pair_ring(k)
        rng = random.Random(f"skewed/polygon{k}")
        draws = [{x: int(10 ** rng.uniform(0, 9)) for x in d.outcomes} for _ in range(5)]
        if k == 256:
            moderate = random.Random("ring256")
            [moderate.randint(1, 1000) for x in d.outcomes]  # skip the first draw
            draws.append({x: moderate.randint(1, 1000) for x in d.outcomes})
        banded = count_calls(monkeypatch, numeric, "_band_solve")
        for freq in draws:
            r = solve_numeric(d, freq)
            assert r.residual <= 1e-10, freq
            for op in d.operations:
                assert abs(r.p[op[0]] + r.p[op[1]] - 1.0) <= 1e-10, freq
        assert bool(banded) == (k == 256)


# Skewed inputs whose solves a 50-digit reference checks: a line search
# on the dual left the 512-cycle 2.3e-10 from its optimum and stopped
# on the 1024-cycle at its iteration cap.  The bound is tighter than the
# 1e-10 those misses broke: a sigma carried through every step, never
# re-summed from the multipliers, leaves the 512-cycle 3.2e-11 away.
REFERENCE_INPUTS = {
    "cycle512": (lambda: cycle_diagram(512), "cycle512/skewed"),
    "cycle1024": (lambda: cycle_diagram(1024), "cycle1024/skewed"),
    "polygon64": (lambda: pair_ring(64), "gon64/skewed"),
    "polygon256": (lambda: pair_ring(256), "gon256/skewed"),
    "comb": (shapes.comb, "comb/skewed"),
}


@pytest.mark.parametrize("name", list(REFERENCE_INPUTS))
def test_skewed_solves_match_50_digit_reference(name):
    make, seed = REFERENCE_INPUTS[name]
    d = make()
    rng = random.Random(seed)
    freq = {x: int(10 ** rng.uniform(0, 9)) or 1 for x in d.outcomes}
    r = solve_numeric(d, freq)
    best = reference_optimum(d, freq, r.diagnostics["multipliers"])
    worst = max(abs(float(best[x] - Decimal(r.p[x]))) for x in d.outcomes)
    assert worst <= 1e-12


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
