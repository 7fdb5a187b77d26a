"""Feasible-region sampling and the brute-force reference optimizer."""

import numpy as np
import pytest

from greechie_mle import (
    OracleBudget,
    brute_force_mle,
    build_diagram,
    check_probability,
    estimate,
    incidence_matrix,
    log_likelihood,
    nullspace_basis,
    sample_feasible,
    shapes,
    solve_numeric,
)
from greechie_mle import oracle
from tests.conftest import count_calls, random_counts

SMALL = OracleBudget(sample_count=3000, refine_steps=400, rng_seed=5)


def walk_start(d):
    """The walk start brute_force_mle uses: the MLE for unit counts."""
    return solve_numeric(d, {x: 1 for x in d.outcomes}).p


class TestBudget:
    def test_defaults(self):
        budget = OracleBudget()
        assert budget.sample_count == 100_000
        assert budget.rng_seed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleBudget(sample_count=0)
        with pytest.raises(ValueError):
            OracleBudget(refine_steps=0)


class TestNullspace:
    def test_incidence_shape(self):
        d = shapes.path3()
        inc = incidence_matrix(d)
        assert inc.shape == (3, 7)
        assert inc.sum() == sum(len(op) for op in d.operations)

    def test_basis_annihilated_exactly(self):
        for name, d in shapes.all_shapes().items():
            inc = incidence_matrix(d)
            basis = nullspace_basis(d)
            if basis.size:
                assert np.max(np.abs(inc @ basis.T)) == 0.0, name

    def test_dimension_matches_rank(self):
        for d in shapes.all_shapes().values():
            inc = incidence_matrix(d)
            expected = len(d.outcomes) - np.linalg.matrix_rank(inc)
            assert len(nullspace_basis(d)) == expected


class TestInteriorPoint:
    def test_strictly_positive_and_feasible(self):
        for name, d in shapes.all_shapes().items():
            point = walk_start(d)
            assert min(point.values()) > 0.0, name
            assert check_probability(d, point), name

    def test_uniform_on_symmetric_edge(self):
        d = build_diagram(["a", "b", "c"], [["a", "b", "c"]])
        point = walk_start(d)
        for v in point.values():
            assert abs(v - 1 / 3) < 1e-9


class TestSampleFeasible:
    def test_stream_length_and_feasibility(self):
        d = shapes.path3()
        start = walk_start(d)
        samples = list(sample_feasible(d, start, SMALL))
        assert len(samples) == SMALL.sample_count
        for s in samples[:: len(samples) // 50]:
            assert check_probability(d, s)

    def test_deterministic_per_seed(self):
        d = shapes.four_cycle()
        start = walk_start(d)
        a = list(sample_feasible(d, start, SMALL))
        b = list(sample_feasible(d, start, SMALL))
        assert a == b
        other = OracleBudget(sample_count=SMALL.sample_count, rng_seed=6)
        c = list(sample_feasible(d, start, other))
        assert c != a

    @pytest.mark.parametrize(
        "count",
        [
            1,
            oracle._WALKERS - 1,
            oracle._WALKERS + 1,
            oracle._CHUNK,
            oracle._CHUNK + oracle._WALKERS,
            4097,
            10_001,
        ],
    )
    def test_lockstep_stream_length_and_feasibility(self, count):
        d = shapes.four_cycle()
        budget = OracleBudget(sample_count=count, rng_seed=2)
        samples = list(sample_feasible(d, walk_start(d), budget))
        assert len(samples) == count
        points = np.array([[s[x] for x in d.outcomes] for s in samples])
        assert points.min() >= 0.0
        assert np.max(np.abs(points @ incidence_matrix(d).T - 1.0)) <= 1e-9

    def test_first_step_walkers_distinct(self):
        # Each walker is its own column: the first step's points, one per
        # walker, all leave the start in different directions.  A walker
        # column aliased or broadcast to another repeats its points, and
        # one direction shared by all walkers leaves them on one line.
        d = shapes.four_cycle()
        start = walk_start(d)
        budget = OracleBudget(sample_count=oracle._WALKERS, rng_seed=4)
        first = np.array([[s[x] for x in d.outcomes] for s in sample_feasible(d, start, budget)])
        origin = np.array([start[x] for x in d.outcomes])
        assert len(np.unique(first, axis=0)) == oracle._WALKERS
        assert not (first == origin).all(axis=1).any()
        assert np.linalg.matrix_rank(first - origin) == len(nullspace_basis(d))

    def test_lockstep_stream_deterministic_per_seed(self):
        d = shapes.path3()
        start = walk_start(d)
        budget = OracleBudget(sample_count=oracle._CHUNK + 3, rng_seed=9)
        a = list(sample_feasible(d, start, budget))
        assert a == list(sample_feasible(d, start, budget))
        other = OracleBudget(sample_count=budget.sample_count, rng_seed=10)
        assert list(sample_feasible(d, start, other)) != a

    def test_moves_through_the_region(self):
        d = shapes.tennis()
        start = walk_start(d)
        samples = list(sample_feasible(d, start, SMALL))
        spread = max(s["e"] for s in samples) - min(s["e"] for s in samples)
        assert spread > 0.5

    def test_degenerate_polytope(self):
        d = build_diagram(["a"], [["a"]])
        # The walk cannot move: every sample is the one feasible point.
        samples = list(sample_feasible(d, walk_start(d), SMALL))
        assert len(samples) == SMALL.sample_count
        assert all(abs(s["a"] - 1.0) < 1e-9 for s in samples)


class TestBruteForce:
    def test_dominated_by_solver(self, rng):
        for d in (shapes.tennis(), shapes.path3(), shapes.four_cycle()):
            freq = {x: int(v) for x, v in zip(d.outcomes, rng.integers(1, 30, len(d.outcomes)))}
            best = brute_force_mle(d, freq, SMALL)
            solver_ll = estimate(d, freq).log_lik
            oracle_ll = log_likelihood(freq, best)
            assert solver_ll >= oracle_ll - 1e-9

    def test_refinement_approaches_optimum(self):
        d = shapes.tennis()
        freq = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
        budget = OracleBudget(sample_count=20_000, refine_steps=1000, rng_seed=3)
        best = brute_force_mle(d, freq, budget)
        target = estimate(d, freq)
        assert log_likelihood(freq, best) == pytest.approx(target.log_lik, abs=1e-6)

    def test_default_budget_reaches_optimum_on_every_shape(self, rng):
        for name, d in shapes.all_shapes().items():
            freq = random_counts(d, rng, 10, 1000)
            best = brute_force_mle(d, freq)
            assert log_likelihood(freq, best) == pytest.approx(
                estimate(d, freq).log_lik, abs=1e-8
            ), name

    def test_nullspace_computed_once(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle, "nullspace_basis")
        d = shapes.path3()
        brute_force_mle(d, {x: 3 for x in d.outcomes}, SMALL)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unobserved_outcomes_left_out(self):
        # n(e) = 0: walk points with p(e) = 0 must not score 0 * log 0.
        d = shapes.tennis()
        freq = {"a": 1, "c": 3, "e": 0, "b": 1, "d": 2}
        best = brute_force_mle(d, freq, SMALL)
        assert check_probability(d, best)
        assert log_likelihood(freq, best) >= estimate(d, freq).log_lik - 0.05

    def test_degenerate_short_circuit(self):
        d = build_diagram(["a"], [["a"]])
        best = brute_force_mle(d, {"a": 7}, SMALL)
        assert abs(best["a"] - 1.0) < 1e-9
