"""Acceptance suite: one test per shipped guarantee.

Each test states a user-facing contract of the package and checks it at
the advertised tolerance, so `pytest -v tests/test_acceptance.py` reads
as a pass/fail line per guarantee.  Budgeted tests assert their own
wall-clock limits.
"""

import time
from fractions import Fraction

import numpy as np

from greechie_mle import (
    OracleBudget,
    brute_force_mle,
    build_diagram,
    check_g1,
    check_g2,
    detect_chain,
    estimate,
    log_likelihood,
    reduce_zero_counts,
    solve_chain_k,
    solve_classical,
    solve_numeric,
)
from greechie_mle.sampler import OperationPolicy, sample_outcomes
from greechie_mle.shapes import (
    all_shapes,
    closed_form_shapes,
    g1_violation,
    four_cycle,
    tennis,
    path3,
    triangle,
)
from tests.conftest import random_counts

SEED = 20260817

TENNIS_COUNTS = {"a": 10, "c": 30, "e": 40, "b": 20, "d": 40}
TENNIS_TRUTH = {
    "a": Fraction(5, 28),
    "c": Fraction(15, 28),
    "e": Fraction(2, 7),
    "b": Fraction(5, 21),
    "d": Fraction(10, 21),
}


def test_criterion_1_classical_exact_rationals():
    rng = np.random.Generator(np.random.Philox(SEED))
    start = time.perf_counter()
    for _ in range(100):
        size = int(rng.integers(2, 11))
        names = [f"x{i}" for i in range(size)]
        diagram = build_diagram(names, [names])
        counts = {x: int(rng.integers(0, 1000)) for x in names}
        if sum(counts.values()) == 0:
            counts[names[0]] = 1
        total = sum(counts.values())
        result = solve_classical(diagram, counts)
        for x in names:
            assert result.p[x] == Fraction(counts[x], total)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_overlapping_pair_exact_values():
    result = estimate(tennis(), TENNIS_COUNTS)
    assert result.p == TENNIS_TRUTH
    p = result.p
    assert Fraction(10) / p["a"] == Fraction(30) / p["c"]
    assert Fraction(20) / p["b"] == Fraction(40) / p["d"]


def test_criterion_3_chain_quadratic_closed_form():
    diagram = path3()
    unit = {x: 1 for x in diagram.outcomes}
    result = estimate(diagram, unit)
    shared = (3.0 - np.sqrt(2.0)) / 7.0
    assert abs(float(result.p["y1"]) - shared) < 1e-12
    assert abs(float(result.p["y2"]) - shared) < 1e-12
    split = result.diagnostics["splitting_parameters"]
    assert len(split) == 2
    for c in split:
        assert abs(float(c) - (np.sqrt(2.0) - 1.0)) < 1e-12

    # The quadratic keeps exactly one root in (0, 1) for every positive
    # count vector; solve_chain_k raises otherwise, so success is proof.
    chain = detect_chain(diagram)
    rng = np.random.Generator(np.random.Philox(SEED + 3))
    for _ in range(10_000):
        counts = {x: int(rng.integers(1, 1000)) for x in diagram.outcomes}
        res = solve_chain_k(chain, counts, diagram=diagram)
        for c in res.diagnostics["splitting_parameters"]:
            assert 0.0 < c < 1.0


def test_criterion_4_cross_solver_agreement():
    rng = np.random.Generator(np.random.Philox(SEED + 4))
    start = time.perf_counter()
    for diagram in closed_form_shapes().values():
        for _ in range(50):
            counts = random_counts(diagram, rng)
            closed = estimate(diagram, counts, method="closed")
            numeric = estimate(diagram, counts, method="numeric")
            for x in diagram.outcomes:
                assert abs(float(closed.p[x]) - float(numeric.p[x])) < 1e-8
    assert time.perf_counter() - start < 30.0


def test_criterion_5_oracle_dominance():
    rng = np.random.Generator(np.random.Philox(SEED + 5))
    start = time.perf_counter()
    run = 0
    for diagram in all_shapes().values():
        for _ in range(20):
            run += 1
            counts = random_counts(diagram, rng, 1, 30)
            solver = estimate(diagram, counts)
            budget = OracleBudget(sample_count=100_000, rng_seed=run)
            best = brute_force_mle(diagram, counts, budget)
            assert (
                log_likelihood(counts, solver.p)
                >= log_likelihood(counts, best) - 1e-9
            )
    assert time.perf_counter() - start < 300.0


def test_criterion_6_feasibility_and_certificates():
    rng = np.random.Generator(np.random.Philox(SEED + 6))
    closed_names = set(closed_form_shapes())
    for name, diagram in all_shapes().items():
        counts = random_counts(diagram, rng)
        if name in closed_names:
            closed = estimate(diagram, counts, method="closed")
            for op in diagram.operations:
                gap = abs(sum(float(closed.p[x]) for x in op) - 1.0)
                assert gap <= 1e-10
        numeric = estimate(diagram, counts, method="numeric")
        for op in diagram.operations:
            gap = abs(sum(float(numeric.p[x]) for x in op) - 1.0)
            assert gap <= 1e-9
        assert numeric.residual < 1e-10


def test_criterion_7_sampling_round_trip():
    diagram = tennis()
    policy = OperationPolicy.aligned(diagram, [0.5, 0.5])
    counts = sample_outcomes(diagram, TENNIS_TRUTH, policy, 100_000, seed=SEED)
    assert counts == sample_outcomes(
        diagram, TENNIS_TRUTH, policy, 100_000, seed=SEED
    )
    result = estimate(diagram, counts)
    for x, truth in TENNIS_TRUTH.items():
        assert abs(float(result.p[x]) - float(truth)) < 0.01


def test_criterion_8_structural_validation():
    assert not check_g2(triangle(), target="omp").passed
    assert check_g2(four_cycle(), target="omp").passed
    assert not check_g2(four_cycle(), target="oml").passed
    for diagram in all_shapes().values():
        assert check_g1(diagram).passed
    assert not check_g1(g1_violation()).passed


def test_criterion_9_zero_count_reduction():
    rng = np.random.Generator(np.random.Philox(SEED + 9))
    for diagram in all_shapes().values():
        counts = random_counts(diagram, rng, 1, 30)
        zeroed = diagram.outcomes[0]
        counts[zeroed] = 0
        result = estimate(diagram, counts)
        assert result.p[zeroed] == 0
        reduction = reduce_zero_counts(diagram, counts)
        direct = solve_numeric(reduction.diagram, reduction.freq)
        for x in reduction.diagram.outcomes:
            assert abs(float(result.p[x]) - float(direct.p[x])) < 1e-8
