"""Synthetic count generation: policy validation and determinism.

The frozen vectors pin the exact draw procedure (one uniform pair per
trial, cumulative policy then cumulative member search); any change to
the order of operations shows up here as a count mismatch.
"""

import math
from fractions import Fraction

import pytest

from greechie_mle import OperationPolicy, sample_outcomes, shapes

TENNIS_TRUTH = {
    "a": Fraction(5, 28),
    "c": Fraction(15, 28),
    "e": Fraction(2, 7),
    "b": Fraction(5, 21),
    "d": Fraction(10, 21),
}


class TestPolicy:
    def test_uniform(self):
        d = shapes.tennis()
        policy = OperationPolicy.uniform(d)
        assert policy.weights[d.operations[0]] == 0.5

    def test_aligned_order(self):
        d = shapes.tennis()
        policy = OperationPolicy.aligned(d, [0.25, 0.75])
        assert policy.weights[d.operations[1]] == 0.75

    def test_aligned_length_mismatch(self):
        with pytest.raises(ValueError):
            OperationPolicy.aligned(shapes.tennis(), [1.0])

    def test_weights_must_be_distribution(self):
        d = shapes.tennis()
        with pytest.raises(ValueError):
            OperationPolicy.aligned(d, [0.7, 0.7])
        for weights in ([-0.2, 1.2], [math.nan, 1.0], [math.inf, 1.0]):
            with pytest.raises(ValueError):
                OperationPolicy.aligned(d, weights)


class TestSampleOutcomes:
    def test_frozen_vector_even_policy(self):
        d = shapes.tennis()
        policy = OperationPolicy.aligned(d, [0.5, 0.5])
        counts = sample_outcomes(d, TENNIS_TRUTH, policy, 1000, 123)
        assert counts == {"a": 76, "c": 270, "e": 299, "b": 127, "d": 228}

    def test_frozen_vector_uniform_policy(self):
        d = shapes.tennis()
        counts = sample_outcomes(d, TENNIS_TRUTH, OperationPolicy.uniform(d), 500, 9)
        assert counts == {"a": 47, "c": 144, "e": 140, "b": 55, "d": 114}

    def test_deterministic_and_seed_sensitive(self):
        d = shapes.tennis()
        policy = OperationPolicy.uniform(d)
        a = sample_outcomes(d, TENNIS_TRUTH, policy, 1000, 123)
        b = sample_outcomes(d, TENNIS_TRUTH, policy, 1000, 123)
        c = sample_outcomes(d, TENNIS_TRUTH, policy, 1000, 124)
        assert a == b
        assert c != a

    def test_each_trial_yields_one_outcome(self):
        d = shapes.path3()
        p = {x: float(v) for x, v in zip(d.outcomes, (0.3, 0.3, 0.4, 0.2, 0.4, 0.3, 0.3))}
        policy = OperationPolicy.uniform(d)
        counts = sample_outcomes(d, p, policy, 2345, 17)
        assert sum(counts.values()) == 2345
        assert set(counts) == set(d.outcomes)

    def test_zero_probability_never_drawn(self):
        d = shapes.disjoint_pairs()
        p = {"a": 0.0, "b": 1.0, "c": 0.5, "d": 0.5}
        counts = sample_outcomes(d, p, OperationPolicy.uniform(d), 4000, 2)
        assert counts["a"] == 0

    def test_zero_weight_operation_never_chosen(self):
        d = shapes.disjoint_pairs()
        p = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
        policy = OperationPolicy.aligned(d, [1.0, 0.0])
        counts = sample_outcomes(d, p, policy, 4000, 2)
        assert counts["c"] == 0
        assert counts["d"] == 0
        assert counts["a"] + counts["b"] == 4000

    def test_rejects_bad_inputs(self):
        d = shapes.tennis()
        policy = OperationPolicy.uniform(d)
        with pytest.raises(ValueError):
            sample_outcomes(d, TENNIS_TRUTH, policy, 0, 1)
        bad = dict(TENNIS_TRUTH, a=Fraction(1, 2))
        with pytest.raises(ValueError):
            sample_outcomes(d, bad, policy, 10, 1)
        policy.weights[d.operations[0]] = math.nan  # after validation
        with pytest.raises(ValueError, match="policy"):
            sample_outcomes(d, TENNIS_TRUTH, policy, 10, 1)

    def test_estimates_recover_truth(self):
        # Statistical round trip at a seeded sample size; errors scale
        # like 1/sqrt(n), so 0.02 leaves a wide margin at n = 20000.
        from greechie_mle import estimate

        d = shapes.tennis()
        policy = OperationPolicy.aligned(d, [0.5, 0.5])
        counts = sample_outcomes(d, TENNIS_TRUTH, policy, 20_000, 31)
        r = estimate(d, counts)
        for x, truth in TENNIS_TRUTH.items():
            assert abs(float(r.p[x]) - float(truth)) < 0.02
