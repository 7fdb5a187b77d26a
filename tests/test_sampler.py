"""Synthetic count generation: policy validation and determinism.

The frozen vectors pin the exact draw procedure (one uniform pair per
trial, cumulative policy then cumulative member search); any change to
the order of operations shows up here as a count mismatch.  ``replay``
is the documented procedure one trial at a time in plain Python, the
reference the whole-array passes are compared with.
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from greechie_mle import (
    OperationPolicy,
    build_diagram,
    estimate,
    sample_outcomes,
    sampler,
    shapes,
)

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


def replay(diagram, p_true, policy, trial_count, seed):
    """The module docstring's procedure, trial by trial: first j with
    u0 < W_j, then first i with u1 < C_i, the last index absorbing the
    float gap."""
    rows = np.random.Generator(np.random.Philox(seed)).random((trial_count, 2))
    cum_w = list(
        accumulate(float(policy.weights.get(op, 0.0)) for op in diagram.operations)
    )
    counts = dict.fromkeys(diagram.outcomes, 0)
    for u0, u1 in rows.tolist():
        j = next((j for j, w in enumerate(cum_w) if u0 < w), len(cum_w) - 1)
        op = diagram.operations[j]
        sums = accumulate(float(p_true[x]) for x in op)
        i = next((i for i, c in enumerate(sums) if u1 < c), len(op) - 1)
        counts[op[i]] += 1
    return counts


REPLAY_DIAGRAMS = {
    **shapes.all_shapes(),
    "singletons": build_diagram(["a", "b"], [["a"], ["b"]]),
    "with_singleton": build_diagram(["a", "b", "c", "d"], [["a"], ["b", "c", "d"]]),
}


def zero_first_policy(diagram):
    """Weights 0, 1, ..., m - 1, normalised: the first operation is never chosen."""
    m = len(diagram.operations)
    return OperationPolicy.aligned(diagram, [k / (m * (m - 1) / 2) for k in range(m)])


class TestReplay:
    @pytest.mark.parametrize("name", list(REPLAY_DIAGRAMS))
    @pytest.mark.parametrize("make_policy", [OperationPolicy.uniform, zero_first_policy])
    def test_counts_match_replay(self, name, make_policy, monkeypatch):
        d = REPLAY_DIAGRAMS[name]
        rng = np.random.Generator(np.random.Philox(len(name)))
        counts = {x: int(v) for x, v in zip(d.outcomes, rng.integers(1, 50, len(d.outcomes)))}
        p_true = estimate(d, counts).p
        policy = make_policy(d)
        for trial_count in (1, 2, 7, 1000):
            seed = 1000 + trial_count
            assert sample_outcomes(d, p_true, policy, trial_count, seed) == replay(
                d, p_true, policy, trial_count, seed
            )
        expected = replay(d, p_true, policy, 1000, 5)
        for block in (3, 999, 1000, 1001):
            monkeypatch.setattr(sampler, "_BLOCK", block)
            assert sample_outcomes(d, p_true, policy, 1000, 5) == expected

    def test_fixed_rows_follow_the_member_rule(self, monkeypatch):
        # C for (a, b, c) is (0.5, 0.5 - 5e-11, 1): it dips, so for u1 in
        # [0.5 - 5e-11, 0.5) the first i with u1 < C_i is a, and b (p < 0)
        # is never drawn.  Ties go to the next index: u0 = W_0 picks the
        # second operation, u1 = C_0 its second member.
        d = build_diagram(["a", "b", "c", "d", "e"], [["a", "b", "c"], ["d", "e"]])
        p = {"a": 0.5, "b": -5e-11, "c": 0.5 + 5e-11, "d": 0.5, "e": 0.5}
        dip = 0.5 + -5e-11
        rows = np.array([
            [0.25, dip],  # a
            [0.25, np.nextafter(0.5, 0.0)],  # a
            [0.25, 0.5],  # c: C_0 and C_1 are both <= u1
            [0.0, 0.0],  # a
            [0.5, 0.5],  # e
            [0.5, np.nextafter(0.5, 0.0)],  # d
            [np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0)],  # e
        ])

        class FixedRows:
            def __init__(self, bit_generator):
                self.next = 0

            def random(self, shape):
                block = rows[self.next : self.next + shape[0]]
                self.next += shape[0]
                return block

        monkeypatch.setattr(np.random, "Generator", FixedRows)
        policy = OperationPolicy.uniform(d)
        expected = {"a": 3, "b": 0, "c": 1, "d": 1, "e": 2}
        assert sample_outcomes(d, p, policy, len(rows), 0) == expected
        monkeypatch.setattr(sampler, "_BLOCK", 2)
        assert sample_outcomes(d, p, policy, len(rows), 0) == expected

    def test_memory_is_bounded_by_the_block(self):
        d = shapes.comb()
        p = estimate(d, dict.fromkeys(d.outcomes, 1)).p
        policy = OperationPolicy.uniform(d)
        tracemalloc.start()
        try:
            counts = sample_outcomes(d, p, policy, 1_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 1_000_000
        assert peak < 8 * 2**20
