"""Synthetic outcome sequences from a known assignment.

Each trial first picks an operation according to a fixed policy, then
draws one of its outcomes from the true assignment restricted to that
operation (which already sums to one, so no renormalization happens).
Estimator-consistency experiments replay such counts through the
solvers and compare against the truth.

Reproducibility contract: the generator is Philox (4x64, 10 rounds,
numpy's counter-based default) keyed with the given seed, and the
procedure consumes exactly ``2 * trial_count`` doubles in row order, the
same doubles as one C-order (trial_count, 2) draw:

1. u0, u1 = the trial's row.
2. operation = first index j with u0 < W_j, where W_j is the running
   sum of the policy weights in operation declaration order.
3. outcome = first member index i with u1 < C_i, where C_i is the
   running sum of the true probabilities over the chosen operation's
   members in declaration order (the last member absorbs the float gap
   when u1 falls beyond the final running sum).

Any reimplementation following these steps byte-for-byte reproduces the
counts.  Parallel batches must not share a seed; split streams with the
generator's documented jump function (numpy: ``Philox(seed).jumped(k)``
for worker k) or use disjoint seeds.

The rows are drawn in blocks of ``_BLOCK``, which bounds memory, and
each block is counted in a few whole-array passes: one search of u0
against the W_j, then, for each member index i below the widest
operation's last, a gather of every trial's C_i from a table (+inf
from its operation's last member on), compared with u1.  The member is
the number of leading C_i <= u1, which is step 3's rule even where a
running sum dips below the one before it; one ``bincount`` of
(operation, member) pairs gives the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

import numpy as np

from .diagram import (
    FrequencyTable,
    GreechieDiagram,
    Operation,
    ProbabilityAssignment,
    check_probability,
)

_WEIGHT_TOL = 1e-12
_BLOCK = 1 << 16  # trial rows drawn and counted at a time


@dataclass(frozen=True)
class OperationPolicy:
    """Probability of choosing each operation for the next trial."""

    weights: Mapping[Operation, float]

    def __post_init__(self) -> None:
        total = 0.0
        for op, w in self.weights.items():
            if not w >= 0:  # NaN fails this too
                raise ValueError(f"policy weight {w!r} for {op!r} is not nonnegative")
            total += w
        if not abs(total - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"policy weights sum to {total!r}, not 1")

    @classmethod
    def uniform(cls, diagram: GreechieDiagram) -> "OperationPolicy":
        m = len(diagram.operations)
        return cls(weights={op: 1.0 / m for op in diagram.operations})

    @classmethod
    def aligned(
        cls, diagram: GreechieDiagram, weights: "list[float]"
    ) -> "OperationPolicy":
        """Weights given in operation declaration order."""
        if len(weights) != len(diagram.operations):
            raise ValueError(
                f"expected {len(diagram.operations)} weights, got {len(weights)}"
            )
        return cls(weights=dict(zip(diagram.operations, map(float, weights))))


def sample_outcomes(
    diagram: GreechieDiagram,
    p_true: ProbabilityAssignment,
    policy: OperationPolicy,
    trial_count: int,
    seed: int,
) -> FrequencyTable:
    """Simulate trial_count trials; returns counts over all outcomes.

    The total count equals trial_count, outcomes appearing in no
    positive-weight operation stay at zero, and the output is
    bit-identical across runs and platforms for a fixed seed (see the
    module docstring for the exact procedure)."""
    if trial_count < 1:
        raise ValueError("trial_count must be at least 1")
    if not check_probability(diagram, p_true):
        raise ValueError("p_true is not a valid probability assignment")
    weight_vec = np.array(
        [float(policy.weights.get(op, 0.0)) for op in diagram.operations]
    )
    total = float(weight_vec.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(
            f"policy weights of this diagram's operations sum to {total!r}, not 1"
        )

    operations = diagram.operations
    m = len(operations)
    width = max(map(len, operations))
    cum_w = np.cumsum(weight_vec)
    table = np.array(
        [
            [*accumulate(float(p_true[x]) for x in op[:-1])]
            + [np.inf] * (width - len(op))
            for op in operations
        ]
    ).T

    rng = np.random.Generator(np.random.Philox(seed))
    tally = np.zeros(m * width, dtype=np.int64)
    for start in range(0, trial_count, _BLOCK):
        u = rng.random((min(_BLOCK, trial_count - start), 2))
        chosen = np.searchsorted(cum_w, u[:, 0], side="right")
        np.minimum(chosen, m - 1, out=chosen)
        u1 = u[:, 1]
        member = chosen * width
        leading = np.ones(len(u), dtype=bool)
        for row in table:
            leading &= row[chosen] <= u1
            member += leading
        tally += np.bincount(member, minlength=m * width)

    counts = {x: 0 for x in diagram.outcomes}
    for op, hits in zip(operations, tally.reshape(m, width).tolist()):
        for x, n in zip(op, hits):
            counts[x] += n
    return counts
