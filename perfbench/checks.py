"""Output checks computed apart from the program.

Every check here works from the problem data (outcomes, operations,
counts) and the returned assignment only.  None of it calls into
``greechie_mle``: the likelihood, the operation sums and the optimality
bound are all recomputed by the benchmark.

The optimality bound is weak duality.  For multipliers lam (one per
operation) with sigma = A^T lam > 0 on every observed outcome,

    l* <= sum_B lam_B + sum_{n(x)>0} n(x) (ln n(x) - ln sigma(x) - 1)
                      + sum_{n(x)=0} max(0, -sigma(x)),

where the last sum uses p(x) <= 1 on the feasible set.  The benchmark
fits lam to the stationarity equations n(x)/p(x) = sigma(x) at the
returned p, so the gap (bound - l(p)) / N is small only when p is close
to the maximiser, whatever route produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

SUM_TOL = 1e-9  # every operation total within this of 1
GAP_TOL = 1e-9  # weak-duality gap, relative to the total count N
DOMINANCE_SLACK = 1e-9  # l(solver) >= l(oracle) - slack


@dataclass(frozen=True)
class Problem:
    """Outcomes and operations of one diagram, as the benchmark sees them."""

    outcomes: tuple[str, ...]
    operations: tuple[tuple[str, ...], ...]

    def edges_of(self, x: str) -> list[int]:
        return [j for j, op in enumerate(self.operations) if x in op]


def log_lik(counts: Mapping[str, int], p: Mapping[str, object]) -> float:
    """sum n(x) ln p(x) over observed outcomes; -inf if one has p = 0."""
    terms = []
    for x, n in counts.items():
        if n:
            v = float(p[x])
            if v <= 0.0:
                return -math.inf
            terms.append(n * math.log(v))
    return math.fsum(terms)


def feasibility_problems(
    problem: Problem, p: Mapping[str, object], tol: float = SUM_TOL
) -> list[str]:
    """Domain, sign and operation-sum checks.  Operations whose values
    are all Fractions must sum to exactly 1."""
    if set(p) != set(problem.outcomes):
        return [f"assignment covers {len(p)} keys, not the {len(problem.outcomes)} outcomes"]
    out = [f"p({x}) = {float(v)!r} < 0" for x, v in p.items() if v < 0]
    for j, op in enumerate(problem.operations):
        values = [p[x] for x in op]
        if all(isinstance(v, Fraction) for v in values):
            total = sum(values, Fraction(0))
            if total != 1:
                out.append(f"operation {j} sums to {total} in exact arithmetic")
        else:
            total = math.fsum(float(v) for v in values)
            if abs(total - 1.0) > tol:
                out.append(f"operation {j} sums to {total!r}")
    return out


def duality_gap(
    problem: Problem, counts: Mapping[str, int], p: Mapping[str, object]
) -> float:
    """(weak-duality bound - l(p)) / N with multipliers fitted at p.

    Returns inf when the fitted multipliers leave sigma <= 0 on an
    observed outcome, or p = 0 on one: no bound is certified then."""
    observed = [x for x in problem.outcomes if counts[x] > 0]
    if any(float(p[x]) <= 0.0 for x in observed):
        return math.inf
    row = {x: i for i, x in enumerate(observed)}
    m = len(problem.operations)
    # Row x reads sum_{B containing x} lam_B * p(x)/n(x) = 1: the
    # stationarity equation scaled to relative error per outcome.
    mat = np.zeros((len(observed), m))
    for j, op in enumerate(problem.operations):
        for x in op:
            i = row.get(x)
            if i is not None:
                mat[i, j] = float(p[x]) / counts[x]
    lam, *_ = np.linalg.lstsq(mat, np.ones(len(observed)), rcond=None)
    sigma = {x: 0.0 for x in problem.outcomes}
    for j, op in enumerate(problem.operations):
        for x in op:
            sigma[x] += float(lam[j])
    terms = [float(v) for v in lam]
    for x in problem.outcomes:
        n = counts[x]
        if n > 0:
            if sigma[x] <= 0.0:
                return math.inf
            terms.append(n * (math.log(n) - math.log(sigma[x]) - 1.0))
        else:
            terms.append(max(0.0, -sigma[x]))
    bound = math.fsum(terms)
    total = sum(counts.values())
    return (bound - log_lik(counts, p)) / total


def estimate_problems(
    problem: Problem, counts: Mapping[str, int], p: Mapping[str, object]
) -> list[str]:
    """Everything a returned maximum likelihood estimate must satisfy."""
    out = feasibility_problems(problem, p)
    if out:
        return out
    gap = duality_gap(problem, counts, p)
    if not gap <= GAP_TOL:
        out.append(f"weak-duality gap {gap:.3e} > {GAP_TOL:g} (relative to N)")
    return out


def oracle_problems(
    problem: Problem,
    counts: Mapping[str, int],
    solver_p: Mapping[str, object],
    oracle_p: Mapping[str, float],
) -> list[str]:
    """The oracle point is feasible and the solver dominates it."""
    out = [f"oracle: {msg}" for msg in feasibility_problems(problem, oracle_p)]
    solver_ll = log_lik(counts, solver_p)
    oracle_ll = log_lik(counts, oracle_p)
    if not solver_ll >= oracle_ll - DOMINANCE_SLACK:
        out.append(f"oracle log-likelihood {oracle_ll!r} beats solver {solver_ll!r}")
    return out


def move_mass(
    problem: Problem, counts: Mapping[str, int], p: Mapping[str, object]
) -> dict[str, object]:
    """A copy of p with half the mass of one outcome moved to another
    outcome of the same operation.

    The donor is the outcome with the largest count among those that
    belong to one operation only, and the receiver another such outcome
    of that operation when there is one, so every operation sum stays
    exactly as it was and only the optimality check can object."""
    private = [x for x in problem.outcomes if len(problem.edges_of(x)) == 1]
    donors = [x for x in private if counts[x] > 0] or list(problem.outcomes)
    donor = max(donors, key=lambda x: counts[x])
    j = problem.edges_of(donor)[0]
    others = [x for x in problem.operations[j] if x != donor]
    receiver = next((x for x in others if x in private), others[0])
    moved = dict(p)
    half = moved[donor] / 2
    moved[donor] -= half
    moved[receiver] += half
    return moved


def negative_control(
    problem: Problem, counts: Mapping[str, int], p: Mapping[str, object]
) -> list[str]:
    """Problems with the control itself: the untouched estimate must
    pass and the one with mass moved must be rejected."""
    out = [f"control estimate rejected: {msg}" for msg in estimate_problems(problem, counts, p)]
    if not estimate_problems(problem, counts, move_mass(problem, counts, p)):
        out.append("checker accepted an estimate with mass moved inside one operation")
    return out
