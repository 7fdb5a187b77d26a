"""Brute-force verifier.

Samples the feasible polytope {p >= 0, every operation sums to 1} by a
hit-and-run walk (Smith, "Efficient Monte Carlo procedures for
generating points uniformly distributed over bounded regions", Oper.
Res. 32, 1984) and refines the best sample by line searches, giving a
reference maximizer.  Only the walk's start comes from a solver, as
solve_numeric on all-one counts, whose NonConvergence is raised as is;
the walk and the line searches owe nothing to the solvers' algebra.
Results are lower-bound certificates only: the solvers must always
reach at least the oracle's likelihood.

The walk needs directions that keep every operation sum unchanged, i.e.
the null space of the incidence matrix.  The basis is computed once by
Gaussian elimination in exact rational arithmetic (the matrix is a
small 0/1 matrix, so exactness is cheap).  The walk runs _WALKERS =
512 chains in lockstep as the columns of one (n, _WALKERS) array, so a
step for all of them is a few whole-array numpy operations, and
re-projects onto the constraint set after every _CHUNK = 4096 points
(8 steps) to cancel float drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .diagram import FrequencyTable, GreechieDiagram, ProbabilityAssignment

_CHUNK = 4096  # walk points between re-projections
_WALKERS = 512  # hit-and-run chains advanced together, one column each


@dataclass(frozen=True)
class OracleBudget:
    """Effort knobs: number of walk samples, number of refinement
    rounds, and the seed making the whole procedure reproducible."""

    sample_count: int = 100_000
    refine_steps: int = 1_000
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if self.sample_count < 1 or self.refine_steps < 1 or self.rng_seed < 1:
            raise ValueError("budget fields must be positive")


def incidence_matrix(diagram: GreechieDiagram) -> np.ndarray:
    """0/1 matrix, one row per operation, one column per outcome."""
    mat = np.zeros((len(diagram.operations), len(diagram.outcomes)))
    for j, op in enumerate(diagram.operations):
        for x in op:
            mat[j, diagram.outcome_index[x]] = 1.0
    return mat


def nullspace_basis(diagram: GreechieDiagram) -> np.ndarray:
    """Basis of directions preserving all operation sums, shape (k, n).

    Reduced row echelon form over exact rationals; one basis vector per
    free column.  k = n - rank is the polytope's dimension."""
    n = len(diagram.outcomes)
    rows = [
        [Fraction(1) if x in diagram.edge_sets[j] else Fraction(0) for x in diagram.outcomes]
        for j in range(len(diagram.operations))
    ]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(rows):
            break
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), n))
    for k, free in enumerate(free_cols):
        basis[k, free] = 1.0
        for row_idx, pcol in enumerate(pivot_cols):
            basis[k, pcol] = -float(rows[row_idx][free])
    return basis


def _walk_chunks(
    diagram: GreechieDiagram,
    basis: np.ndarray,
    start: ProbabilityAssignment,
    budget: OracleBudget,
) -> Iterator[np.ndarray]:
    """Hit-and-run chunks: (b, n) arrays of walk points.

    _WALKERS independent chains start at ``start`` and advance in
    lockstep, one column each of an (n, _WALKERS) array, so every step
    is a handful of whole-array numpy operations: one gaussian direction
    per walker inside the null space (``basis.T`` times a (k, _WALKERS)
    draw), each walker's feasible segment imposed by nonnegativity as a
    max and a min down its column, and a jump of every walker to a
    uniform point on its segment.  A chunk of _CHUNK points takes
    _CHUNK / _WALKERS = 8 steps.  The stream is step-major: the points
    of one step, one per walker in column order, then the next step's.
    It is deterministic for a given seed, holds exactly
    budget.sample_count points (the last step is cut short when
    needed), and re-projects every walker onto the operation sums after
    each chunk to cancel float drift.  When the null space is trivial
    every direction is zero, so every walker stays at the start, the
    only feasible point."""
    outcomes = diagram.outcomes
    inc = incidence_matrix(diagram)
    pinv = np.linalg.pinv(inc)
    rng = np.random.Generator(np.random.Philox(budget.rng_seed))
    walkers = np.tile([[float(start[x])] for x in outcomes], (1, _WALKERS))
    k, n = basis.shape
    remaining = budget.sample_count
    while remaining > 0:
        b = min(_CHUNK, remaining)
        steps = -(-b // _WALKERS)
        # Directions need not be normalized: the jump is uniform on the
        # feasible segment, which is invariant under direction scale.
        directions = basis.T @ rng.standard_normal((steps, k, _WALKERS))
        jumps = rng.random((steps, _WALKERS))
        out = np.empty((steps * _WALKERS, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(steps):
                d = directions[s]
                ratios = -walkers / d
                # A walker with no positive (negative) direction component
                # gets 0 as its lower (upper) segment end; the masked
                # ratios are finite, so only such a walker reads +-inf.
                lo = np.where(d > 1e-14, ratios, -np.inf).max(axis=0)
                hi = np.where(d < -1e-14, ratios, np.inf).min(axis=0)
                lo[lo == -np.inf] = 0.0
                hi[hi == np.inf] = 0.0
                walkers += (lo + jumps[s] * (hi - lo)) * d
                np.clip(walkers, 0.0, 1.0, out=walkers)
                out[s * _WALKERS:(s + 1) * _WALKERS] = walkers.T
        yield out[:b]
        # Cancel accumulated drift before the next chunk.
        walkers -= pinv @ (inc @ walkers - 1.0)
        np.clip(walkers, 0.0, 1.0, out=walkers)
        remaining -= b


def sample_feasible(
    diagram: GreechieDiagram,
    start: ProbabilityAssignment,
    budget: OracleBudget,
) -> Iterator[dict[str, float]]:
    """Stream of budget.sample_count feasible assignments.

    Deterministic for a given seed: the step-major interleaving of
    several hit-and-run chains run in lockstep from ``start``.  Not
    uniform on the polytope; the coverage only needs to be broad enough
    for dominance checking.  A point polytope yields the start each time."""
    outcomes = diagram.outcomes
    for chunk in _walk_chunks(diagram, nullspace_basis(diagram), start, budget):
        for row in chunk:
            yield {x: float(v) for x, v in zip(outcomes, row)}


def brute_force_mle(
    diagram: GreechieDiagram,
    freq: FrequencyTable,
    budget: Optional[OracleBudget] = None,
) -> dict[str, float]:
    """Best feasible point the budget can find, never claimed optimal.

    Evaluates the likelihood, over the outcomes with positive counts as
    in diagram.log_likelihood, at every walk sample, keeps the argmax,
    then polishes it by bidirectional line probes along each null-space
    basis direction with a shrinking step.  Starts from solve_numeric on
    all-one counts, raising its NonConvergence should it fail.  A
    zero-dimensional polytope short-circuits to its unique point."""
    from .numeric import solve_numeric

    budget = budget or OracleBudget()
    outcomes = diagram.outcomes
    counts = np.array([float(freq[x]) for x in outcomes])
    # Outcomes never observed add nothing to the likelihood; leaving them
    # out avoids 0 * log 0 = NaN on the boundary, where the rest score -inf.
    observed = np.flatnonzero(counts)
    counts = counts[observed]
    start = solve_numeric(diagram, {x: 1 for x in outcomes}).p

    def loglik(vec: np.ndarray) -> float:
        return float(np.dot(counts, np.log(vec[observed])))

    best = np.array([float(start[x]) for x in outcomes])
    basis = nullspace_basis(diagram)
    if not len(basis):  # the start is the only feasible point
        return {x: float(start[x]) for x in outcomes}
    with np.errstate(divide="ignore"):
        best_ll = loglik(best)
        for chunk in _walk_chunks(diagram, basis, start, budget):
            lls = np.log(chunk[:, observed]) @ counts
            i = int(np.argmax(lls))
            if lls[i] > best_ll:
                best_ll = float(lls[i])
                best = chunk[i].copy()

        probes = []
        for d in basis / np.linalg.norm(basis, axis=1)[:, None]:
            pos, neg = np.flatnonzero(d > 1e-14), np.flatnonzero(d < -1e-14)
            probes.append((d, pos, d[pos], neg, d[neg]))
        cand = np.empty_like(best)
        step = 0.25
        for _ in range(budget.refine_steps):
            improved = False
            for d, pos, d_pos, neg, d_neg in probes:
                lo = float((-best[pos] / d_pos).max()) if pos.size else 0.0
                hi = float((-best[neg] / d_neg).min()) if neg.size else 0.0
                for t in (min(step, hi), max(-step, lo)):
                    np.multiply(d, t, out=cand)
                    cand += best
                    np.clip(cand, 0.0, 1.0, out=cand)
                    ll = loglik(cand)
                    if ll > best_ll:
                        best_ll = ll
                        best, cand = cand, best
                        improved = True
            if not improved:
                step *= 0.5
                if step < 1e-12:
                    break
    return {x: float(v) for x, v in zip(outcomes, best)}
