"""Independent brute-force verifier.

Samples the feasible polytope {p >= 0, every operation sums to 1} by a
hit-and-run walk and refines the best sample by line searches, giving a
reference maximizer that owes nothing to the solvers' algebra.  Results
are lower-bound certificates only: the solvers must always reach at
least the oracle's likelihood.

The walk needs directions that keep every operation sum unchanged, i.e.
the null space of the incidence matrix.  The basis is computed once by
Gaussian elimination in exact rational arithmetic (the matrix is a
small 0/1 matrix, so exactness is cheap).  The walk runs many chains
in lockstep, one numpy step for all of them, and re-projects onto the
constraint set every few thousand points to cancel float drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .diagram import FrequencyTable, GreechieDiagram, ProbabilityAssignment
from .errors import DegeneratePolytope

_CHUNK = 4096  # walk points between re-projections
_WALKERS = 64  # hit-and-run chains advanced together, one numpy step each


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
    lockstep.  Each step draws one gaussian direction per walker inside
    the null space (rows of ``basis``), finds each walker's feasible
    segment imposed by nonnegativity, and jumps every walker to a
    uniform point on its segment.  The stream is step-major: the rows of
    one step, one per walker, then the next step's.  It is deterministic
    for a given seed, holds exactly budget.sample_count points (the last
    step is cut short when needed), and re-projects every walker onto
    the operation sums after each chunk to cancel float drift.  Raises
    DegeneratePolytope when the null space is trivial: the start is then
    the only feasible point."""
    outcomes = diagram.outcomes
    if basis.shape[0] == 0:
        raise DegeneratePolytope({x: start[x] for x in outcomes})
    inc = incidence_matrix(diagram)
    pinv = np.linalg.pinv(inc)
    rng = np.random.Generator(np.random.Philox(budget.rng_seed))
    walkers = np.tile([float(start[x]) for x in outcomes], (_WALKERS, 1))
    k, n = basis.shape
    remaining = budget.sample_count
    while remaining > 0:
        b = min(_CHUNK, remaining)
        steps = -(-b // _WALKERS)
        # Directions need not be normalized: the jump is uniform on the
        # feasible segment, which is invariant under direction scale.
        directions = rng.standard_normal((steps, _WALKERS, k)) @ basis
        jumps = rng.random((steps, _WALKERS))
        out = np.empty((steps * _WALKERS, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(steps):
                d = directions[s]
                ratios = -walkers / d
                pos = d > 1e-14
                neg = d < -1e-14
                # A walker with no positive (negative) direction component
                # gets 0 as its lower (upper) segment end; the masked
                # ratios are finite, so only such a walker reads +-inf.
                lo = np.where(pos, ratios, -np.inf).max(axis=1)
                hi = np.where(neg, ratios, np.inf).min(axis=1)
                lo[lo == -np.inf] = 0.0
                hi[hi == np.inf] = 0.0
                walkers += (lo + jumps[s] * (hi - lo))[:, None] * d
                np.clip(walkers, 0.0, 1.0, out=walkers)
                out[s * _WALKERS : (s + 1) * _WALKERS] = walkers
        yield out[:b]
        # Cancel accumulated drift before the next chunk.
        walkers -= (walkers @ inc.T - 1.0) @ pinv.T
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
    for dominance checking."""
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
    basis direction with a shrinking step.  A zero-dimensional polytope
    short-circuits to its unique point."""
    from .numeric import solve_numeric

    budget = budget or OracleBudget()
    outcomes = diagram.outcomes
    counts = np.array([float(freq[x]) for x in outcomes])
    # Outcomes never observed add nothing to the likelihood; leaving them
    # out also avoids 0 * log 0 = NaN at walk points on the boundary.
    observed = np.flatnonzero(counts)
    counts = counts[observed]
    start = solve_numeric(diagram, {x: 1 for x in outcomes}).p

    def loglik(vec: np.ndarray) -> float:
        with np.errstate(divide="ignore"):
            logs = np.log(vec[observed])
        return float(np.dot(counts, logs))

    best = np.array([float(start[x]) for x in outcomes])
    best_ll = loglik(best)
    basis = nullspace_basis(diagram)
    try:
        for chunk in _walk_chunks(diagram, basis, start, budget):
            with np.errstate(divide="ignore"):
                lls = np.log(chunk[:, observed]) @ counts
            i = int(np.argmax(lls))
            if lls[i] > best_ll:
                best_ll = float(lls[i])
                best = chunk[i].copy()
    except DegeneratePolytope as unique:
        return {x: float(unique.point[x]) for x in outcomes}

    norms = np.linalg.norm(basis, axis=1)
    basis = basis / norms[:, None]
    step = 0.25
    for _ in range(budget.refine_steps):
        improved = False
        for d in basis:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = -best / d
            pos = d > 1e-14
            neg = d < -1e-14
            lo = float(ratios[pos].max()) if pos.any() else 0.0
            hi = float(ratios[neg].min()) if neg.any() else 0.0
            for t in (min(step, hi), max(-step, lo)):
                cand = np.clip(best + t * d, 0.0, 1.0)
                ll = loglik(cand)
                if ll > best_ll:
                    best_ll, best = ll, cand
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return {x: float(v) for x, v in zip(outcomes, best)}
