"""General concave MLE solver: damped Newton on the dual.

Maximizes sum_x n(x) ln p(x) over per-operation normalization and
nonnegativity, for any valid diagram.  Stationarity of the Lagrangian
gives p(x) = n(x) / sigma(x), where sigma(x) = sum_{B containing x}
lambda_B sums one multiplier per operation.  The multipliers minimize
the convex dual

    g(lambda) = sum_B lambda_B - sum_x n(x) ln sigma(x),   sigma > 0,

whose gradient 1 - sum_{x in B} p(x) is the operation-sum gap of the
implied primal point and whose Hessian is A diag(n / sigma^2) A^T for
the operation-outcome incidence A.  The implied point satisfies
stationarity by construction, which leaves the sum gaps as the whole
KKT residual during the run.

Each iteration solves the Newton system after Jacobi equilibration
(scaling by diag(H)^-1/2, without which skewed counts stall) and
backtracks (Armijo) on the exact change of g along the step, written
through log1p.  g itself is about 1e10 at large counts, so differences
of g would be lost to rounding.  Steps that make some sigma(x)
nonpositive are rejected.  See Boyd & Vandenberghe, Convex
Optimization, section 9.5.

Multipliers of operations whose outcomes mostly live in other, heavily
observed operations are legitimately negative at the optimum; only
their sums sigma(x) must stay positive.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from .closed_form import MleResult, finish_result
from .diagram import FrequencyTable, GreechieDiagram, OutcomeId, worst_gap
from .errors import NonConvergence

# Once the tolerance is met, keep iterating down to this gap
# unless the gap stops falling first (it is not monotone while the
# steps are damped, so this rule only applies below the tolerance).
_POLISH_GAP = 1e-13

# Armijo sufficient-decrease fraction, and the step halvings allowed
# before the line search gives up at the rounding floor.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60

# Added to the unit diagonal of the equilibrated Newton matrix.  When
# operations' incidence rows are linearly dependent the Hessian is
# singular and the dual is flat along its null space; the ridge keeps
# the step there bounded, and it lies far below the curvature of every
# other direction.
_RIDGE = 1e-14

# Newton iterations allowed before NonConvergence.
_MAX_ITERATIONS = 200


def solve_numeric(
    diagram: GreechieDiagram, freq: FrequencyTable, tol: float = 1e-10
) -> MleResult:
    """Damped Newton on the dual to a KKT-certified maximizer.

    Requires positive counts (apply zero-count reduction first) and a
    positive, finite tol, the bound on the certificate of the returned
    point.  Starts from lambda_B = n(B) and stops once the largest
    operation-sum gap is below 1e-13, or below tol and no longer
    falling.  The point p = n / sigma is stationary for the returned
    multipliers (``diagnostics["multipliers"]``, in operation order) by
    construction, so its certificate is its worst constraint gap,
    measured by finish_result.  The multipliers also split each shared
    count: operation B receives the share c(y, B) = lambda_B / sigma(y)
    of n(y), and lambda_B is B's denominator.  On a chain these are the
    splitting parameters, c_i = lambda_{i+1} / (lambda_i + lambda_{i+1})
    for the outcome y_i shared by A_i and A_{i+1}.  Raises
    NonConvergence with the last gap after 200 iterations, or when the
    line search finds no decrease above the tolerance."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    idx = diagram.outcome_index
    m = len(diagram.operations)
    counts = np.empty(len(idx))
    # The incidence as (outcome, operation) index pairs, and for the
    # Hessian every ordered pair of operations sharing an outcome.
    outs: list[int] = []
    ops: list[int] = []
    pair_out: list[int] = []
    pair_cell: list[int] = []
    for x, i in idx.items():
        if freq[x] <= 0:
            raise ValueError(
                f"numeric solver requires positive counts; {x!r} has {freq[x]}"
            )
        counts[i] = freq[x]
        edges = diagram.edges_of[x]
        outs += [i] * len(edges)
        ops += edges
        pair_out += [i] * len(edges) ** 2
        pair_cell += [j * m + k for j in edges for k in edges]
    n_out = len(counts)
    outs, ops, pair_out, pair_cell = map(np.array, (outs, ops, pair_out, pair_cell))
    log_counts = np.log(counts)

    def incidence_t(lam: np.ndarray) -> np.ndarray:  # A^T lam
        return np.bincount(outs, weights=lam[ops], minlength=n_out)

    lam = np.bincount(ops, weights=counts[outs], minlength=m)
    # Records at the start point and after each step: the dual
    # objective falls on every accepted step; the log-likelihood of the
    # implied point is only a diagnostic, and it overshoots while that
    # point is infeasible.
    sweep_dual: list[float] = []
    sweep_loglik: list[float] = []
    iterations = 0
    prev_gap = np.inf
    while True:
        sigma = incidence_t(lam)
        p = counts / sigma
        grad = 1.0 - np.bincount(ops, weights=p[outs], minlength=m)
        gap = float(np.abs(grad).max())
        log_sigma = np.log(sigma)
        sweep_dual.append(float(lam.sum() - counts @ log_sigma))
        sweep_loglik.append(float(counts @ (log_counts - log_sigma)))
        if gap <= _POLISH_GAP or prev_gap <= gap <= tol:
            break
        if iterations == _MAX_ITERATIONS:
            raise NonConvergence(iterations, gap)
        hess = np.bincount(pair_cell, weights=(p / sigma)[pair_out], minlength=m * m)
        hess = hess.reshape(m, m)
        scale = 1.0 / np.sqrt(np.diag(hess))
        scaled = hess * scale[:, None] * scale
        scaled[np.diag_indices(m)] += _RIDGE
        step = scale * np.linalg.solve(scaled, -scale * grad)
        t = _armijo_step(step, incidence_t(step) / sigma, counts, float(grad @ step))
        if t is None:
            if gap <= tol:
                break
            raise NonConvergence(iterations, gap)
        lam = lam + t * step
        iterations += 1
        prev_gap = gap

    p_map = {x: float(p[i]) for x, i in idx.items()}
    diagnostics = {
        "sweeps": iterations,
        "multipliers": lam.tolist(),
        "sweep_dual": sweep_dual,
        "sweep_loglik": sweep_loglik,
    }
    return finish_result(diagram, freq, p_map, "numeric", diagnostics, tol=tol)


def _armijo_step(
    step: np.ndarray, ratio: np.ndarray, counts: np.ndarray, slope: float
) -> Optional[float]:
    """Backtracking length along ``step``, or None at the rounding floor.

    ``ratio`` is A^T step / sigma, so the change of the dual at length t
    is t sum(step) - sum n log1p(t ratio), which stays accurate however
    large g is.  ``slope`` is the directional derivative grad . step."""
    total = float(step.sum())
    lowest = float(ratio.min())
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        if t * lowest > -1.0:
            change = t * total - float(counts @ np.log1p(t * ratio))
            if change <= _ARMIJO * t * slope:
                return t
        t *= 0.5
    return None


def kkt_residual(
    diagram: GreechieDiagram, freq: FrequencyTable, p: Mapping[OutcomeId, float]
) -> float:
    """Optimality certificate for an assignment.

    Fits multipliers to the stationarity system n(x)/p(x) =
    sum_{B containing x} lambda_B by least squares (any sign), measuring
    the mismatch relatively, per outcome: |p(x)/n(x) * sum lambda_B - 1|.
    The reported residual is the larger of that mismatch and the worst
    constraint gap (diagram.worst_gap).  Zero exactly at the unique
    maximizer.  Outcomes with n(x) = 0 take part only in the sum gaps;
    their optimal probability is 0 and stationarity does not constrain
    them.  Requires p(x) > 0 wherever n(x) > 0."""
    rows = [x for x in diagram.outcomes if freq[x] > 0]
    for x in rows:
        if p[x] <= 0:
            raise ValueError(f"p must be positive where counts are; p({x!r}) <= 0")
    m = len(diagram.operations)
    mat = np.zeros((len(rows), m))
    for i, x in enumerate(rows):
        scale = float(p[x]) / freq[x]
        for j in diagram.edges_of[x]:
            mat[i, j] = scale
    target = np.ones(len(rows))
    lam, *_ = np.linalg.lstsq(mat, target, rcond=None)
    stationarity = float(np.max(np.abs(mat @ lam - target))) if rows else 0.0
    return max(worst_gap(diagram, p), stationarity)  # a NaN gap stays NaN
