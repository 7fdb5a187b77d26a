"""General concave MLE solver: primal-dual Newton iterations.

Maximizes sum_x n(x) ln p(x) over per-operation normalization and
nonnegativity, for any valid diagram.  Stationarity of the Lagrangian
gives p(x) sigma(x) = n(x), where sigma(x) = sum_{B containing x}
lambda_B sums one multiplier per operation, and feasibility gives
A p = 1 for the operation-outcome incidence A.  The multipliers
minimize the convex dual

    g(lambda) = sum_B lambda_B - sum_x n(x) ln sigma(x),   sigma > 0.

The solver keeps p, lambda and sigma = A^T lambda as separate arrays
and applies Newton's method to the two equations p sigma = n and
A p = 1.  With r1 = n - p sigma and r2 = 1 - A p, each iteration solves

    A diag(p / sigma) A^T dlambda = A (r1 / sigma) - r2

for H + _RIDGE diag(H), H the matrix on the left, then sets dsigma =
A^T dlambda and dp = (r1 - p dsigma) / sigma.  At p = n / sigma, where
the iteration starts, H is the dual's Hessian and dlambda its Newton
step.  p steps by one length, lambda and sigma by another; each is the
fraction-to-the-boundary rule, min(1, 0.99 times the longest step that
keeps that array positive).  sigma is then summed afresh from lambda
wherever that sum has no cancellation, and kept as stepped where
multipliers of opposite sign nearly cancel.  See Nocedal & Wright,
Numerical Optimization, 2nd ed., section 19.2, and S. J. Wright,
Primal-Dual Interior-Point Methods (SIAM, 1997).

A zero count makes its KKT conditions p(x) >= 0, sigma(x) >= 0 and
p(x) sigma(x) = 0.  Such an outcome targets p sigma = mu instead of
n(x) = 0; mu starts at 1 and falls tenfold after every iteration whose
two step lengths both exceed 0.5, and stays 0 when no count is zero.

H[j, k] is nonzero only where operations j and k share an outcome.
Once per call the operations are put in Cuthill-McKee order (Cuthill &
McKee, "Reducing the bandwidth of sparse symmetric matrices", ACM
1969), which leaves a chain with bandwidth b = 1 and a cycle with
b = 2.  A narrow band is stored as m rows of b + 1 cells and factored
by LDL^T without pivoting in O(m b^2) (Golub & Van Loan, Matrix
Computations, section 4.3); H is positive semidefinite and the ridge
makes it definite.  A wide one is built as a dense m x m matrix and
solved by np.linalg.solve in O(m^3), after Jacobi equilibration
(scaling by diag(H)^-1/2, without which skewed counts stall).  The
band path needs no equilibration: the LDL^T factors of a diagonally
scaled matrix are the scaled factors.

Multipliers of operations whose outcomes mostly live in other, heavily
observed operations are legitimately negative at the optimum; only
their sums sigma(x) must stay positive.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .closed_form import MleResult, finish_result
from .diagram import FrequencyTable, GreechieDiagram, OutcomeId, worst_gap
from .errors import NonConvergence

# The iteration stops once the largest operation-sum gap, the largest
# relative stationarity residual |n - p sigma| / n and the largest
# p sigma of a zero count are all this small.
_STOP_GAP = 1e-13

# The Newton matrix is H + _RIDGE diag(H), _RIDGE on the unit diagonal
# of the equilibrated matrix.  When operations' incidence rows are
# linearly dependent the Hessian is singular and the dual is flat along
# its null space; the ridge keeps the step there bounded, and it lies
# far below the curvature of every other direction.
_RIDGE = 1e-14

# The Newton system of m operations whose Hessian has bandwidth b after
# Cuthill-McKee ordering is solved on its band when (b + 1) * _BAND_RATIO
# <= m, densely otherwise (see solve_numeric).
_BAND_RATIO = 32

# Newton iterations allowed before NonConvergence.
_MAX_ITERATIONS = 200


def solve_numeric(diagram: GreechieDiagram, freq: FrequencyTable) -> MleResult:
    """Primal-dual Newton iterations to a maximizer.

    Requires nonnegative counts.  Starts from lambda_B = n(B) and p =
    n / sigma, a zero count taken as 1 there, and stops once the largest
    operation-sum gap |1 - A p|, the largest stationarity residual
    |n - p sigma| / n and the largest p sigma of a zero count are all at
    most 1e-13.  A^T lambda for the returned multipliers
    (``diagnostics["multipliers"]``, in operation order) reproduces
    n / p: over seeded inputs |p (A^T lambda) / n - 1| was at most
    1e-13 at counts up to 1000 and, at counts spread across nine
    decades, on chains and cycles of up to 2048 operations.  Where multipliers of size ~1e9 and opposite
    sign cancel to a sigma near 1, a few units in their last place
    already move sigma by 1e-7: there it was 1.4e-8 on the comb and 7e-7
    on even polygons of pairs, with A^T lambda summed exactly.  The
    certificate is the worst constraint gap, measured by finish_result
    and held to NORMALIZATION_TOL.
    The multipliers also split each shared count: operation B receives
    the share c(y, B) = lambda_B / sigma(y) of n(y), and lambda_B is B's
    denominator.  On a chain these are the splitting parameters, c_i =
    lambda_{i+1} / (lambda_i + lambda_{i+1}) for the outcome y_i shared
    by A_i and A_{i+1}.  Raises NonConvergence with the last gap after
    200 iterations, before taking a Newton step that is not finite, or,
    with a zero count, once p or sigma falls below 1e-150 and p / sigma
    nears overflow (inputs with no maximizer go there).

    The Newton system of m operations is solved on its band when the
    Hessian's bandwidth b after ordering satisfies (b + 1) * 32 <= m,
    and densely otherwise: chains of 64 and cycles of 96 or more
    operations take the band, a star of 200 operations through one
    outcome (b = 199) and every diagram of fewer than 32 operations the
    dense solve.  The constant is measured: per Newton iteration, on
    one core of a 2-CPU Xeon with single-threaded BLAS, the two solves
    break even near b = 14 at m = 512, b = 9 at m = 256, b = 3 at
    m = 128 and b = 1 at m = 64.  Both walk the same iterates up to
    rounding."""
    idx = diagram.outcome_index
    m = len(diagram.operations)
    counts = np.empty(len(idx))
    # The incidence as (outcome, operation) index pairs, and for the
    # Hessian every ordered pair (j, k) of operations sharing an outcome.
    outs: list[int] = []
    ops: list[int] = []
    pair_out: list[int] = []
    pair_j: list[int] = []
    pair_k: list[int] = []
    mu = 0.0  # 1 from the start when some count is zero
    for x, i in idx.items():
        n = freq[x]
        if n <= 0:
            if n < 0:
                raise ValueError(f"counts must be nonnegative; {x!r} has {n}")
            mu = 1.0
        counts[i] = n
        edges = diagram.edges_of[x]
        outs += [i] * len(edges)
        ops += edges
        pair_out += [i] * len(edges) ** 2
        pair_j += [j for j in edges for _ in edges]
        pair_k += edges * len(edges)
    n_out = len(counts)
    outs, ops, pair_out, pair_j, pair_k = map(np.array, (outs, ops, pair_out, pair_j, pair_k))

    # Hessian cells: band rows in Cuthill-McKee order, or dense m x m.
    banded = False
    if _BAND_RATIO <= m:  # else not even a diagonal Hessian passes the rule
        order = np.array(_cuthill_mckee(diagram), dtype=np.intp)
        pos = np.empty(m, dtype=np.intp)
        pos[order] = np.arange(m)
        offset = pos[pair_j] - pos[pair_k]
        width = int(offset.max(initial=0))
        banded = (width + 1) * _BAND_RATIO <= m
    if banded:
        lower = offset >= 0
        pair_out = pair_out[lower]
        cells = pos[pair_j[lower]] * (width + 1) + width - offset[lower]
        n_cells = m * (width + 1)
    else:
        cells = pair_j * m + pair_k
        n_cells = m * m

    def incidence_t(lam: np.ndarray) -> np.ndarray:  # A^T lam
        return np.bincount(outs, weights=lam[ops], minlength=n_out)

    def op_sums(v: np.ndarray) -> np.ndarray:  # A v
        return np.bincount(ops, weights=v[outs], minlength=m)

    unit = counts
    if mu:  # a zero count starts as if counted once; its residual is p sigma
        unobserved = counts == 0
        unit = counts + unobserved
    lam = op_sums(unit)
    sigma = incidence_t(lam)
    p = unit / sigma
    iterations = 0
    while True:
        r1 = counts - p * sigma
        r2 = 1.0 - op_sums(p)
        gap = float(max(np.abs(r2).max(), np.abs(r1 / unit).max()))
        if gap <= _STOP_GAP:
            break
        if iterations == _MAX_ITERATIONS:
            raise NonConvergence(iterations, gap)
        if mu:
            if min(p.min(), sigma.min()) < 1e-150:
                raise NonConvergence(iterations, gap)
            r1 = r1 + mu * unobserved
        hess = np.bincount(cells, weights=(p / sigma)[pair_out], minlength=n_cells)
        rhs = op_sums(r1 / sigma) - r2
        if banded:
            dlam = np.empty(m)
            dlam[order] = _band_solve(hess.reshape(m, width + 1), rhs[order])
        else:
            hess = hess.reshape(m, m)
            scale = 1.0 / np.sqrt(np.diag(hess))
            scaled = hess * scale[:, None] * scale
            scaled[np.diag_indices(m)] += _RIDGE
            dlam = scale * np.linalg.solve(scaled, scale * rhs)
        if not np.isfinite(dlam).all():
            raise NonConvergence(iterations, gap)
        dsigma = incidence_t(dlam)
        dp = (r1 - p * dsigma) / sigma
        primal = _boundary_step(p, dp)
        p = p + primal * dp
        step = _boundary_step(sigma, dsigma)
        lam = lam + step * dlam
        sigma = sigma + step * dsigma
        if primal > 0.5 and step > 0.5:
            mu /= 10.0
        # Re-sum sigma from the multipliers where no cancellation can
        # cost digits, and carry it only where multipliers of opposite
        # sign nearly cancel (the comb's spine against its teeth, an
        # even polygon of pairs).  A sigma carried everywhere keeps the
        # rounding of the large early steps: on a skewed 512-cycle the
        # solve then stops 3e-11 from the optimum.
        fresh = incidence_t(lam)
        exact = incidence_t(np.abs(lam)) <= 2.0 * fresh
        sigma[exact] = fresh[exact]
        iterations += 1

    p_map = {x: float(p[i]) for x, i in idx.items()}
    diagnostics = {"sweeps": iterations, "multipliers": lam.tolist()}
    return finish_result(diagram, freq, p_map, "numeric", diagnostics)


def _cuthill_mckee(diagram: GreechieDiagram) -> list[int]:
    """Operations in Cuthill-McKee order on the graph joining operations
    that share an outcome: breadth first from a least-connected
    operation of each component, neighbours by ascending degree, ties in
    declaration order.  Puts a chain at bandwidth 1 and a cycle at 2."""
    m = len(diagram.operations)
    neighbours: list[set[int]] = [set() for _ in range(m)]  # each with itself
    for edges in diagram.edges_of.values():
        for j in edges:
            neighbours[j].update(edges)
    degree = [len(n) for n in neighbours]
    placed = [False] * m
    order: list[int] = []
    for start in sorted(range(m), key=degree.__getitem__):
        if placed[start]:
            continue
        placed[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            fresh = [v for v in neighbours[order[head]] if not placed[v]]
            for v in sorted(fresh, key=lambda v: (degree[v], v)):
                placed[v] = True
                order.append(v)
            head += 1
    return order


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (H + _RIDGE diag(H)) x = rhs by LDL^T without pivoting.

    ``band[i, w - d]`` holds H[i, i - d] for d = 0..w, zero where i < d;
    H must be positive semidefinite.  Each pivot is floored at _RIDGE
    H_ii, the least value it takes in exact arithmetic, so that rounding
    on a singular H can neither zero nor flip it.  A diagonal entry that
    is not positive and finite, which p > 0 and sigma > 0 reach only if
    p / sigma underflows or overflows, gives a NaN step, on which
    solve_numeric stops."""
    m, w = band.shape[0], band.shape[1] - 1
    diag = band[:, w]
    if not ((diag > 0) & (diag < math.inf)).all():
        return np.full(m, np.nan)
    floor = (_RIDGE * diag).tolist()
    rows = band.tolist()
    pivot = [0.0] * m
    y = rhs.tolist()
    for i, row in enumerate(rows):
        base = i - w  # row[c] sits in column base + c
        lo = base if base > 0 else 0
        # W_ij = L_ij D_j = H_ij - sum_{k<j} W_ik L_jk, in place.
        for j in range(lo + 1, i):
            other, shift = rows[j], w - j
            s = row[j - base]
            for k in range(lo, j):
                s -= row[k - base] * other[k + shift]
            row[j - base] = s
        # Then L_ij = W_ij / D_j, the pivot D_i and L y = rhs.
        d = row[w] * (1.0 + _RIDGE)
        yi = y[i]
        for j in range(lo, i):
            wij = row[j - base]
            lij = wij / pivot[j]
            d -= wij * lij
            yi -= lij * y[j]
            row[j - base] = lij
        pivot[i] = d if d > floor[i] else floor[i]
        y[i] = yi
    # L^T x = y / D, subtracting each finished x_j from the rows above.
    x = [yi / d for yi, d in zip(y, pivot)]
    for j in range(m - 1, 0, -1):
        xj, row, base = x[j], rows[j], j - w
        for k in range(base if base > 0 else 0, j):
            x[k] -= row[k - base] * xj
    return np.array(x)


def _boundary_step(v: np.ndarray, dv: np.ndarray) -> float:
    """min(1, 0.99 times the longest step along dv that keeps v > 0):
    the fraction-to-the-boundary rule."""
    lowest = float((dv / v).min())
    return 1.0 if lowest >= -0.99 else -0.99 / lowest


def kkt_residual(
    diagram: GreechieDiagram, freq: FrequencyTable, p: Mapping[OutcomeId, float]
) -> float:
    """Optimality certificate for an assignment.

    Fits multipliers to the stationarity system n(x)/p(x) =
    sum_{B containing x} lambda_B by least squares (any sign), measuring
    the mismatch relatively, per outcome: |p(x)/n(x) * sum lambda_B - 1|.
    The reported residual is the larger of that mismatch and the worst
    constraint gap (diagram.worst_gap).  Zero exactly at the unique
    maximizer.  Outcomes with n(x) = 0 take part only in the sum gaps:
    their conditions, sigma(x) >= 0 and p(x) sigma(x) = 0, are not
    measured, and their optimal probability need not be 0 (path5 with
    n(b) = 0 puts 0.314 on b).  Requires p(x) > 0 wherever n(x) > 0."""
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
