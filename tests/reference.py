"""A 50-digit reference maximizer, in the standard library only.

Newton on the dual g(lambda) = sum_B lambda_B - sum_x n(x) ln sigma(x)
in ``decimal`` arithmetic, started from a solver's multipliers.  Every
step sums sigma(x) = sum_{B containing x} lambda_B afresh, which at 50
digits loses nothing that matters to the cancellation of multipliers
of size ~1e9, and solves the Newton system by LDL^T elimination on its
band in Cuthill-McKee order.  The point is p = n / sigma, stationary by
construction; the Newton steps close its operation-sum gaps.  This
shares no arithmetic with the solver it checks (iterative refinement in
extended precision: Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 12).
"""

from decimal import Decimal, localcontext

from greechie_mle import GreechieDiagram, numeric

DIGITS = 50
GAP = Decimal("1e-40")  # a reference with a larger gap is refused
# Each pivot is floored at this share of its diagonal, so that a
# singular Hessian (linearly dependent operations) leaves a zero pivot
# finite; the dual is flat along that direction and sigma does not see it.
_PIVOT_FLOOR = Decimal("1e-40")
_MAX_STEPS = 20


def reference_optimum(
    diagram: GreechieDiagram, freq: dict, multipliers: list[float]
) -> dict[str, Decimal]:
    """p* to 50 digits, refined from ``multipliers`` (in operation
    order).  Raises AssertionError unless the worst operation-sum gap
    of p* falls to 1e-40 within 20 Newton steps."""
    order = numeric._cuthill_mckee(diagram)
    pos = {op: i for i, op in enumerate(order)}
    members = [(freq[x], [pos[j] for j in diagram.edges_of[x]]) for x in diagram.outcomes]
    m = len(order)
    width = max((abs(a - b) for _, ops in members for a in ops for b in ops), default=0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        counts = [Decimal(n) for n, _ in members]
        lam = [Decimal(0)] * m
        for j, value in enumerate(multipliers):
            lam[pos[j]] = Decimal(value)
        for _ in range(_MAX_STEPS + 1):
            sigma = [sum(lam[j] for j in ops) for _, ops in members]
            assert all(s > 0 for s in sigma), "a multiplier sum is not positive"
            p = [n / s for n, s in zip(counts, sigma)]
            grad = [Decimal(1)] * m
            for px, (_, ops) in zip(p, members):
                for j in ops:
                    grad[j] -= px
            if max(abs(g) for g in grad) <= GAP:
                return {x: px for x, px in zip(diagram.outcomes, p)}
            band = [[Decimal(0)] * (width + 1) for _ in range(m)]  # band[i][d] = H[i][i-d]
            for px, s, (_, ops) in zip(p, sigma, members):
                curvature = px / s
                for a in ops:
                    for b in ops:
                        if a >= b:
                            band[a][a - b] += curvature
            step = _band_solve(band, [-g for g in grad])
            lam = [v + dv for v, dv in zip(lam, step)]
    raise AssertionError(f"reference gap above {GAP} after {_MAX_STEPS} Newton steps")


def _band_solve(band: list[list[Decimal]], rhs: list[Decimal]) -> list[Decimal]:
    """Solve H x = rhs for H positive semidefinite, given as
    band[i][d] = H[i][i - d], by LDL^T elimination."""
    m, w = len(band), len(band[0]) - 1
    low = [[Decimal(0)] * (w + 1) for _ in range(m)]  # low[i][d] = L[i][i-d]
    pivot = [Decimal(0)] * m
    for i in range(m):
        reach = min(i, w)
        for d in range(reach, 0, -1):  # columns j = i - d, left to right
            j = i - d
            s = band[i][d]
            for e in range(d + 1, reach + 1):  # k = i - e < j
                s -= low[i][e] * pivot[i - e] * low[j][e - d]
            low[i][d] = s / pivot[j]
        d_i = band[i][0] - sum(low[i][d] ** 2 * pivot[i - d] for d in range(1, reach + 1))
        pivot[i] = max(d_i, _PIVOT_FLOOR * band[i][0])
    y = list(rhs)
    for i in range(m):
        y[i] -= sum(low[i][d] * y[i - d] for d in range(1, min(i, w) + 1))
    x = [yi / d for yi, d in zip(y, pivot)]
    for i in range(m - 1, -1, -1):
        x[i] -= sum(low[i + d][d] * x[i + d] for d in range(1, min(m - 1 - i, w) + 1))
    return x
