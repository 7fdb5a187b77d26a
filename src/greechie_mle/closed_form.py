"""Closed-form maximum likelihood solvers and the plan dispatcher.

The estimators here cover every structure with a direct solution that
the decomposition pass recognizes: single operations (the multinomial
case, solved by the empirical distribution), horizontal sums
(independent subproblems), products (operation weights times
conditional factor solutions), and chains of three operations
(splitting parameters satisfying a consistency system that is
quadratic).  Two operations sharing one outcome are solved as a
product, so the linear two-operation chain needs no solver of its own;
chains of four or more operations are numeric leaves.  Rational inputs
stay rational wherever the solution is a rational function of the
counts; chain roots are algebraic irrationals and use floating point.

``estimate`` is the only way into the plan executor: it validates
counts, applies zero-count reduction where it is certified, builds a
plan, dispatches it (``_execute`` for leaves, ``_combine`` for sums and
products), re-inserts the removed outcomes with probability zero, and
certifies the result once.  The leaf solvers stay public for a single
operation or a three-operation chain (a ``Chain`` from
``detect_chain``, which carries its diagram).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .decompose import (
    Chain,
    ClassicalLeaf,
    DecompositionTree,
    HorizontalSum,
    NumericLeaf,
    Product,
    build_plan,
    plan_leaves,
    plan_summary,
    plan_verdict,
)
from .diagram import (
    NORMALIZATION_TOL,
    FrequencyTable,
    GreechieDiagram,
    OutcomeId,
    log_likelihood,
    reduce_zero_counts,
    worst_gap,
)
from .errors import InfeasibleEstimate, InfeasibleReduction, NoClosedForm

Number = Union[Fraction, float]


@dataclass(frozen=True)
class MleResult:
    """Solver output: the assignment, the route that produced it, the
    log-likelihood at the assignment, and its certificate ``residual``,
    the worst constraint gap (the largest distance of an operation sum
    from 1 or of a probability from [0, 1]): exactly 0.0 on the exact
    rational routes.  Every route is stationary by construction; the
    numeric route keeps its multipliers in ``diagnostics``."""

    p: dict[OutcomeId, Number]
    method: str
    log_lik: float
    residual: float
    diagnostics: dict = field(default_factory=dict)


def finish_result(
    diagram: GreechieDiagram,
    freq: FrequencyTable,
    p: dict[OutcomeId, Number],
    method: str,
    diagnostics: Optional[dict] = None,
) -> MleResult:
    """Wrap an assignment into an MleResult and certify it.

    The residual is measured here, as the worst constraint gap of p on
    ``diagram``, and the same number decides feasibility: a gap above
    NORMALIZATION_TOL (or NaN) raises InfeasibleEstimate."""
    if p.keys() != diagram.outcome_index.keys():
        raise ValueError("the assignment must cover exactly the diagram's outcomes")
    gap = worst_gap(diagram, p)
    if not gap <= NORMALIZATION_TOL:
        raise InfeasibleEstimate(method, gap, NORMALIZATION_TOL)
    return MleResult(
        p=p,
        method=method,
        log_lik=log_likelihood(freq, p),
        residual=gap,
        diagnostics=diagnostics or {},
    )


def _sub_freq(diagram: GreechieDiagram, freq: FrequencyTable) -> dict[OutcomeId, int]:
    return {x: freq[x] for x in diagram.outcomes}


# ----------------------------------------------------------------- classical


def solve_classical(diagram: GreechieDiagram, freq: FrequencyTable) -> MleResult:
    """Single operation: p(x) = n(x) / total, in exact rationals.

    The likelihood is multinomial and the empirical distribution is its
    unique maximizer.  Raises InfeasibleReduction, as reduce_zero_counts
    does, when the operation has no observed outcome."""
    if len(diagram.operations) != 1:
        raise ValueError("solve_classical requires a single-operation diagram")
    total = sum(freq[x] for x in diagram.outcomes)
    if total == 0:
        raise InfeasibleReduction(list(diagram.operations))
    p = {x: Fraction(freq[x], total) for x in diagram.outcomes}
    return finish_result(diagram, _sub_freq(diagram, freq), p, "classical")


# --------------------------------------------------------------------- chains


def solve_chain_k(chain: Chain, freq: FrequencyTable) -> MleResult:
    """A chain of k = 3 operations, two shared outcomes: closed form via
    a quadratic.  This is the only chain solver; the planner sends
    longer chains to the numeric solver.

    Parameters c_1, c_2 are the fractions of the shared counts n(y_1),
    n(y_2) attributed to the middle operation, making its denominator
    D_2 = n(B_2) + c_1 n(y_1) + c_2 n(y_2), with
    D_1 = n(B_1) + (1-c_1) n(y_1) and D_3 = n(B_3) + (1-c_2) n(y_2).
    Equating the two expressions each shared outcome has for its
    probability gives (1-c_1)/D_1 = c_1/D_2 and (1-c_2)/D_3 = c_2/D_2;
    eliminating c_1 = (n(B_2) + c_2 n(y_2)) / (n(B_1) + n(B_2) + c_2 n(y_2))
    leaves one quadratic in c_2.  Its constant coefficient is strictly
    negative and its leading coefficient strictly positive, so c_2 is
    its one positive root, and strict concavity of the likelihood puts
    it in (0, 1).

    The complements 1-c_i are computed directly rather than by
    subtraction, which would keep only a few digits when c_i is within
    1e-8 of 1: 1-c_2 is the smaller root of the same quadratic in
    u = 1-c_2, whose other root is 1 minus the negative c_2 root, and
    1-c_1 = n(B_1) / (n(B_1) + n(B_2) + c_2 n(y_2)).
    Raises ValueError unless every operation has a nonempty interior
    and every count is positive."""
    for x in chain.diagram.outcomes:
        if freq[x] <= 0:
            raise ValueError(
                f"solve_chain_k requires positive counts; {x!r} has {freq[x]}"
            )
    if not all(chain.interiors):
        raise ValueError("solve_chain_k requires a nonempty interior in every operation")
    b1, b2, b3 = (sum(freq[x] for x in interior) for interior in chain.interiors)
    m1, m2 = (freq[y] for y in chain.shared)

    # Integer quadratic coefficients for c_2.
    qa = m2 * (b2 + m1 + b3)
    qb = b2 * (b1 + b2 + m1) + b3 * (b1 + b2) - m2 * (b2 + m1)
    qc = -b2 * (b1 + b2 + m1)
    c2 = max(_stable_quadratic_roots(qa, qb, qc))
    u2 = min(_stable_quadratic_roots(qa, -(2 * qa + qb), qa + qb + qc))
    c1 = elimination_c1(b1, b2, m2, c2)
    u1 = b1 / (b1 + b2 + c2 * m2)

    d1 = b1 + u1 * m1
    d2 = b2 + c1 * m1 + c2 * m2
    d3 = b3 + u2 * m2
    p: dict[OutcomeId, Number] = {}
    for interior, d in zip(chain.interiors, (d1, d2, d3)):
        for x in interior:
            p[x] = freq[x] / d
    y1, y2 = chain.shared
    p[y1] = c1 * m1 / d2
    p[y2] = c2 * m2 / d2

    diagnostics = {
        "splitting_parameters": [c1, c2],
        "denominators": [d1, d2, d3],
    }
    return finish_result(
        chain.diagram, _sub_freq(chain.diagram, freq), p, "chain-closed", diagnostics
    )


def _stable_quadratic_roots(qa: int, qb: int, qc: int) -> tuple[float, float]:
    """Both real roots of qa x^2 + qb x + qc, avoiding cancellation by
    computing the larger-magnitude root first.

    Callers guarantee a positive discriminant.  For c_2 it follows from
    qa > 0 > qc.  The quadratic in u = 1-c_2 has qc = f(1) > 0 instead,
    but it is the c_2 quadratic reflected by x -> 1-x, and the
    reflection keeps the discriminant.  So disc > 0 and q != 0 in both:
    the integer discriminant is exact, and |q| >= sqrt(disc) / 2."""
    disc = qb * qb - 4 * qa * qc
    s = math.sqrt(disc)
    if qb >= 0:
        q = -(qb + s) / 2.0
    else:
        q = -(qb - s) / 2.0
    return (q / qa, qc / q)


def elimination_c1(b1: int, b2: int, m2: int, c2: Number) -> Number:
    """The c_1 that satisfies the first consistency equation for a given
    c_2.  solve_chain_k evaluates it at its root c_2; the identity holds
    for any c_2, which the tests verify in exact rational arithmetic."""
    return (b2 + c2 * m2) / (b1 + b2 + c2 * m2)


# ----------------------------------------------------------------- dispatcher


def _execute(
    plan: DecompositionTree, freq: FrequencyTable, path: str
) -> tuple[dict[OutcomeId, Number], str, dict]:
    """The assignment, route name and diagnostics of one plan node, all
    new objects the caller may change, from counts over exactly the
    node's outcomes.  Leaf solvers certify their own results; composite
    nodes are feasible whenever their children are, and the caller
    certifies the root.  An error raised below gains a ``node_path``
    attribute locating the failing node in the tree."""
    try:
        if isinstance(plan, (HorizontalSum, Product)):
            return _combine(plan, freq, path)
        if isinstance(plan, ClassicalLeaf):
            result = solve_classical(plan.diagram, freq)
        elif isinstance(plan, Chain):
            result = solve_chain_k(plan, freq)
        else:
            assert isinstance(plan, NumericLeaf)
            from .numeric import solve_numeric

            result = solve_numeric(plan.diagram, freq)
        return result.p, result.method, result.diagnostics
    except Exception as exc:
        if not hasattr(exc, "node_path"):
            exc.node_path = path
        raise


def _combine(
    plan: Union[HorizontalSum, Product], freq: FrequencyTable, path: str
) -> tuple[dict[OutcomeId, Number], str, dict]:
    """A sum is the union of its children's assignments; a product
    scales each factor's assignment by the factor's share of the total
    count.  Plans are built only on positive counts, so no total is
    zero.  A product operation sums to sum_i w_i (factor i's
    operation sum) with sum_i w_i = 1, so no check is needed here beyond
    the children's."""
    is_sum = isinstance(plan, HorizontalSum)
    children = plan.children if is_sum else plan.factors
    label = "sum" if is_sum else "product"
    totals = [sum(freq[x] for x in child.diagram.outcomes) for child in children]
    grand = sum(totals)
    weights = [Fraction(total, grand) for total in totals]
    p: dict[OutcomeId, Number] = {}
    split: list[float] = []
    methods: list[str] = []
    for i, (child, w) in enumerate(zip(children, weights)):
        q, method, diagnostics = _execute(
            child, _sub_freq(child.diagram, freq), f"{path}/{label}[{i}]"
        )
        p.update(q if is_sum else {x: w * v for x, v in q.items()})
        split.extend(diagnostics.get("splitting_parameters", []))
        methods.append(method)
    combined: dict = {} if is_sum else {"weights": [float(w) for w in weights]}
    if split:
        combined["splitting_parameters"] = split
    combined["child_methods"] = methods
    return p, "horizontal" if is_sum else "product", combined


# ------------------------------------------------------------------ estimate


def estimate(
    diagram: GreechieDiagram,
    freq: FrequencyTable,
    method: str = "auto",
) -> MleResult:
    """Full pipeline: validate counts, drop the zero-count outcomes
    where reduce_zero_counts certifies that optimal, solve, and
    re-insert the dropped outcomes with probability zero.  Counts that
    still hold a zero after reduction go whole to the general solver, a
    single numeric leaf, which gives unobserved outcomes the
    probabilities the maximizer needs.

    method "auto" uses the decomposition plan, "closed" additionally
    rejects plans containing a numeric leaf (NoClosedForm), and
    "numeric" forces the general solver on the whole reduced diagram.
    finish_result certifies each leaf and then the result, on
    ``diagram``, against NORMALIZATION_TOL.  An operation without an
    observed outcome raises InfeasibleReduction; an assignment that
    misses the constraints raises InfeasibleEstimate."""
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    reduction = reduce_zero_counts(diagram, freq)
    if 0 in reduction.freq.values():  # no certificate for the reduction
        plan: DecompositionTree = NumericLeaf(reduction.diagram)
    else:
        plan = build_plan(reduction.diagram)
    verdict = plan_verdict(plan)
    if method == "closed" and verdict == "numeric-only":
        culprit = next(leaf for leaf in plan_leaves(plan) if isinstance(leaf, NumericLeaf))
        raise NoClosedForm(culprit.diagram.outcomes)
    run = NumericLeaf(reduction.diagram) if method == "numeric" else plan
    p, route, diagnostics = _execute(run, reduction.freq, "root")
    for x in diagram.outcomes:  # declaration order, not the set's
        if x in reduction.zeroed:
            p[x] = Fraction(0)
    diagnostics["tree"] = plan_summary(plan)
    diagnostics["verdict"] = verdict
    if reduction.zeroed:
        diagnostics["zeroed"] = sorted(reduction.zeroed)
    try:
        return finish_result(diagram, freq, p, route, diagnostics)
    except InfeasibleEstimate as exc:
        exc.node_path = "root"
        raise
