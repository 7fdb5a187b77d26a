"""Closed-form maximum likelihood solvers and the plan dispatcher.

The estimators here cover every structure recognized by the
decomposition pass: single operations (the multinomial case, solved by
the empirical distribution), horizontal sums (independent subproblems),
products (operation weights times conditional factor solutions), and
chains (splitting parameters satisfying a consistency system that is
linear for two operations, quadratic for three, and solved iteratively
beyond that).  Rational inputs stay rational wherever the solution is a
rational function of the counts; chain roots are algebraic irrationals
and use floating point with a 1e-12 residual target.

``estimate`` is the top-level entry point: it validates counts, applies
zero-count reduction, builds a plan, dispatches it, and re-inserts the
removed outcomes with probability zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .decompose import (
    Chain,
    ChainDescriptor,
    ClassicalLeaf,
    DecompositionTree,
    HorizontalSum,
    NumericLeaf,
    Product,
    build_plan,
    plan_summary,
    plan_verdict,
)
from .diagram import (
    FrequencyTable,
    GreechieDiagram,
    Operation,
    OutcomeId,
    ProbabilityAssignment,
    check_frequencies,
    check_probability,
    log_likelihood,
    reduce_zero_counts,
)
from .errors import (
    InfeasibleEstimate,
    InfeasibleReduction,
    NoClosedForm,
    NonConvergence,
    NoRootInUnitInterval,
    ZeroComponent,
    ZeroFactor,
    ZeroTotal,
)

Number = Union[Fraction, float]


@dataclass(frozen=True)
class BlockStats:
    """Count and probability mass of an outcome block, plus their ratio.

    At the optimum the ratio n(x)/p(x) is constant across each classical
    operation and across each chain interior block; this is the quantity
    the tests check."""

    block: frozenset[OutcomeId]
    n_block: int
    p_block: Number

    @classmethod
    def gather(
        cls, block: Sequence[OutcomeId], freq: FrequencyTable, p: ProbabilityAssignment
    ) -> "BlockStats":
        members = frozenset(block)
        return cls(
            block=members,
            n_block=sum(freq[x] for x in members),
            p_block=sum((p[x] for x in members), start=Fraction(0)),
        )

    @property
    def ratio(self) -> Number:
        if self.p_block <= 0:
            raise ZeroDivisionError("ratio undefined: block has no probability mass")
        return self.n_block / self.p_block if isinstance(self.p_block, float) else Fraction(self.n_block) / self.p_block


@dataclass(frozen=True)
class SplittingParameters:
    """One parameter per shared outcome of a chain: the fraction of the
    shared count attributed to one of its two operations.  Strictly
    interior at the optimum whenever all counts are positive."""

    c: tuple[float, ...]

    def __post_init__(self) -> None:
        for value in self.c:
            if not 0 < value < 1:
                raise ValueError(f"splitting parameter {value!r} outside (0, 1)")


@dataclass(frozen=True)
class MleResult:
    """Solver output: the assignment, the route that produced it, the
    log-likelihood at the assignment, and an optimality certificate
    (0 by convention for exact rational routes, the consistency residual
    for chains, the KKT residual for the numeric solver)."""

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
    residual: float,
    diagnostics: Optional[dict] = None,
    tol: float = 1e-10,
) -> MleResult:
    """Wrap an assignment into an MleResult, enforcing its invariants.

    Raises InfeasibleEstimate when p leaves [0, 1] or misses an
    operation sum by more than tol."""
    if not check_probability(diagram, p, tol=tol):
        raise InfeasibleEstimate(method, _worst_gap(diagram, p), tol)
    return MleResult(
        p=p,
        method=method,
        log_lik=log_likelihood(freq, p),
        residual=residual,
        diagnostics=diagnostics or {},
    )


def _worst_gap(diagram: GreechieDiagram, p: dict[OutcomeId, Number]) -> float:
    """Largest distance of an operation sum from 1, or of a probability
    from [0, 1]."""
    sums = (abs(float(sum(p[x] for x in op)) - 1.0) for op in diagram.operations)
    box = (max(-float(v), float(v) - 1.0, 0.0) for v in p.values())
    return max(itertools.chain(sums, box), default=0.0)


def _sub_freq(diagram: GreechieDiagram, freq: FrequencyTable) -> dict[OutcomeId, int]:
    return {x: freq[x] for x in diagram.outcomes}


# ----------------------------------------------------------------- classical


def solve_classical(
    edge: Union[GreechieDiagram, Operation], freq: FrequencyTable
) -> MleResult:
    """Single operation: p(x) = n(x) / total, in exact rationals.

    The likelihood is multinomial and the empirical distribution is its
    unique maximizer.  Raises ZeroTotal when nothing was observed."""
    if isinstance(edge, GreechieDiagram):
        diagram = edge
        if len(diagram.operations) != 1:
            raise ValueError("solve_classical requires a single-operation diagram")
    else:
        diagram = GreechieDiagram(outcomes=tuple(edge), operations=(tuple(edge),))
    total = sum(freq[x] for x in diagram.outcomes)
    if total == 0:
        raise ZeroTotal()
    p = {x: Fraction(freq[x], total) for x in diagram.outcomes}
    return finish_result(diagram, _sub_freq(diagram, freq), p, "classical", 0.0)


# ------------------------------------------------------- horizontal / product


def solve_horizontal(
    components: Sequence[GreechieDiagram],
    freq: FrequencyTable,
    *,
    diagram: Optional[GreechieDiagram] = None,
) -> MleResult:
    """Disconnected pieces are independent: solve each on its own counts
    and return the union assignment.

    Each component needs at least one observation; a component with
    total count zero has an unidentified conditional distribution and
    raises ZeroComponent rather than silently picking one."""
    seen: set[OutcomeId] = set()
    for comp in components:
        overlap = seen.intersection(comp.outcomes)
        if overlap:
            raise ValueError(f"components are not disjoint: {sorted(overlap)}")
        seen.update(comp.outcomes)
    for i, comp in enumerate(components):
        if sum(freq[x] for x in comp.outcomes) == 0:
            raise ZeroComponent(i)
    children = [execute_plan(build_plan(comp), _sub_freq(comp, freq)) for comp in components]
    if diagram is None:
        diagram = GreechieDiagram(
            outcomes=tuple(itertools.chain.from_iterable(c.outcomes for c in components)),
            operations=tuple(itertools.chain.from_iterable(c.operations for c in components)),
        )
    return _stitch(diagram, freq, children, "horizontal")


def solve_product(
    factors: Sequence[GreechieDiagram],
    freq: FrequencyTable,
    *,
    diagram: Optional[GreechieDiagram] = None,
) -> MleResult:
    """Product structure: weight each factor by its share of the total
    count, then scale each factor's conditional solution.

    The factor count n(B_i) sums the observations of the factor's
    outcomes, the weight is n(B_i) / sum_j n(B_j), and the conditional
    estimate within factor i is that factor's own MLE, so
    p(x) = weight_i * p(x | factor i).  Exact when the factors solve
    exactly."""
    totals = [sum(freq[x] for x in f.outcomes) for f in factors]
    for i, t in enumerate(totals):
        if t == 0:
            raise ZeroFactor(i)
    grand = sum(totals)
    weights = [Fraction(t, grand) for t in totals]
    children = [execute_plan(build_plan(f), _sub_freq(f, freq)) for f in factors]
    p: dict[OutcomeId, Number] = {}
    for w, child in zip(weights, children):
        for x, q in child.p.items():
            p[x] = w * q
    if diagram is None:
        # Reconstruct the full product: one operation per combination of
        # factor operations.  Only the edge sets matter for validation.
        combos = itertools.product(*(f.operations for f in factors))
        diagram = GreechieDiagram(
            outcomes=tuple(itertools.chain.from_iterable(f.outcomes for f in factors)),
            operations=tuple(
                tuple(itertools.chain.from_iterable(combo)) for combo in combos
            ),
        )
    diagnostics = {"weights": [float(w) for w in weights]}
    _merge_child_diagnostics(diagnostics, children)
    residual = max((c.residual for c in children), default=0.0)
    return finish_result(
        diagram, _sub_freq(diagram, freq), p, "product", residual, diagnostics
    )


def _stitch(
    diagram: GreechieDiagram,
    freq: FrequencyTable,
    children: Sequence[MleResult],
    method: str,
) -> MleResult:
    p: dict[OutcomeId, Number] = {}
    for child in children:
        p.update(child.p)
    diagnostics: dict = {}
    _merge_child_diagnostics(diagnostics, children)
    residual = max((c.residual for c in children), default=0.0)
    return finish_result(diagram, _sub_freq(diagram, freq), p, method, residual, diagnostics)


def _merge_child_diagnostics(diagnostics: dict, children: Sequence[MleResult]) -> None:
    split: list[float] = []
    methods: list[str] = []
    for child in children:
        split.extend(child.diagnostics.get("splitting_parameters", []))
        methods.append(child.diagnostics.get("method_chain", child.method))
    if split:
        diagnostics["splitting_parameters"] = split
    diagnostics["child_methods"] = methods


# --------------------------------------------------------------------- chains


def _chain_counts(
    chain: ChainDescriptor, freq: FrequencyTable
) -> tuple[list[int], list[int]]:
    """Interior block totals b_1..b_m and shared counts per parameter."""
    for edge in chain.edges:
        for x in edge:
            if freq[x] <= 0:
                raise ValueError(
                    f"chain solvers require positive counts; {x!r} has {freq[x]}"
                )
    if not all(chain.interiors):
        raise ValueError("chain solvers require a nonempty interior in every operation")
    b = [sum(freq[x] for x in interior) for interior in chain.interiors]
    mu = [freq[y] for y in chain.shared]
    return b, mu


def _chain_diagram(chain: ChainDescriptor) -> GreechieDiagram:
    outcomes: list[OutcomeId] = []
    seen: set[OutcomeId] = set()
    for edge in chain.edges:
        for x in edge:
            if x not in seen:
                seen.add(x)
                outcomes.append(x)
    return GreechieDiagram(outcomes=tuple(outcomes), operations=chain.edges)


def solve_chain2(
    chain: ChainDescriptor,
    freq: FrequencyTable,
    *,
    diagram: Optional[GreechieDiagram] = None,
) -> MleResult:
    """Three operations, two shared outcomes: closed form via a quadratic.

    Parameters c_1, c_2 are the fractions of the shared counts n(y_1),
    n(y_2) attributed to the middle operation, making its denominator
    D_2 = n(B_2) + c_1 n(y_1) + c_2 n(y_2), with
    D_1 = n(B_1) + (1-c_1) n(y_1) and D_3 = n(B_3) + (1-c_2) n(y_2).
    Equating the two expressions each shared outcome has for its
    probability gives (1-c_1)/D_1 = c_1/D_2 and (1-c_2)/D_3 = c_2/D_2;
    eliminating c_1 = (n(B_2) + c_2 n(y_2)) / (n(B_1) + n(B_2) + c_2 n(y_2))
    leaves one quadratic in c_2.  Its constant coefficient is strictly
    negative and its leading coefficient strictly positive, so exactly
    one root is positive, and strict concavity of the likelihood puts it
    in (0, 1)."""
    if chain.m != 3:
        raise ValueError("solve_chain2 requires exactly three operations")
    (b1, b2, b3), (m1, m2) = _chain_counts(chain, freq)

    # Integer quadratic coefficients for c_2.
    qa = m2 * (b2 + m1 + b3)
    qb = b2 * (b1 + b2 + m1) + b3 * (b1 + b2) - m2 * (b2 + m1)
    qc = -b2 * (b1 + b2 + m1)
    roots = _stable_quadratic_roots(qa, qb, qc)
    inside = [r for r in roots if 0.0 < r < 1.0]
    if len(inside) != 1:
        if len(inside) == 2 and abs(inside[0] - inside[1]) <= 1e-14:
            inside = inside[:1]
        else:
            raise NoRootInUnitInterval(tuple(roots))
    c2 = inside[0]
    c1 = (b2 + c2 * m2) / (b1 + b2 + c2 * m2)

    d1 = b1 + (1.0 - c1) * m1
    d2 = b2 + c1 * m1 + c2 * m2
    d3 = b3 + (1.0 - c2) * m2
    p: dict[OutcomeId, Number] = {}
    for interior, d in zip(chain.interiors, (d1, d2, d3)):
        for x in interior:
            p[x] = freq[x] / d
    y1, y2 = chain.shared
    p[y1] = c1 * m1 / d2
    p[y2] = c2 * m2 / d2

    residual = max(
        abs((1.0 - c1) * m1 / d1 - c1 * m1 / d2),
        abs((1.0 - c2) * m2 / d3 - c2 * m2 / d2),
    )
    if diagram is None:
        diagram = _chain_diagram(chain)
    diagnostics = {
        "splitting_parameters": [c1, c2],
        "denominators": [d1, d2, d3],
    }
    return finish_result(
        diagram, _sub_freq(diagram, freq), p, "chain-closed", residual, diagnostics
    )


def _stable_quadratic_roots(qa: int, qb: int, qc: int) -> tuple[float, float]:
    """Both real roots of qa x^2 + qb x + qc, avoiding cancellation by
    computing the larger-magnitude root first.  Callers guarantee a
    positive discriminant (here qa > 0 > qc forces two real roots)."""
    disc = qb * qb - 4 * qa * qc
    assert disc >= 0, "chain quadratic lost its real roots"
    s = math.sqrt(disc)
    if qb >= 0:
        q = -(qb + s) / 2.0
    else:
        q = -(qb - s) / 2.0
    if q == 0.0:  # qb == 0 and disc == 0
        return (0.0, 0.0)
    return (q / qa, qc / q)


def elimination_c1(b1: int, b2: int, m2: int, c2: Number) -> Number:
    """The c_1 that satisfies the first consistency equation for a given
    c_2.  Exposed separately because the identity holds for any c_2, a
    fact the tests verify in exact rational arithmetic."""
    return (b2 + c2 * m2) / (b1 + b2 + c2 * m2)


def solve_chain_k(
    chain: ChainDescriptor,
    freq: FrequencyTable,
    *,
    diagram: Optional[GreechieDiagram] = None,
    residual_target: float = 1e-12,
    max_iterations: int = 200,
) -> MleResult:
    """Chain of m >= 2 operations with m-1 splitting parameters.

    Parameter c_i splits the shared count n(y_i): c_i n(y_i) goes to the
    later operation A_{i+1} and (1-c_i) n(y_i) to A_i, giving
    denominators D_j = n(B_j) + (1-c_j) n(y_j) + c_{j-1} n(y_{j-1}) with
    the absent end terms dropped.  Probability consistency at each
    shared outcome requires (1-c_i)/D_i = c_i/D_{i+1}.

    m = 2 is linear in c_1 and solved in exact rationals.  m = 3 is the
    quadratic handled by solve_chain2.  For m >= 4 the consistency
    system is solved by damped Newton iteration with an exact
    per-coordinate fallback sweep; all iterates stay inside the open
    unit cube, where uniqueness of the optimum is guaranteed by strict
    concavity.  Raises NonConvergence if the residual target is not met
    within the iteration budget."""
    if chain.m == 3:
        return solve_chain2(chain, freq, diagram=diagram)
    b_int, mu_int = _chain_counts(chain, freq)
    if diagram is None:
        diagram = _chain_diagram(chain)

    if chain.m == 2:
        # (1-c)/D_1 = c/D_2 collapses to c = n(B_2)/(n(B_1)+n(B_2)).
        b1, b2 = b_int
        (m1,) = mu_int
        c = Fraction(b2, b1 + b2)
        d1 = b1 + (1 - c) * m1
        d2 = b2 + c * m1
        p: dict[OutcomeId, Number] = {}
        for x in chain.interiors[0]:
            p[x] = Fraction(freq[x]) / d1
        for x in chain.interiors[1]:
            p[x] = Fraction(freq[x]) / d2
        p[chain.shared[0]] = (1 - c) * m1 / d1
        diagnostics = {"splitting_parameters": [float(c)]}
        return finish_result(
            diagram, _sub_freq(diagram, freq), p, "chain-closed", 0.0, diagnostics
        )

    m = chain.m
    b = np.array(b_int, dtype=float)
    mu = np.array(mu_int, dtype=float)

    def denominators(c: np.ndarray) -> np.ndarray:
        d = b.copy()
        d[:-1] += (1.0 - c) * mu
        d[1:] += c * mu
        return d

    def residual_vec(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = denominators(c)
        return mu * ((1.0 - c) / d[:-1] - c / d[1:]), d

    c = np.full(m - 1, 0.5)
    f_val, d = residual_vec(c)
    res = float(np.max(np.abs(f_val)))
    iterations = 0
    while res >= residual_target:
        iterations += 1
        if iterations > max_iterations:
            raise NonConvergence(iterations - 1, res)
        jac = _chain_jacobian(c, d, mu)
        try:
            delta = np.linalg.solve(jac, -f_val)
        except np.linalg.LinAlgError:
            delta = None
        accepted = False
        if delta is not None:
            step = 1.0
            for _ in range(40):
                cand = c + step * delta
                if np.all(cand > 0.0) and np.all(cand < 1.0):
                    f_cand, d_cand = residual_vec(cand)
                    cand_res = float(np.max(np.abs(f_cand)))
                    if cand_res < res:
                        c, f_val, d, res = cand, f_cand, d_cand, cand_res
                        accepted = True
                        break
                step *= 0.5
        if not accepted:
            # Exact coordinate solve: with neighbors fixed, the i-th
            # consistency equation is linear in c_i.
            for i in range(m - 1):
                left = b[i] + (c[i - 1] * mu[i - 1] if i > 0 else 0.0)
                right = b[i + 1] + ((1.0 - c[i + 1]) * mu[i + 1] if i < m - 2 else 0.0)
                c[i] = right / (left + right)
            f_val, d = residual_vec(c)
            res = float(np.max(np.abs(f_val)))

    p = {}
    for j, interior in enumerate(chain.interiors):
        for x in interior:
            p[x] = freq[x] / d[j]
    for i, y in enumerate(chain.shared):
        p[y] = (1.0 - c[i]) * mu[i] / d[i]
    diagnostics = {
        "splitting_parameters": [float(v) for v in c],
        "iterations": iterations,
    }
    return finish_result(
        diagram, _sub_freq(diagram, freq), p, "chain-iterative", res, diagnostics
    )


def _chain_jacobian(c: np.ndarray, d: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Tridiagonal Jacobian of the chain consistency residuals."""
    lo = d[:-1]  # D_i for residual i
    hi = d[1:]  # D_{i+1}
    diag = mu * (((1.0 - c) * mu - lo) / lo**2 + (c * mu - hi) / hi**2)
    jac = np.diag(diag)
    if len(c) > 1:
        mid = d[1:-1]
        sub = -mu[1:] * (1.0 - c[1:]) * mu[:-1] / mid**2
        sup = -mu[:-1] * c[:-1] * mu[1:] / mid**2
        jac += np.diag(sub, k=-1) + np.diag(sup, k=1)
    return jac


# ----------------------------------------------------------------- dispatcher


def execute_plan(
    plan: DecompositionTree, freq: FrequencyTable, config=None
) -> MleResult:
    """Dispatch a decomposition tree to the matching solvers and stitch
    the pieces into one assignment over the plan's diagram.

    Chains that fail to converge fall back to the general numeric
    solver.  ``config`` (a SolverConfig, or None for its defaults) goes
    to every numeric solve.  Errors raised by a nested solver gain a
    ``node_path`` attribute locating the failing node in the tree."""
    return _execute(plan, freq, "root", config)


def _execute(
    plan: DecompositionTree, freq: FrequencyTable, path: str, config
) -> MleResult:
    try:
        if isinstance(plan, ClassicalLeaf):
            return solve_classical(plan.diagram, _sub_freq(plan.diagram, freq))
        if isinstance(plan, HorizontalSum):
            for i, child in enumerate(plan.children):
                if sum(freq[x] for x in child.diagram.outcomes) == 0:
                    raise ZeroComponent(i)
            children = [
                _execute(
                    child, _sub_freq(child.diagram, freq), f"{path}/sum[{i}]", config
                )
                for i, child in enumerate(plan.children)
            ]
            return _stitch(plan.diagram, freq, children, "horizontal")
        if isinstance(plan, Product):
            return _execute_product(plan, freq, path, config)
        if isinstance(plan, Chain):
            try:
                return solve_chain_k(plan.descriptor, freq, diagram=plan.diagram)
            except NonConvergence:
                from .numeric import solve_numeric

                result = solve_numeric(plan.diagram, freq, config)
                result.diagnostics["fallback_from"] = "chain-iterative"
                return result
        assert isinstance(plan, NumericLeaf)
        from .numeric import solve_numeric

        return solve_numeric(plan.diagram, freq, config)
    except Exception as exc:
        if not hasattr(exc, "node_path"):
            exc.node_path = path
        raise


def _execute_product(
    plan: Product, freq: FrequencyTable, path: str, config
) -> MleResult:
    totals = [sum(freq[x] for x in f.diagram.outcomes) for f in plan.factors]
    for i, t in enumerate(totals):
        if t == 0:
            raise ZeroFactor(i)
    grand = sum(totals)
    weights = [Fraction(t, grand) for t in totals]
    children = [
        _execute(f, _sub_freq(f.diagram, freq), f"{path}/product[{i}]", config)
        for i, f in enumerate(plan.factors)
    ]
    p: dict[OutcomeId, Number] = {}
    for w, child in zip(weights, children):
        for x, q in child.p.items():
            p[x] = w * q
    diagnostics = {"weights": [float(w) for w in weights]}
    _merge_child_diagnostics(diagnostics, children)
    residual = max((c.residual for c in children), default=0.0)
    return finish_result(
        plan.diagram, _sub_freq(plan.diagram, freq), p, "product", residual, diagnostics
    )


# ------------------------------------------------------------------ estimate


def estimate(
    diagram: GreechieDiagram,
    freq: FrequencyTable,
    method: str = "auto",
    config=None,
) -> MleResult:
    """Full pipeline: validate counts, drop zero-count outcomes, solve
    the reduced problem, and re-insert the dropped outcomes with
    probability zero (which is what maximizes the likelihood for them).

    method "auto" uses the decomposition plan, "closed" additionally
    rejects plans containing a numeric leaf (NoClosedForm), and
    "numeric" forces the general solver on the whole reduced diagram.
    ``config`` (a SolverConfig) sets the stopping rules of every numeric
    solve on each route.  Reduction that empties an operation makes the
    remaining constraints unsatisfiable as stated and raises
    InfeasibleReduction; an assignment that misses the constraints
    raises InfeasibleEstimate."""
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    check_frequencies(diagram, freq)
    reduction = reduce_zero_counts(diagram, freq)
    if reduction.dropped_operations:
        raise InfeasibleReduction(reduction.dropped_operations)

    plan = build_plan(reduction.diagram)
    if method == "numeric":
        from .numeric import solve_numeric

        inner = solve_numeric(reduction.diagram, reduction.freq, config)
    else:
        if method == "closed" and plan_verdict(plan) == "numeric-only":
            culprit = _first_numeric_leaf(plan)
            raise NoClosedForm(culprit.diagram.outcomes)
        inner = execute_plan(plan, reduction.freq, config)

    p: dict[OutcomeId, Number] = dict(inner.p)
    for x in reduction.zeroed:
        p[x] = Fraction(0)
    diagnostics = dict(inner.diagnostics)
    diagnostics["tree"] = plan_summary(plan)
    diagnostics["verdict"] = plan_verdict(plan)
    if reduction.zeroed:
        diagnostics["zeroed"] = sorted(reduction.zeroed)
    # Numeric results are only as feasible as the solver's stopping rule.
    if method == "numeric" or plan_verdict(plan) == "numeric-only":
        tol = 1e-9
        if config is not None:
            tol = max(tol, float(config.kkt_tolerance))
    else:
        tol = 1e-10
    return finish_result(diagram, freq, p, inner.method, inner.residual, diagnostics, tol=tol)


def _first_numeric_leaf(plan: DecompositionTree) -> NumericLeaf:
    if isinstance(plan, NumericLeaf):
        return plan
    if isinstance(plan, HorizontalSum):
        for child in plan.children:
            found = _first_numeric_leaf_or_none(child)
            if found is not None:
                return found
    if isinstance(plan, Product):
        for child in plan.factors:
            found = _first_numeric_leaf_or_none(child)
            if found is not None:
                return found
    raise AssertionError("plan contains no numeric leaf")


def _first_numeric_leaf_or_none(plan: DecompositionTree) -> Optional[NumericLeaf]:
    try:
        return _first_numeric_leaf(plan)
    except AssertionError:
        return None
