"""Exception types shared across the package.

Construction errors carry the offending object so callers can report
precise diagnostics without re-deriving them.  An error raised while
``estimate`` runs its plan also carries ``node_path`` (such as
"root/sum[1]"), the plan node that failed.
"""

from __future__ import annotations


def operation_text(members: tuple[str, ...]) -> str:
    """An operation as shown in messages: its members in declaration
    order, so the text does not depend on set iteration order."""
    return "{" + ",".join(members) + "}"


class GreechieError(Exception):
    """Base class for all errors raised by this package."""


class DiagramError(GreechieError):
    """A diagram definition is malformed."""


class DuplicateOutcome(DiagramError):
    def __init__(self, outcome: str, where: str = "outcome list"):
        self.outcome = outcome
        super().__init__(f"duplicate outcome {outcome!r} in {where}")


class DuplicateEdge(DiagramError):
    def __init__(self, members: tuple[str, ...]):
        self.members = members
        super().__init__(
            f"two operations share the member set {operation_text(members)}"
        )


class EmptyEdge(DiagramError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"operation #{index} has no members")


class UncoveredOutcome(DiagramError):
    def __init__(self, outcome: str):
        self.outcome = outcome
        super().__init__(f"outcome {outcome!r} belongs to no operation")


class UnknownMember(DiagramError):
    def __init__(self, member: str, index: int):
        self.member = member
        self.index = index
        super().__init__(f"operation #{index} names undeclared outcome {member!r}")


class IntersectionTooLarge(GreechieError):
    """Two operations share more than one outcome, so the cycle-length
    criteria are not applicable to this diagram.  This does not mean the
    diagram is invalid as a hypergraph."""

    def __init__(self, edge_a: tuple[str, ...], edge_b: tuple[str, ...]):
        self.edge_a = edge_a
        self.edge_b = edge_b
        shared = set(edge_a) & set(edge_b)
        super().__init__(
            f"operations {operation_text(edge_a)} and {operation_text(edge_b)} "
            f"share {sorted(shared)!r}; "
            "cycle criteria require pairwise intersections of at most one outcome"
        )


class EmptyAfterReduction(GreechieError):
    """Every recorded count is zero, so nothing remains to estimate."""


class InfeasibleReduction(GreechieError):
    """Some operation has no observed outcome, so its unit sum would
    rest on unobserved outcomes alone; such counts are rejected
    rather than estimated."""

    def __init__(self, edges: list[tuple[str, ...]]):
        self.edges = edges
        super().__init__(
            f"{len(edges)} operation(s) lost every member to zero counts: "
            + "; ".join(operation_text(e) for e in edges)
        )


class EstimationError(GreechieError):
    """A solver could not produce an estimate."""


class ZeroTotal(EstimationError):
    def __init__(self) -> None:
        super().__init__("all counts are zero, the classical estimate is undefined")


class NonConvergence(EstimationError):
    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations, last residual {residual:.3e}"
        )


class InfeasibleEstimate(EstimationError):
    """A solver route returned an assignment outside the feasible set.

    ``gap`` is the worst constraint gap: the largest distance of an
    operation sum from 1 or of a probability from [0, 1]."""

    def __init__(self, route: str, gap: float, tol: float):
        self.route = route
        self.gap = gap
        self.tol = tol
        super().__init__(
            f"solver produced an infeasible assignment via {route}: "
            f"worst constraint gap {gap:.3e} exceeds tolerance {tol:.1e}"
        )


class NoClosedForm(EstimationError):
    """Raised when a closed-form solution was demanded but the plan
    contains a numeric leaf."""

    def __init__(self, outcomes: tuple[str, ...]):
        self.outcomes = outcomes
        super().__init__(
            "no closed form: a numeric-only subproblem covers outcomes "
            + ", ".join(outcomes)
        )


class DegeneratePolytope(GreechieError):
    """The feasible set is a single point; there is nothing to sample.
    The unique point is attached for callers that can use it directly."""

    def __init__(self, point):
        self.point = point
        super().__init__("feasible polytope is zero-dimensional")
