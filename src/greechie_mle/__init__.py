"""Maximum likelihood estimation on finite quantum event structures.

Event structures are finite hypergraphs: outcomes (vertices) grouped
into operations (edges), each operation's probabilities summing to one.
Given observed outcome counts, the library computes the maximum
likelihood probability assignment, in closed form where the structure
decomposes into operations, horizontal sums, products, and chains of
three operations, and by a certified concave solver otherwise.
"""

from .closed_form import (
    MleResult,
    elimination_c1,
    estimate,
    finish_result,
    solve_chain_k,
    solve_classical,
)
from .decompose import (
    Chain,
    ClassicalLeaf,
    DecompositionTree,
    HorizontalSum,
    NumericLeaf,
    Product,
    build_plan,
    connected_components,
    detect_chain,
    factor_product,
    plan_summary,
    plan_verdict,
)
from .diagram import (
    GreechieDiagram,
    Reduction,
    ValidationReport,
    Violation,
    build_diagram,
    check_frequencies,
    check_g1,
    check_g2,
    check_probability,
    log_likelihood,
    minimum_cycle_length,
    reduce_zero_counts,
    validate_diagram,
)
from .errors import (
    DiagramError,
    DuplicateEdge,
    DuplicateOutcome,
    EmptyEdge,
    EstimationError,
    GreechieError,
    InfeasibleEstimate,
    InfeasibleReduction,
    IntersectionTooLarge,
    NoClosedForm,
    NonConvergence,
    UncoveredOutcome,
    UnknownMember,
)
from .numeric import kkt_residual, solve_numeric
from .oracle import (
    OracleBudget,
    brute_force_mle,
    incidence_matrix,
    nullspace_basis,
    sample_feasible,
)
from .sampler import OperationPolicy, sample_outcomes
from . import shapes

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "ClassicalLeaf",
    "DecompositionTree",
    "DiagramError",
    "DuplicateEdge",
    "DuplicateOutcome",
    "EmptyEdge",
    "EstimationError",
    "GreechieDiagram",
    "GreechieError",
    "HorizontalSum",
    "InfeasibleEstimate",
    "InfeasibleReduction",
    "IntersectionTooLarge",
    "MleResult",
    "NoClosedForm",
    "NonConvergence",
    "NumericLeaf",
    "OperationPolicy",
    "OracleBudget",
    "Product",
    "Reduction",
    "UncoveredOutcome",
    "UnknownMember",
    "ValidationReport",
    "Violation",
    "brute_force_mle",
    "build_diagram",
    "build_plan",
    "check_frequencies",
    "check_g1",
    "check_g2",
    "check_probability",
    "connected_components",
    "detect_chain",
    "elimination_c1",
    "estimate",
    "factor_product",
    "finish_result",
    "incidence_matrix",
    "kkt_residual",
    "log_likelihood",
    "minimum_cycle_length",
    "nullspace_basis",
    "plan_summary",
    "plan_verdict",
    "reduce_zero_counts",
    "sample_feasible",
    "sample_outcomes",
    "shapes",
    "solve_chain_k",
    "solve_classical",
    "solve_numeric",
    "validate_diagram",
]
