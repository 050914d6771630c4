"""Exact inference on cycle-free discrete factor graphs, generic over
commutative semirings.

The entropy semiring carries (score, aux) pairs through ordinary
sum-product message passing, so one run yields the partition function
together with the weighted-log accumulator needed for model entropy, EM
updates, and gradients.
"""

from .entropy import (
    EntropyResult,
    WeightedGraph,
    compute_zh,
    derive_log2_companions,
    entropy_in_base,
    posterior_entropy,
)
from .errors import (
    CycleDetected,
    DegenerateMStep,
    FactorGraphError,
    MissingDependency,
    NonFiniteTotal,
    OutOfDomain,
    ParseError,
    ScopeMismatch,
    TooLarge,
    UncoveredVariable,
    UndefinedQuotient,
    UnknownVariable,
    ZeroEvidence,
)
from .graph import (
    FactorGraph,
    FactorTable,
    Schedule,
    VariableDecl,
    assignment_from_index,
    assignment_index,
    make_schedule,
    validate,
)
from .hmm import HmmSpec, hmm_entropy, hmm_to_weighted_graph
from .learning import (
    EmStepResult,
    ParametricFactorSet,
    em_linear_step,
    em_q_gradient,
    grad_ascent_step,
    gradient_at,
)
from .propagation import MarginalResult, RunMessages, run, total_sum
from .semiring import (
    BOOLEAN,
    ENTROPY,
    MAX_PRODUCT,
    SUM_PRODUCT,
    EntropyWeight,
    Semiring,
    entropy_product_closed_form,
    get_semiring,
    lift,
    verify_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "BOOLEAN",
    "ENTROPY",
    "MAX_PRODUCT",
    "SUM_PRODUCT",
    "CycleDetected",
    "DegenerateMStep",
    "EmStepResult",
    "EntropyResult",
    "EntropyWeight",
    "FactorGraph",
    "FactorGraphError",
    "FactorTable",
    "HmmSpec",
    "MarginalResult",
    "MissingDependency",
    "NonFiniteTotal",
    "OutOfDomain",
    "ParametricFactorSet",
    "ParseError",
    "RunMessages",
    "Schedule",
    "ScopeMismatch",
    "Semiring",
    "TooLarge",
    "UncoveredVariable",
    "UndefinedQuotient",
    "UnknownVariable",
    "VariableDecl",
    "WeightedGraph",
    "ZeroEvidence",
    "assignment_from_index",
    "assignment_index",
    "compute_zh",
    "derive_log2_companions",
    "em_linear_step",
    "em_q_gradient",
    "entropy_in_base",
    "entropy_product_closed_form",
    "get_semiring",
    "grad_ascent_step",
    "gradient_at",
    "hmm_entropy",
    "hmm_to_weighted_graph",
    "lift",
    "make_schedule",
    "posterior_entropy",
    "run",
    "total_sum",
    "validate",
    "verify_axioms",
]
