"""Exact inference on cycle-free discrete factor graphs, generic over
commutative semirings.

The entropy semiring carries (score, aux) pairs through ordinary
sum-product message passing, so one run yields the partition function
together with the weighted-log accumulator needed for model entropy, EM
updates, and gradients.
"""

from types import ModuleType as _ModuleType

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
    make_schedule,
    validate,
)
from .hmm import HmmSpec, hmm_entropy, hmm_to_weighted_graph
from .learning import (
    EmStepResult,
    ParametricFactorSet,
    em_linear_step,
    em_q_gradient,
    gradient_at,
)
from .propagation import MarginalResult, RunMessages, run
from .semiring import (
    BOOLEAN,
    ENTROPY,
    MAX_PRODUCT,
    SUM_PRODUCT,
    Semiring,
    get_semiring,
    verify_axioms,
)

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
