"""Error types shared across the package.

Every error carries a stable ``kind`` string (used verbatim in CLI error
JSON) and an ``exit_code``: 1 for validation and parse failures, 2 for
runtime failures on well-formed inputs.
"""


class FactorGraphError(Exception):
    """Base class for all package errors."""

    kind = "FactorGraphError"
    exit_code = 1

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class ParseError(FactorGraphError):
    """Malformed document: wrong JSON shape, types, or field contents."""

    kind = "ParseError"


class CycleDetected(FactorGraphError):
    """The factor graph contains a cycle; only trees and forests run."""

    kind = "CycleDetected"


class ScopeMismatch(FactorGraphError):
    """A factor table disagrees with its scope (length, repeats, emptiness)."""

    kind = "ScopeMismatch"


class UnknownVariable(FactorGraphError):
    """A scope or query names a variable that was never declared."""

    kind = "UnknownVariable"


class UncoveredVariable(FactorGraphError):
    """A declared variable appears in no factor scope."""

    kind = "UncoveredVariable"


class OutOfDomain(FactorGraphError):
    """A value lies outside a declared finite domain."""

    kind = "OutOfDomain"


class MissingDependency(FactorGraphError):
    """A message was requested before the messages feeding it were computed."""

    kind = "MissingDependency"


class TooLarge(FactorGraphError):
    """Brute-force enumeration refused: joint assignment count over the guard."""

    kind = "TooLarge"


class ZeroEvidence(FactorGraphError):
    """Total weight is (numerically) zero; posterior quantities are undefined."""

    kind = "ZeroEvidence"
    exit_code = 2


class NonFiniteTotal(FactorGraphError):
    """A total is inf or NaN: table entries so large that one factor's sum
    overflows before the pass can rescale it."""

    kind = "NonFiniteTotal"
    exit_code = 2


class DegenerateMStep(FactorGraphError):
    """The closed-form M-step denominator vanishes relative to the numerator."""

    kind = "DegenerateMStep"
    exit_code = 2


class UndefinedQuotient(FactorGraphError):
    """A gradient-over-value table entry divides a nonzero by zero."""

    kind = "UndefinedQuotient"
    exit_code = 2
