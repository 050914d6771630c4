"""Error types shared across the package.

Every error carries a stable ``kind`` string, its class name (used
verbatim in CLI error JSON), and an ``exit_code``: 1 for validation and
parse failures, 2 for runtime failures on well-formed inputs.
"""


class FactorGraphError(Exception):
    """Base class for all package errors."""

    kind = "FactorGraphError"
    exit_code = 1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class ParseError(FactorGraphError):
    """Malformed document: wrong JSON shape, types, or field contents."""


class CycleDetected(FactorGraphError):
    """The factor graph contains a cycle; only trees and forests run."""


class ScopeMismatch(FactorGraphError):
    """A factor table disagrees with its scope (length, repeats, emptiness)."""


class UnknownVariable(FactorGraphError):
    """A scope or query names a variable that was never declared."""


class UncoveredVariable(FactorGraphError):
    """A declared variable appears in no factor scope."""


class OutOfDomain(FactorGraphError):
    """A value lies outside a declared finite domain."""


class MissingDependency(FactorGraphError):
    """A message was requested before the messages feeding it were computed."""


class TooLarge(FactorGraphError):
    """Brute-force enumeration refused: joint assignment count over the guard."""


class ZeroEvidence(FactorGraphError):
    """Total weight is (numerically) zero; posterior quantities are undefined."""

    exit_code = 2


class NonFiniteTotal(FactorGraphError):
    """A total is inf or NaN: table entries so large that one factor's sum
    overflows before the pass can rescale it."""

    exit_code = 2


class DegenerateMStep(FactorGraphError):
    """The closed-form M-step denominator vanishes relative to the numerator."""

    exit_code = 2


class UndefinedQuotient(FactorGraphError):
    """A gradient-over-value table entry divides a nonzero by zero."""

    exit_code = 2
