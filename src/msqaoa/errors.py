"""Exception hierarchy shared across the package.

Two families matter to callers: ``ValidationError`` (bad inputs, CLI exit
code 2) and ``CapExceededError`` (a documented size/budget cap was hit,
CLI exit code 3).
"""


class MsqaoaError(Exception):
    """Base class for all package errors."""


class ValidationError(MsqaoaError, ValueError):
    """Invalid input that violates a documented precondition."""


class CapExceededError(MsqaoaError):
    """A documented size or budget cap was exceeded."""


# -- model ----------------------------------------------------------------

class DegreeZeroError(ValidationError):
    """Degree bound d must be at least 1."""


class NegativeSigmaError(ValidationError):
    """Per-degree standard deviations must be non-negative."""


class AllZeroError(ValidationError):
    """At least one per-degree standard deviation must be positive."""


class LengthMismatchError(ValidationError):
    """A sequence argument has the wrong length."""


class TooFewSpinsError(ValidationError):
    """Instance size n must be at least the degree bound d."""


class NonBinaryEntryError(ValidationError):
    """Spin strings must contain only +1 and -1 entries."""


# -- closed_form ----------------------------------------------------------

class DegreeTooLargeError(ValidationError):
    """Closed-form evaluation caps the degree bound at d <= 20."""


class NonPositiveMError(ValidationError):
    """Moment order m must be at least 1."""


# -- finite_n -------------------------------------------------------------

class QOutOfRangeError(ValidationError):
    """Subset size q is outside the valid range for the ambient n."""


class BudgetExceededError(CapExceededError):
    """A finite-n sketch path was asked for n above SKETCH_MAX_N (512)."""


class TooLargeError(CapExceededError):
    """A hard enumeration/memory cap was exceeded."""


class ImaginaryResidueError(MsqaoaError):
    """A quantity that must be real came out with too large an imaginary part."""


class NegativeVarianceError(MsqaoaError):
    """Computed variance was negative beyond the rounding allowance."""


# -- optimizer ------------------------------------------------------------

class EmptyGridError(ValidationError):
    """The coarse search grid must contain at least one point."""


class SignError(ValidationError):
    """The reference ground-state energy per spin must be negative."""


# -- cli ------------------------------------------------------------------

class ParseError(ValidationError):
    """A serialized file could not be parsed."""
