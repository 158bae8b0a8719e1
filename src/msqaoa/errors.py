"""The three error families the package raises, one per CLI exit code.

``ValidationError`` (bad inputs, CLI exit code 2), ``CapExceededError`` (a
documented size cap was hit, exit code 3) and ``NumericalError`` (a result
failed its own health check, such as an imaginary residue or a negative
variance beyond the rounding allowance, exit code 4).  The message names
what went wrong; no caller tells finer causes apart.
"""


class ValidationError(ValueError):
    """Invalid input that violates a documented precondition."""


class CapExceededError(Exception):
    """A documented size cap was exceeded."""


class NumericalError(Exception):
    """A computed quantity failed a health check (imaginary residue,
    negative variance)."""
