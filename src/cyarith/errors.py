"""Exception types shared across the library.

The CLI maps ValidationError (and subclasses) to exit code 1 and
InvariantViolationError to exit code 2.
"""


class ValidationError(ValueError):
    """Bad input, rejected before any real computation starts."""


class PrimalityError(ValidationError):
    """A number required to be prime is not."""


class CapacityError(ValidationError):
    """Requested computation exceeds a documented size bound; degree is the
    extension degree of the refused field table, if a table was refused."""

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


class BadReductionError(ValidationError):
    """Prime of bad reduction passed where a good prime is required."""


class InvariantViolationError(RuntimeError):
    """An exact mathematical self-check failed mid-computation."""
