"""Exception types shared across the package.

Every failure mode is a distinct class so callers (and tests) can react to
the precise condition: order mismatches are bugs, degenerate weight tuples
are resampled (a pole is not: see ``sampling``), class-P violations are
reported.
"""

from __future__ import annotations


class OrderMismatch(ValueError):
    """Binary series operation on operands of different truncation order."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


class StructureError(ValueError):
    """Internal representation cannot hold the requested result exactly."""


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""

    def __init__(self, point, message: str | None = None):
        self.point = point
        super().__init__(message or f"evaluation at pole hbar = {point}")


class DegenerateLambda(ValueError):
    """Weight tuple makes a required denominator vanish; caller resamples."""


class ClassPViolation(ValueError):
    """A correlator family failed one of the class-P polynomiality checks."""


class ConsistencyError(ValueError):
    """Two routes to the same quantity disagree (pipeline integrity check)."""
