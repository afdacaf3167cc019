"""Exception types shared across the package, and the guards that raise
the first two of them."""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (negative squeeze magnitude, non-finite input, time outside the flight
    interval, non-positive frequency, ...)."""


class RangeError(ValueError):
    """A result or intermediate would overflow the representable range
    (squeeze magnitude beyond the e^{2r} cap, contrast factors beyond
    double precision, ...)."""


class ConvergenceError(RuntimeError):
    """A quadrature did not stabilise under refinement: two successive
    resolutions disagree by more than the configured tolerance."""


def _finite_input(name: str, value, positive: bool = False) -> float:
    """float(value); DomainError unless it is finite (and > 0 if ``positive``)."""
    value = float(value)
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        rule = "finite and > 0" if positive else "finite"
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return value


def _count_input(name: str, value, low: int, high: float = math.inf) -> int:
    """int(value); DomainError unless it is a whole number in [low, high]."""
    if not (low <= value <= high and value % 1 == 0):  # nan and inf fail too
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _finite_result(value: float, what: str) -> float:
    """``value``; RangeError when it has left double precision."""
    if not math.isfinite(value):
        raise RangeError(f"{what} overflows double precision")
    return value


__all__ = ["DomainError", "RangeError", "ConvergenceError"]
