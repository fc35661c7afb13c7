"""Exception types shared across the package, and the one check of a numeric parameter."""

import numbers
import sys


class PropcalError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PropcalError, ValueError):
    """A numeric input violates a model or metric precondition.

    Examples: non-positive frequency, SUI evaluated at or below its
    reference distance, a correlation over a zero-variance series.
    """


class DataError(PropcalError, ValueError):
    """Malformed or inconsistent input data.

    Examples: a CSV header that does not match the drive-test format,
    a non-numeric cell, misaligned measurement/prediction series.
    """


_LARGEST = sys.float_info.max


def finite(name: str, value: object) -> float:
    """`value` as a float if it is a finite real number."""
    return _checked(name, value, -_LARGEST, "must be finite")


def positive(name: str, value: object) -> float:
    """`value` as a float if it is a finite real number above zero."""
    return _checked(name, value, 5e-324, "must be a positive finite number")  # the least float above zero


def nonnegative(name: str, value: object) -> float:
    """`value` as a float if it is a finite real number at or above zero."""
    return _checked(name, value, 0.0, "must be >= 0")


def _checked(name: str, value: object, low: float, rule: str) -> float:
    """The one rule: `value` as a float if it is a real number, not a bool, finite and at least `low`."""
    # `type(...) is float` first: the ABC check costs ten times as much
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        if low <= value <= _LARGEST:  # exact for an int of any size, and false for NaN
            return float(value)
    raise DomainError(f"{name} {rule}, got {value!r}")
