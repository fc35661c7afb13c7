"""Exception types shared across the package, the one check of a numeric parameter or column, and the one way a record keeps one."""

import math
import numbers
import sys
from collections.abc import Callable, Iterable, Mapping


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
LEAST_POSITIVE = 5e-324  # the least float above zero


def finite(name: str, value: object) -> float:
    """`value` as a float if it is a finite real number."""
    return _checked(name, value, -_LARGEST, "must be finite")


def positive(name: str, value: object) -> float:
    """`value` as a float if it is a finite real number above zero."""
    return _checked(name, value, LEAST_POSITIVE, "must be a positive finite number")


def nonnegative(name: str, value: object) -> float:
    """`value` as a float if it is a finite real number at or above zero."""
    return _checked(name, value, 0.0, "must be >= 0")


def checked_fields(record: object, check: Callable[[str, object], float], *names: str) -> None:
    """Store each named field of the frozen `record`, in order, as the float `check(name, value)` returns: the one
    way a record keeps a checked number, so a field given as an `int`, a `Fraction` or a NumPy real holds a float."""
    for name in names:
        object.__setattr__(record, name, check(name, getattr(record, name)))


def _checked(name: str, value: object, low: float, rule: str) -> float:
    """`value` checked as a column of one, or a DomainError naming the parameter and quoting the value."""
    if type(value) is float and low <= value <= _LARGEST:  # the common case, without building a column
        return value
    return checked_column(name, (value,), DomainError, lambda i, v: f"{name} {rule}, got {v!r}", low)[0]


class _Floats(tuple):
    """A column of floats that propcal built, each known to lie within [`low`, `high`]; NaN bounds: none checked yet."""

    low = high = math.nan
    __reduce__ = lambda self: (tuple, (tuple(self),))  # pickled and copied as the plain tuple it equals


def as_column(name: str, values: object, error: type[Exception]) -> tuple[object, ...]:
    """`values` as a tuple, a `_Floats` column as it is; one that cannot be iterated raises `error` naming the column `name`."""
    try:
        iter(values)  # only the call: a TypeError raised while iterating is not this one
    except TypeError:
        raise error(f"{name}: not a column of numbers, got {values!r}") from None
    return values if type(values) is _Floats else tuple(values)


def as_mapping(name: str, value: object, error: type[Exception]) -> Mapping:
    """`value` if it is a mapping; anything else raises `error` naming the argument `name`."""
    if not isinstance(value, Mapping):
        raise error(f"{name}: not a mapping, got {value!r}")
    return value


def as_instance(name: str, value: object, kind: type, error: type[Exception]) -> object:
    """`value` if it is a `kind`, such as one of propcal's own types; else `error` names the argument `name` and the type it got."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise error(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def checked_column(name: str, values: Iterable[object], error: type[Exception], message: Callable[[int, object], str],
                   low: float = -_LARGEST, high: float = _LARGEST) -> tuple[float, ...]:
    """`values` as floats if each is a real number, not a bool, and within [`low`, `high`], which no NaN is.

    Else raises `error(message(i, value))` for the first that is not, `i` counting from 1,
    or, if `values` cannot be iterated, `error` naming the column `name`.
    A column of floats is checked at once; any other is scanned value by value, as is one that fails.
    A `_Floats` column skips the type gate and keeps the bounds it passes; one whose kept bounds lie within these comes back unscanned.
    """
    column = as_column(name, values, error)
    marked = type(column) is _Floats
    if marked and low <= column.low and column.high <= high:
        return column
    # a NaN or an infinity makes the sum non-finite, and a finite sum leaves only bounds inside the
    # float range to compare with
    if (marked or set(map(type, column)) <= {float}) and math.isfinite(sum(column)):
        if (low == -_LARGEST or low <= min(column, default=low)) and (high == _LARGEST or max(column, default=high) <= high):
            if marked:  # max and min keep their first argument over a NaN, a bound not yet checked
                column.low, column.high = max(low, column.low), min(high, column.high)
            return column
    for i, value in enumerate(column, start=1):
        # `type(...) is float` first: the ABC checks cost ten times as much
        real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        # an int or a Fraction is compared exactly at any size, another real as its float: NumPy would compare a
        # float32 with a float bound in float32, where the largest float overflows
        number = value if not real or type(value) is float or isinstance(value, numbers.Rational) else float(value)
        if not (real and low <= number <= high):
            raise error(message(i, value))
    return tuple(map(float, column))
