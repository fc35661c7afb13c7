"""propcal's metrics in exact rational arithmetic, and the error bound each one states.

Every float is a dyadic rational, so `Fraction(value)` is exact, and each
function here returns the exact value of a metric at the float inputs it
is given.  `test_exact` checks propcal's float results against them,
within the bounds written in propcal's docstrings and repeated below.
Pearson r is a square root, so its oracle gives r**2 and the sign of r.
The decade slope is exact for the log10 values passed in; the rounding of
`math.log10` itself is not counted.

This module imports nothing from propcal, and pytest does not collect it.
"""

import math
from fractions import Fraction

EPS = Fraction(1, 2**53)  # the unit roundoff: a rounded float lies within EPS*|value| of the exact one
TINY = Fraction(1, 2**1074)  # the least subnormal float, the spacing of floats below the normal range
# the least magnitude that rounds to infinity: above the largest float by half of its last place
OVERFLOW = Fraction(2**1024 - 2**970)


def exact(values):
    return [Fraction(value) for value in values]


def mean(values):
    return sum(values, Fraction(0)) / len(values)


def centred(values):
    """Exact deviations from the exact mean, and their sum of squares."""
    m = mean(values)
    deviations = [value - m for value in values]
    return deviations, sum(d * d for d in deviations)


def residuals(measured, predicted):
    """measured - predicted, per sample."""
    return [x - y for x, y in zip(exact(measured), exact(predicted))]


def correction_factor(measured, predicted):
    """The mean residual.

    propcal's bound: within 4*EPS*mean|r_i| + TINY of this value.
    """
    return mean(residuals(measured, predicted))


def correction_factor_bound(measured, predicted):
    return 4 * EPS * mean([abs(r) for r in residuals(measured, predicted)]) + TINY


def mse(measured, predicted):
    """The mean squared residual, before correction.

    propcal's bound: within 6*EPS*mse + TINY of this value.
    """
    return mean([r * r for r in residuals(measured, predicted)])


def mse_bound(measured, predicted):
    return 6 * EPS * mse(measured, predicted) + TINY


def mse_after(measured, predicted):
    """The mean squared residual after the exact correction factor is applied: mse - cf**2."""
    cf = correction_factor(measured, predicted)
    return mean([(r - cf) ** 2 for r in residuals(measured, predicted)])


def mse_after_bound(measured, predicted):
    """propcal's bound: 2*H*sqrt(mse_after) + H**2 + 6*EPS*mse_after + TINY, H = 8*EPS*max(|x_i| + |y_i|) + TINY.

    The shifted series y + cf is rounded at the scale of the values, not of
    the residuals, which H measures.
    """
    after = mse_after(measured, predicted)
    h = 8 * EPS * max(abs(x) + abs(y) for x, y in zip(exact(measured), exact(predicted))) + TINY
    return 2 * h * _sqrt_above(after) + h * h + 6 * EPS * after + TINY


def r_squared(measured, predicted):
    """r**2 and the sign of r (-1, 0 or 1), or None where r is undefined: fewer than 2 samples or a flat series.

    propcal's bound: r is within 4*EPS of the exact r wherever r is defined.
    """
    dx, sxx = centred(exact(measured))
    dy, syy = centred(exact(predicted))
    if not sxx or not syy:
        return None
    sxy = sum(a * b for a, b in zip(dx, dy))
    return sxy * sxy / (sxx * syy), (sxy > 0) - (sxy < 0)


def r_is_within(r, exact_r, bound=4 * EPS):
    """Whether the float `r` lies within `bound` of the exact r that `r_squared` describes."""
    square, sign = exact_r
    low, high = Fraction(r) - bound, Fraction(r) + bound
    if sign < 0:  # -|r| in [low, high] is |r| in [-high, -low]
        low, high = -high, -low
    return high >= 0 and max(low, 0) ** 2 <= square <= high**2


def decade_slope(log_distances, loss):
    """The least-squares slope of loss against the given log10 distances."""
    dl, sll = centred(exact(log_distances))
    dy, _ = centred(exact(loss))
    return sum(a * b for a, b in zip(dl, dy)) / sll


def decade_slope_bound(log_distances, loss):
    """propcal's bound: 6*EPS*|slope| + 3*EPS*sqrt(syy/sll) + n*(|dl*dy| + TINY)/sll + TINY.

    sll and syy are the sums of squared deviations of the logs and of the
    loss, and dl, dy the rounding of each mean, at most 2*EPS*|mean| + TINY.
    """
    logs, y = exact(log_distances), exact(loss)
    n = len(logs)
    _, sll = centred(logs)
    _, syy = centred(y)
    dl, dy = (2 * EPS * abs(mean(values)) + TINY for values in (logs, y))
    slope = decade_slope(log_distances, loss)
    return 6 * EPS * abs(slope) + 3 * EPS * _sqrt_above(syy / sll) + n * (dl * dy + TINY) / sll + TINY


def _sqrt_above(value):
    """An upper bound on the square root of `value` (>= 0), within a factor 1 + 2**-64 of it."""
    p, q = value.numerator, value.denominator  # sqrt(p/q) = sqrt(p*q)/q
    return Fraction(math.isqrt(p * q << 128) + 1, q << 64)
