"""propcal's metrics in exact rational arithmetic, and the error bound each one states.

Every float is a dyadic rational, so `Fraction(value)` is exact, and each
function here returns the exact value of a metric at the float inputs it
is given.  `test_exact` checks propcal's float results against them,
within the bounds written in propcal's docstrings and repeated below.
Pearson r is a square root, so its oracle gives r**2 and the sign of r.
The decade slope is exact for the log10 values passed in; the rounding of
`math.log10` itself is not counted.  So is a bound model's prediction
(`model_prediction`), whose metrics against a measured series the CLI's
`calibrate` takes from moment sums (`moment_bounds`).  The CLI's
`compare` scores a prediction column y the same way, as the prediction
of c0 = c2 = 0, c1 = -1 and a budget of 0 over L = y.

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


def model_prediction(log_km, c0, c1, c2, budget):
    """budget - (c0 + c1*L + c2*L**2) at each L, exact over the float L, coefficients and budget."""
    b, c0, c1, c2 = exact((budget, c0, c1, c2))
    return [b - c0 - c1 * v - c2 * v * v for v in exact(log_km)]


def moment_bounds(measured, log_km, c0, c1, c2, budget):
    """The bounds `calibration._calibrate_models` states on cf, mse_before, mse_after and r, in that order, for the
    metrics of `measured` against `model_prediction`; r's is None where r is undefined.

    With s = 1 + |c1| + |c2|: cf within dcf = 2*EPS*|cf| + 8*EPS*m + 4*s*TINY, mse_after within
    da = 128*EPS*(wx + wy) + 2*s*s*TINY, mse_before within 2*|cf|*dcf + dcf**2 + da + 4*EPS*mse_before, and r
    within 16*EPS*(sqrt(wx/vx) + sqrt(wy/vy) + k + 1) + 16*s*s*TINY*(1 + 1/vx + 1/vy), where m is the mean of
    |x| + |c1*L| + |c2|*L**2, wx = mean(x**2), wy = mean((|c1*L| + |c2|*L**2)**2), vx and vy are the variances of
    x and of the prediction, and k = mean((|c1*dL| + |c2*dQ|)**2)/vy over the deviations dL and dQ of L and L**2.
    """
    x, logs = exact(measured), exact(log_km)
    b, c0, c1, c2 = exact((budget, c0, c1, c2))
    y = model_prediction(log_km, c0, c1, c2, budget)
    s = 1 + abs(c1) + abs(c2)
    terms = [abs(c1 * v) + abs(c2) * v * v for v in logs]
    m = mean([abs(a) + t for a, t in zip(x, terms)])
    wx, wy = mean([a * a for a in x]), mean([t * t for t in terms])
    cf = correction_factor(x, y)
    dcf = 2 * EPS * abs(cf) + 8 * EPS * m + 4 * s * TINY
    da = 128 * EPS * (wx + wy) + 2 * s * s * TINY
    dbefore = 2 * abs(cf) * dcf + dcf * dcf + da + 4 * EPS * mse(x, y)
    n = len(x)
    vx, vy = centred(x)[1] / n, centred(y)[1] / n
    if not vx or not vy:
        return dcf, dbefore, da, None
    dl, dq = centred(logs)[0], centred([v * v for v in logs])[0]
    k = mean([(abs(c1 * a) + abs(c2 * q)) ** 2 for a, q in zip(dl, dq)]) / vy
    dr = 16 * EPS * (_sqrt_above(wx / vx) + _sqrt_above(wy / vy) + k + 1) + 16 * s * s * TINY * (1 + 1 / vx + 1 / vy)
    return dcf, dbefore, da, dr


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
