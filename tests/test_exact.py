"""Every metric against the exact oracle in `exact.py`, within the bound its docstring states.

Series are drawn at magnitudes from the least subnormal to about 1e300:
values of one scale, near-flat series a few units in the last place
apart, series of subnormals, and predictions a few units in the last
place from the measured values, whose residuals cancel.  Where a sum
over a series leaves the float range, the metric must raise the overflow
`DomainError` instead of returning a value, and it may raise it only
where a running sum comes near the edge of the range.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import exact
from exact import EPS, OVERFLOW
from propcal import DomainError, calibrate, correction_factor, decade_slope, mse, pearson_r

ORACLE = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
LARGEST = Fraction(2**1024 - 2**971)  # the largest float
OVERFLOW_MESSAGE = "overflows the float range"


@st.composite
def series(draw, n, positive=False):
    """`n` floats of one kind: one scale from 2**-1074 to about 1e300, near-flat, or subnormal."""
    sign = 1.0 if positive else draw(st.sampled_from((1.0, -1.0)))
    kind = draw(st.sampled_from(("scaled", "near_flat", "subnormal")))
    if kind == "subnormal":
        return [math.ldexp(draw(st.integers(1 if positive else -(2**40), 2**40)), -1074) for _ in range(n)]
    exponent = draw(st.integers(-1074, 996))  # 2**996 < 1e300
    if kind == "near_flat":
        centre = sign * math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), exponent)
        values = [centre + draw(st.integers(-8, 8)) * math.ulp(centre) for _ in range(n)]
    else:
        low = 2.0**-60 if positive else -1.0
        values = [math.ldexp(draw(st.floats(low, 1.0)), exponent - draw(st.integers(0, 60))) for _ in range(n)]
    return [max(value, 5e-324) for value in values] if positive else values  # a value that underflowed to 0


@st.composite
def pairs(draw):
    """Aligned measured and predicted series; some predictions lie a few units in the last place from measured."""
    n = draw(st.integers(1, 12))
    measured = draw(series(n))
    if draw(st.booleans()):
        return measured, [x + draw(st.integers(-8, 8)) * math.ulp(x) for x in measured]
    return measured, draw(series(n))


def _raises_only_near_overflow(call, must_fit, may_overflow):
    """`call()`, or None where it raises the overflow `DomainError`; any other error propagates.

    It must raise where a value of `must_fit` leaves the float range, and
    may raise only where a value of `may_overflow` comes near its edge.
    """
    must = max(must_fit) >= OVERFLOW * (1 + 8 * EPS)
    try:
        value = call()
    except DomainError as exc:
        if OVERFLOW_MESSAGE not in str(exc):
            raise
        assert max(may_overflow) >= LARGEST * (1 - 8 * EPS), "raised an overflow where no sum comes near the edge"
        return None
    assert not must, f"returned {value!r} where a sum leaves the float range"
    return value


def _residual_sums(measured, predicted):
    """The exact residuals, what must fit (the largest one, their sum), what may overflow, and their squares."""
    r = exact.residuals(measured, predicted)
    squares = [v * v for v in r]
    return r, [max(map(abs, r)), abs(sum(r))], [max(map(abs, r)), exact.prefix_peak(r)], squares


@ORACLE
@given(pairs())
@example(([1.0, 2.0**-1074], [0.0, 0.0]))
def test_correction_factor_is_within_its_bound(pair):
    measured, predicted = pair
    _, must, may, _ = _residual_sums(measured, predicted)
    cf = _raises_only_near_overflow(lambda: correction_factor(measured, predicted), must, may)
    if cf is not None:
        error = abs(Fraction(cf) - exact.correction_factor(measured, predicted))
        assert error <= exact.correction_factor_bound(measured, predicted)


@ORACLE
@given(pairs())
def test_mse_is_within_its_bound(pair):
    measured, predicted = pair
    _, must, may, squares = _residual_sums(measured, predicted)
    value = _raises_only_near_overflow(lambda: mse(measured, predicted), [*must, sum(squares)], [*may, sum(squares)])
    if value is not None:
        assert abs(Fraction(value) - exact.mse(measured, predicted)) <= exact.mse_bound(measured, predicted)


def _centred_sums(values):
    """The sums `_centred` takes: the values' running sum and the squared deviations."""
    values = exact.exact(values)
    _, squares = exact.centred(values)
    return [abs(sum(values)), squares], [exact.prefix_peak(values), squares]


@ORACLE
@given(pairs())
@example(([0.0, 1.0], [1.0, 1.0000000000000002]))
@example(([0.0, 1.0], [0.0, 5e-324]))
def test_pearson_r_is_within_4_eps_wherever_it_is_defined(pair):
    measured, predicted = pair
    (must_x, may_x), (must_y, may_y) = _centred_sums(measured), _centred_sums(predicted)
    exact_r = exact.r_squared(measured, predicted)
    try:
        r = _raises_only_near_overflow(lambda: pearson_r(measured, predicted), must_x + must_y, may_x + may_y)
    except DomainError as exc:  # not an overflow: r is undefined
        assert exact_r is None, exc
        return
    if r is not None:
        assert exact_r is not None
        assert exact.r_is_within(r, exact_r), (r, float(exact_r[0]) ** 0.5 * exact_r[1])


@ORACLE
@given(pairs())
def test_calibrate_reports_the_bounded_metrics(pair):
    measured, predicted = pair
    r, must, may, squares = _residual_sums(measured, predicted)
    cf = exact.correction_factor(measured, predicted)
    shifted = [(v - cf) ** 2 for v in r]
    sums = [sum(squares), sum(shifted), *_centred_sums(measured)[1], *_centred_sums(predicted)[1]]
    report = _raises_only_near_overflow(lambda: calibrate(measured, {"a": predicted}), must + sums[:2], may + sums)
    if report is None:
        return
    calib = report.models["a"]
    assert abs(Fraction(calib.cf_db) - cf) <= exact.correction_factor_bound(measured, predicted)
    assert abs(Fraction(calib.mse_before_db2) - exact.mse(measured, predicted)) <= exact.mse_bound(measured, predicted)
    error_after = abs(Fraction(calib.mse_after_db2) - exact.mse_after(measured, predicted))
    assert error_after <= exact.mse_after_bound(measured, predicted)
    exact_r = exact.r_squared(measured, predicted)
    if calib.pearson_r is None:
        assert exact_r is None
    else:
        assert exact.r_is_within(calib.pearson_r, exact_r)


@ORACLE
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(series(n, positive=True), series(n))))
def test_decade_slope_is_within_its_bound(pair):
    distances, loss = pair
    logs = list(map(math.log10, distances))
    must, may = _centred_sums(loss)
    try:
        slope = _raises_only_near_overflow(lambda: decade_slope(distances, loss), must, may)
    except DomainError as exc:
        assert "same distance" in str(exc) and min(logs) == max(logs)
        return
    if slope is not None:
        error = abs(Fraction(slope) - exact.decade_slope(logs, loss))
        assert error <= exact.decade_slope_bound(logs, loss)


@pytest.mark.parametrize(
    ("metric", "measured", "predicted"),
    [
        (correction_factor, [1e308, -1e308], [-1e308, 1e308]),
        (mse, [1e200, -1e200], [0.0, 0.0]),
        (pearson_r, [1.7e308, -1.7e308, 1e308], [1.0, 2.0, 3.0]),
        (calibrate, [1e200, -1e200], {"a": [0.0, 0.0]}),
    ],
    ids=["correction_factor", "mse", "pearson_r", "calibrate"],
)
def test_a_sum_past_the_float_range_raises_the_overflow_error(metric, measured, predicted):
    with pytest.raises(DomainError, match=OVERFLOW_MESSAGE):
        metric(measured, predicted)
