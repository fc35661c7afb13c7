"""Every metric against the exact oracle in `exact.py`, within the bound its docstring states.

Series are drawn at magnitudes from the least subnormal to about 1e300:
values of one scale, near-flat series a few units in the last place
apart, series of subnormals, and predictions a few units in the last
place from the measured values, whose residuals cancel.  Where a sum
over a series leaves the float range, the metric must raise the overflow
`DomainError` instead of returning a value, and it may raise it only
where a total comes near the edge of the range: a running sum that
overflows on the way is summed again at a smaller scale.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import exact
from exact import EPS, OVERFLOW
from propcal import DomainError, DriveTestTable, PathLossModel, calibrate, correction_factor, decade_slope, mse, pearson_r
from propcal import calibration
from propcal.dataset import RSS_MAX_DBM, RSS_MIN_DBM
from propcal.errors import _Floats
from propcal.models import _log_km

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
    """The exact residuals, what must fit (the largest one, their sum), and their squares."""
    r = exact.residuals(measured, predicted)
    return r, [max(map(abs, r)), abs(sum(r))], [v * v for v in r]


@ORACLE
@given(pairs())
@example(([1.0, 2.0**-1074], [0.0, 0.0]))
@example(([1e308, 1e308, -1e308], [0.0, 0.0, 0.0]))  # a running sum overflows, the total does not
def test_correction_factor_is_within_its_bound(pair):
    measured, predicted = pair
    _, must, _ = _residual_sums(measured, predicted)
    cf = _raises_only_near_overflow(lambda: correction_factor(measured, predicted), must, must)
    if cf is not None:
        error = abs(Fraction(cf) - exact.correction_factor(measured, predicted))
        assert error <= exact.correction_factor_bound(measured, predicted)


@ORACLE
@given(pairs())
def test_mse_is_within_its_bound(pair):
    measured, predicted = pair
    _, must, squares = _residual_sums(measured, predicted)
    must.append(sum(squares))
    value = _raises_only_near_overflow(lambda: mse(measured, predicted), must, must)
    if value is not None:
        assert abs(Fraction(value) - exact.mse(measured, predicted)) <= exact.mse_bound(measured, predicted)


def _centred_sums(values):
    """The sums `_centred` takes: the values' sum and the squared deviations."""
    values = exact.exact(values)
    _, squares = exact.centred(values)
    return [abs(sum(values)), squares]


@ORACLE
@given(pairs())
@example(([0.0, 1.0], [1.0, 1.0000000000000002]))
@example(([0.0, 1.0], [0.0, 5e-324]))
def test_pearson_r_is_within_4_eps_wherever_it_is_defined(pair):
    measured, predicted = pair
    must = _centred_sums(measured) + _centred_sums(predicted)
    exact_r = exact.r_squared(measured, predicted)
    try:
        r = _raises_only_near_overflow(lambda: pearson_r(measured, predicted), must, must)
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
    r, must, squares = _residual_sums(measured, predicted)
    cf = exact.correction_factor(measured, predicted)
    shifted = [(v - cf) ** 2 for v in r]
    sums = [sum(squares), sum(shifted), *_centred_sums(measured), *_centred_sums(predicted)]
    report = _raises_only_near_overflow(lambda: calibrate(measured, {"a": predicted}), must + sums[:2], must + sums)
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
# logs a few units in the last place apart, whose mean's rounding moved the slope by 67%
@example((
    [6486.9910987868925, 6486.991098786893, 6486.991098786894],
    [0.05481672103130353, 0.5510355717475981, -0.4128659707663598],
))
def test_decade_slope_is_within_its_bound(pair):
    distances, loss = pair
    logs = list(map(math.log10, distances))
    must = _centred_sums(loss)
    try:
        slope = _raises_only_near_overflow(lambda: decade_slope(distances, loss), must, must)
    except DomainError as exc:
        assert "same distance" in str(exc) and min(logs) == max(logs)
        return
    if slope is not None:
        error = abs(Fraction(slope) - exact.decade_slope(logs, loss))
        assert error <= exact.decade_slope_bound(logs, loss)


# a coefficient or budget in the models' range, 0 among them, or of a magnitude from 1e-67 to 1e102, either side of the
# [1e-60, 1e100] that the moment route takes
COEFFICIENTS = st.floats(-300.0, 300.0) | st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-222, 340))


@st.composite
def bound_drive_tests(draw):
    """Measured RSS, distances, a bound model and a budget: the inputs of `calibration._calibrate_models`.

    Distances spread over decades, repeated, a few ulps apart, or a few
    ulps above a SUI-like d0; measured values in the RSS window, flat, a
    few ulps apart, subnormal, or a few ulps from the model's prediction.
    """
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("spread", "spread", "one_distance", "near", "above_d0")))
    d0 = 0.0
    if kind == "spread":
        distances = [10.0 ** draw(st.floats(-2.0, 8.0)) for _ in range(n)]
    else:
        centre = draw(st.floats(1.0, 1e6))
        steps = [0] * n if kind == "one_distance" else draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        if kind == "above_d0":
            d0, steps = centre, [k + 1 for k in steps]
        distances = [centre + k * math.ulp(centre) for k in steps]
    c0, c1, budget = draw(COEFFICIENTS), draw(COEFFICIENTS), draw(COEFFICIENTS)
    c2 = draw(st.just(0.0) | COEFFICIENTS)
    model = PathLossModel("m", c0, c1, c2, min_distance_m=d0)
    predicted = [budget - loss for loss in model._losses(distances)]
    kind = draw(st.sampled_from(("window", "window", "flat", "near_flat", "subnormal", "near_zero_residuals") * 2
                                + ("near_zero_residuals",)))
    if kind == "near_zero_residuals" and max(map(abs, predicted)) < 1e100:
        measured = [y + draw(st.integers(-4, 4)) * math.ulp(y) for y in predicted]
    elif kind == "subnormal":
        measured = [math.ldexp(draw(st.integers(-(2**20), 2**20)), -1074) for _ in range(n)]
    elif kind in ("flat", "near_flat"):
        level = draw(st.floats(-150.0, 40.0))
        measured = [level + (kind == "near_flat") * draw(st.integers(-4, 4)) * math.ulp(level) for _ in range(n)]
    else:
        measured = [draw(st.floats(-150.0, 40.0)) for _ in range(n)]
    return measured, distances, model, budget


@ORACLE
@given(bound_drive_tests())
@example(([-60.0, -61.0], [500.0, 900.0], PathLossModel("m", 120.0, 30.0), 63.8))
@example(([-60.0, -61.0], [500.0, 500.0], PathLossModel("m", 120.0, 30.0), 63.8))  # one distance: r is null
@example(([-60.0, -60.0], [500.0, 900.0], PathLossModel("m", 120.0, 30.0), 63.8))  # a flat measured series
@example(([-60.0, -61.0], [500.0, 900.0], PathLossModel("m", 120.0, 1e-61), 63.8))  # c1 outside the moment route
def test_the_cli_calibrate_route_is_within_its_stated_bounds(case):
    measured, distances, model, budget = case
    with mock.patch.object(calibration, "_scored", wraps=calibration._scored) as per_sample:
        report = calibration._calibrate_models(measured, distances, [model], budget)
    if per_sample.called:  # scored as `calibrate` scores a column: the same report, to the bit
        column = _Floats([budget - loss for loss in model._losses(distances)])
        assert report == calibrate(measured, {"m": column})
        return
    calib = report.models["m"]
    log_km = _log_km(distances)
    predicted = exact.model_prediction(log_km, model.c0, model.c1, model.c2, budget)
    dcf, dbefore, dafter, dr = exact.moment_bounds(measured, log_km, model.c0, model.c1, model.c2, budget)
    assert abs(Fraction(calib.cf_db) - exact.correction_factor(measured, predicted)) <= dcf
    assert abs(Fraction(calib.mse_before_db2) - exact.mse(measured, predicted)) <= dbefore
    assert abs(Fraction(calib.mse_after_db2) - exact.mse_after(measured, predicted)) <= dafter
    exact_r = exact.r_squared(measured, predicted)
    if calib.pearson_r is None:
        assert exact_r is None or len(measured) < 2
    else:
        assert exact_r is not None and dr is not None
        assert exact.r_is_within(calib.pearson_r, exact_r, dr), (calib.pearson_r, float(exact_r[0]) ** 0.5 * exact_r[1])


@st.composite
def rss_series(draw, n, kind):
    """`n` RSS values of one kind, all inside the RSS window: spread over it, spread with some a few ulps inside
    either edge, flat, a few ulps apart, or subnormal."""
    spread = st.floats(RSS_MIN_DBM, RSS_MAX_DBM)
    if kind == "edge":
        spread |= st.builds(lambda edge, k: edge - math.copysign(k * math.ulp(edge), edge),
                            st.sampled_from((RSS_MIN_DBM, RSS_MAX_DBM)), st.integers(0, 4))
    if kind in ("spread", "edge"):
        return [draw(spread) for _ in range(n)]
    if kind == "subnormal":
        return [math.ldexp(draw(st.integers(-(2**20), 2**20)), -1074) for _ in range(n)]
    level = draw(st.floats(RSS_MIN_DBM, RSS_MAX_DBM))
    return _in_window([level + (kind == "near_flat") * draw(st.integers(-4, 4)) * math.ulp(level) for _ in range(n)])


def _in_window(values):
    return [min(max(value, RSS_MIN_DBM), RSS_MAX_DBM) for value in values]


RSS_KINDS = st.sampled_from(("spread", "spread", "edge", "edge", "flat", "near_flat", "subnormal"))


@st.composite
def compare_columns(draw):
    """A measured series and a prediction column of one to 12 rows, each of an `rss_series` kind, or the column a few
    ulps from the measured values: what the CLI's `compare` scores."""
    n = draw(st.integers(1, 12))
    measured = draw(rss_series(n, draw(RSS_KINDS)))
    if draw(st.booleans()):
        return measured, _in_window([x + draw(st.integers(-4, 4)) * math.ulp(x) for x in measured])
    return measured, draw(rss_series(n, draw(RSS_KINDS)))


@ORACLE
@given(compare_columns())
@example(([-60.0, -61.0, -70.5], [-62.0, -65.0, -71.0]))
@example(([-60.0], [-62.0]))  # one row: r is null
@example(([-60.0, -60.0], [-62.0, -65.0]))  # a flat measured series: r is null
@example(([-60.0, -61.0], [-62.0, -62.0]))  # a flat column, scored sample by sample
@example(([-60.0, -61.0], [5e-324, 1e-323]))  # a column whose squared deviations underflow
@example(([-60.0, -62.0, -60.0, -62.0], [-1.0, -1.0, -3.0, -3.0]))  # uncorrelated: r is 0.0, as `pearson_r` gives it
def test_the_cli_compare_route_is_within_its_stated_bounds(case):
    measured, column = case
    table = DriveTestTable([1.0] * len(measured), measured, {"a": column})
    with mock.patch.object(calibration, "_scored", wraps=calibration._scored) as per_sample:
        report = calibration._calibrate_columns(table)
    want = calibrate(measured, {"a": column})
    if per_sample.called:  # scored as `calibrate` scores it: the same report, to the bit
        assert report == want
        return
    assert report.notes == want.notes
    calib = report.models["a"]
    assert repr(calib.pearson_r) == repr(want.models["a"].pearson_r)  # the same sums, divided the same way
    # the column is the prediction of c0 = c2 = 0, c1 = -1 and a budget of 0 over L = the column
    dcf, dbefore, dafter, dr = exact.moment_bounds(measured, column, 0.0, -1.0, 0.0, 0.0)
    assert abs(Fraction(calib.cf_db) - exact.correction_factor(measured, column)) <= dcf
    assert abs(Fraction(calib.mse_before_db2) - exact.mse(measured, column)) <= dbefore
    assert abs(Fraction(calib.mse_after_db2) - exact.mse_after(measured, column)) <= dafter
    exact_r = exact.r_squared(measured, column)
    if calib.pearson_r is None:
        assert exact_r is None or len(measured) < 2
    else:
        assert exact_r is not None and dr is not None
        assert exact.r_is_within(calib.pearson_r, exact_r, dr), (calib.pearson_r, float(exact_r[0]) ** 0.5 * exact_r[1])


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
