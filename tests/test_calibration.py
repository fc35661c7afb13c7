"""Unit tests for the metrics, calibration, and parameter inference."""

import json
import math
import random
import re
import sys
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact
from propcal import (
    DataError,
    DomainError,
    MODEL_IDS,
    PUBLISHED_CALIBRATION,
    REFERENCE_SITE,
    CalibrationReport,
    ModelCalibration,
    calibrate,
    correction_factor,
    cost231_tx_height_from_slope,
    decade_slope,
    infer_site_parameters,
    make_model,
    model_from_params,
    mse,
    pearson_r,
    predict_rss,
    published_divergence_notes,
    reference_dataset,
)
from propcal.calibration import _centred
from propcal.models import ModelRangeWarning


def corpus():
    table = reference_dataset()
    return table.measured_rss_dbm, table.predictions, table.distances_m


class TestResiduals:
    """measured - predicted at each sample, seen through the two metrics that average it: cf and the MSE."""

    def test_single_pair(self):
        assert correction_factor([-73.0], [-91.87]) == pytest.approx(18.87)
        assert mse([-73.0], [-91.87]) == pytest.approx(18.87**2)

    def test_identical_series_gives_zeros(self):
        series = [-70.0, -65.0, -60.0]
        assert correction_factor(series, series) == 0.0
        assert mse(series, series) == 0.0

    def test_sign_convention(self):
        # measured minus predicted: an optimistic model gives negatives
        assert correction_factor([-61.0], [-24.3]) == pytest.approx(-36.7)

    @pytest.mark.parametrize("metric", [correction_factor, mse])
    def test_misaligned_series_rejected(self, metric):
        with pytest.raises(DataError, match="misaligned"):
            metric([-70.0, -71.0], [-70.0])

    @pytest.mark.parametrize("metric", [correction_factor, mse])
    def test_empty_series_rejected(self, metric):
        with pytest.raises(DataError, match="empty"):
            metric([], [])

    @pytest.mark.parametrize("metric", [correction_factor, mse])
    def test_a_difference_past_the_float_range_raises_naming_the_predicted_series(self, metric):
        with pytest.raises(DomainError, match=r"^predicted series: a sum over its values overflows the float range$"):
            metric([1e308, 0.0], [-1e308, 0.0])

    @pytest.mark.parametrize("metric", [correction_factor, mse])
    def test_finite_residuals_whose_sum_overflows_raise_the_same_error(self, metric):
        with pytest.raises(DomainError, match=r"^predicted series: a sum over its values overflows the float range$"):
            metric([1e308, 1e308], [0.0, 0.0])

    def test_differences_near_the_float_range_whose_total_fits_are_averaged(self):
        # the running sum 1e308 + 1e308 overflows; the sum of all three does not
        assert correction_factor([1e308, 1e308, -1e308], [0.0, 0.0, 0.0]) == pytest.approx(1e308 / 3, rel=1e-15)


class TestCorrectionFactor:
    def test_reference_extended_column(self):
        measured, predictions, _ = corpus()
        assert correction_factor(measured, predictions["extended_cost231"]) == pytest.approx(7.8451, abs=0.002)

    def test_reference_sui_column_is_negative(self):
        measured, predictions, _ = corpus()
        assert correction_factor(measured, predictions["sui"]) == pytest.approx(-22.3657, abs=0.002)

    def test_corrected_series_has_zero_cf(self):
        measured, predictions, _ = corpus()
        for column in predictions.values():
            cf = correction_factor(measured, column)
            shifted = [p + cf for p in column]
            assert correction_factor(measured, shifted) == pytest.approx(0.0, abs=1e-12)


class TestMse:
    def test_forced_arithmetic(self):
        assert mse([-70.0, -80.0], [-73.0, -76.0]) == pytest.approx(12.5, abs=1e-12)

    def test_identical_series(self):
        assert mse([-70.0, -80.0], [-70.0, -80.0]) == 0.0

    def test_reference_cost231_column(self):
        measured, predictions, _ = corpus()
        assert mse(measured, predictions["cost231_hata"]) == pytest.approx(181.9705, abs=0.05)

    def test_invariant_under_pair_reordering(self):
        measured, predictions, _ = corpus()
        column = predictions["ericsson"]
        order = list(range(len(column)))
        random.Random(3).shuffle(order)
        shuffled_m = [measured[i] for i in order]
        shuffled_p = [column[i] for i in order]
        assert mse(shuffled_m, shuffled_p) == pytest.approx(mse(measured, column), abs=1e-9)


class TestPearson:
    def test_self_correlation_is_one(self):
        measured, _, _ = corpus()
        assert pearson_r(measured, measured) == pytest.approx(1.0, abs=1e-15)

    def test_reference_extended_column(self):
        measured, predictions, _ = corpus()
        assert pearson_r(measured, predictions["extended_cost231"]) == pytest.approx(0.9217, abs=0.0005)

    def test_matches_scipy(self):
        rng = random.Random(11)
        x = [rng.gauss(-70.0, 9.0) for _ in range(80)]
        y = [0.8 * v + rng.gauss(0.0, 4.0) for v in x]
        expected = scipy.stats.pearsonr(x, y).statistic
        assert pearson_r(x, y) == pytest.approx(expected, abs=1e-12)

    def test_mean_centered_form_equals_raw_moment_form(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randrange(3, 40)
            x = [rng.uniform(-90.0, -40.0) for _ in range(n)]
            y = [rng.uniform(-90.0, -40.0) for _ in range(n)]
            sx, sy = sum(x), sum(y)
            sxx = sum(v * v for v in x)
            syy = sum(v * v for v in y)
            sxy = sum(a * b for a, b in zip(x, y))
            raw = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
            assert pearson_r(x, y) == pytest.approx(raw, abs=1e-9)

    def test_offset_invariance(self):
        measured, predictions, _ = corpus()
        for column in predictions.values():
            base = pearson_r(measured, column)
            for offset in (-22.3657, 7.8451, 100.0):
                shifted = [p + offset for p in column]
                assert abs(pearson_r(measured, shifted) - base) <= 1e-12

    def test_positive_affine_invariance(self):
        rng = random.Random(13)
        x = [rng.uniform(-90.0, -40.0) for _ in range(30)]
        y = [rng.uniform(-90.0, -40.0) for _ in range(30)]
        base = pearson_r(x, y)
        for _ in range(10):
            a = rng.uniform(0.01, 50.0)
            c = rng.uniform(-100.0, 100.0)
            assert abs(pearson_r(x, [a * v + c for v in y]) - base) <= 1e-12

    def test_bounds(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.randrange(2, 25)
            x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            y = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            try:
                r = pearson_r(x, y)
            except DomainError:
                continue
            assert -1.0 <= r <= 1.0

    def test_tiny_variances_whose_product_underflows(self):
        assert pearson_r([0.0, 1e-92], [0.0, 1e-92]) == 1.0
        assert calibrate([0.0, 1e-92], {"a": [1e-92, 0.0]}).models["a"].pearson_r == -1.0

    def test_squares_below_the_normal_range_still_give_r(self):
        # the squares of 1e-200 underflow to zero, and those of 9e-160 to subnormals with few bits
        assert pearson_r([1e-200, -1e-200], [1e-200, -1e-200]) == 1.0
        assert pearson_r([0.0, 0.0, 1.0], [0.0, 0.0, 1.3967431202431773e-159]) == pytest.approx(1.0, rel=1e-15)
        report = calibrate([0.0, 0.0, 1.0], {"a": [0.0, 0.0, -1.3967431202431773e-159]})
        assert report.models["a"].pearson_r == pytest.approx(-1.0, rel=1e-15)
        assert report.notes == ()

    def test_sums_whose_product_overflows_still_give_r(self):
        assert pearson_r([1e150, -1e150], [1e150, -1e150]) == 1.0
        assert pearson_r([1e150, -1e150, 3e149], [1.0, -2.0, 3.0]) == pytest.approx(
            pearson_r([1.0, -1.0, 0.3], [1.0, -2.0, 3.0]), rel=1e-15
        )

    def test_a_series_of_subnormals_gives_the_r_of_its_points(self):
        # the mean of 0 and 5e-324 lies between two floats, so a rounded one leaves deviations that do not sum to zero
        assert pearson_r([0.0, 1.0], [0.0, 5e-324]) == 1.0
        assert calibrate([0.0, 1.0], {"a": [0.0, 5e-324]}).models["a"].pearson_r == 1.0
        assert pearson_r([5e-324, 0.0, 1e-323], [2.0, 1.0, 3.0]) == 1.0

    def test_a_near_flat_series_at_normal_scale_gives_the_r_of_its_points(self):
        # the mean of 1 and 1 + 2**-52 rounds to 1, which leaves both points on one side of it
        assert pearson_r([0.0, 1.0], [1.0, 1.0000000000000002]) == 1.0
        assert calibrate([0.0, 1.0], {"a": [1.0, 1.0000000000000002]}).models["a"].pearson_r == 1.0
        # the exact r of these three points is -sqrt(3)/2; a rounded mean gave -0.5
        r = pearson_r([-70.00000000000001, -70.00000000000003, -70.00000000000003], [1.0, 3.0, 2.0])
        assert r == pytest.approx(-math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_a_series_with_equal_ends_is_flat_only_if_every_value_is(self):
        deviations, squares, mean = _centred("s", (1.0, 2.0, 1.0))
        assert mean == 4.0 / 3.0
        assert deviations == [1.0 - 4.0 / 3.0, 2.0 - 4.0 / 3.0, 1.0 - 4.0 / 3.0]
        assert squares == math.fsum(d * d for d in deviations)
        # -0.0 == 0.0: the series is flat, its mean its first value and each deviation a zero, -0.0 - 0.0 = -0.0
        deviations, squares, mean = _centred("s", [0.0, -0.0, 0.0])
        assert (repr(mean), list(map(repr, deviations)), squares) == ("0.0", ["0.0", "-0.0", "0.0"], 0.0)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DomainError, match="at least 2"):
            pearson_r([-70.0], [-71.0])
        with pytest.raises(DomainError, match="zero-variance measured series"):
            pearson_r([-70.0, -70.0], [-71.0, -72.0])
        with pytest.raises(DomainError, match="zero-variance predicted series"):
            pearson_r([-70.0, -75.0], [-71.0, -71.0])


@st.composite
def two_points(draw):
    """Two distinct points with integer coordinates, each axis scaled by a power of two from 5e-324 to about 1e300."""

    def axis():
        a = draw(st.integers(-1000, 1000))
        b = draw(st.integers(-1000, 1000).filter(lambda v: v != a))
        exponent = draw(st.integers(-1074, 986))  # 1000 * 2**986 < 1e300
        return [math.ldexp(a, exponent), math.ldexp(b, exponent)]

    return axis(), axis()


@settings(max_examples=300, deadline=None)
@given(two_points())
def test_two_distinct_points_are_perfectly_correlated_at_every_scale(points):
    x, y = points
    try:
        r = pearson_r(x, y)
        report = calibrate(x, {"a": y})
    except DomainError as exc:  # the squares of values near 1e300, or of their residuals, leave the float range
        assume("overflows the float range" not in str(exc))
        raise
    sign = 1.0 if (x[1] > x[0]) == (y[1] > y[0]) else -1.0
    assert abs(r - sign) <= 1e-15
    assert report.models["a"].pearson_r == r


@pytest.mark.parametrize(
    ("metric", "first", "second"),
    [
        (mse, "measured", "predicted"),
        (correction_factor, "measured", "predicted"),
        (pearson_r, "measured", "predicted"),
        (decade_slope, "distance", "loss"),
    ],
    ids=["mse", "correction_factor", "pearson_r", "decade_slope"],
)
def test_every_metric_rejects_a_nan_naming_its_place(metric, first, second):
    with pytest.raises(DataError, match=rf"^{first} series, value 2: not a finite number \(nan\)$"):
        metric([100.0, math.nan, 400.0], [1.0, 5.0, 2.0])
    with pytest.raises(DataError, match=rf"^{second} series, value 3: not a finite number \(nan\)$"):
        metric([100.0, 200.0, 400.0], [1.0, 5.0, math.nan])


@pytest.mark.parametrize(
    ("metric", "first", "second", "series"),
    [
        (pearson_r, [1e308, -1e308, 1e308], [1.0, 2.0, 3.0], "measured"),
        (mse, [1e308, -1e308, 1e308], [1.0, 2.0, 3.0], "predicted"),
        (correction_factor, [1e308, -1e308], [-1e308, 1e308], "predicted"),  # residuals of +inf and -inf
        (decade_slope, [1.0, 1000.0, 1e6], [-1e308, 0.0, 1e308], "loss"),
    ],
    ids=["pearson_r", "mse", "correction_factor", "decade_slope"],
)
def test_every_metric_raises_an_overflow_naming_the_series(metric, first, second, series):
    with pytest.raises(DomainError, match=rf"^{series} series: a sum over its values overflows the float range$"):
        metric(first, second)


class TestApplyCorrection:
    def test_corrected_prediction_at_far_sample(self):
        # -91.87 dBm plus the 7.8451 dB correction lands at -84.02
        measured, predictions, _ = corpus()
        column = predictions["extended_cost231"]
        cf = correction_factor(measured, column)
        assert column[0] + cf == pytest.approx(-84.02, abs=0.005)

    def test_model_correction_composes_with_budget(self):
        model = make_model("extended_cost231", 2530.0, 40.0, 3.0)
        corrected = model.corrected(7.8451)
        d = 2200.0
        better_rss = predict_rss(REFERENCE_SITE, corrected.path_loss_db(d))
        base_rss = predict_rss(REFERENCE_SITE, model.path_loss_db(d))
        assert better_rss - base_rss == pytest.approx(7.8451, abs=1e-12)

    def test_zero_correction_is_identity(self):
        model = make_model("sui", 2530.0, 40.0, 3.0)
        same = model.corrected(0.0)
        assert same.path_loss_db(750.0) == model.path_loss_db(750.0)


class TestCalibrate:
    def test_reference_corpus_ranking(self):
        measured, predictions, _ = corpus()
        report = calibrate(measured, predictions)
        assert report.best_model == "extended_cost231"
        assert list(report.models) == list(predictions)
        for calib in report.models.values():
            assert calib.mse_after_db2 <= calib.mse_before_db2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected_not_ranked(self, bad):
        measured = [-70.0, -65.0, -60.0]
        good = {"a": [-72.0, -66.0, -61.0], "b": [-71.0, -64.0, -62.0]}
        with pytest.raises(DataError, match=r"measured series, value 2: not a finite number"):
            calibrate([-70.0, bad, -60.0], good)
        with pytest.raises(DataError, match=r"predicted 'b' series, value 3: not a finite number"):
            calibrate(measured, {"a": good["a"], "b": [-71.0, -64.0, bad]})

    def test_after_metrics_reuse_the_invariant_correlation(self):
        measured, predictions, _ = corpus()
        for model_id, calib in calibrate(measured, predictions).models.items():
            shifted = [p + calib.cf_db for p in predictions[model_id]]
            assert pearson_r(measured, shifted) == pytest.approx(calib.pearson_r, abs=1e-12)

    def test_single_model_is_best(self):
        measured, predictions, _ = corpus()
        report = calibrate(measured, {"sui": predictions["sui"]})
        assert report.best_model == "sui"

    def test_correction_identity_to_machine_precision(self):
        rng = random.Random(15)
        for _ in range(100):
            n = rng.randrange(2, 60)
            measured = [rng.uniform(-95.0, -45.0) for _ in range(n)]
            predicted = [m + rng.gauss(5.0, 8.0) for m in measured]
            cf = correction_factor(measured, predicted)
            before = mse(measured, predicted)
            after = mse(measured, [p + cf for p in predicted])
            assert after == pytest.approx(before - cf * cf, abs=1e-9 * max(1.0, before))

    def test_mean_residual_is_the_optimal_offset(self):
        rng = random.Random(16)
        measured = [rng.uniform(-95.0, -45.0) for _ in range(40)]
        predicted = [m + rng.gauss(-12.0, 6.0) for m in measured]
        cf = correction_factor(measured, predicted)
        best = mse(measured, [p + cf for p in predicted])
        for delta in (-5.0, -0.01, 0.01, 5.0):
            worse = mse(measured, [p + cf + delta for p in predicted])
            assert worse > best

    def test_idempotent_on_corrected_series(self):
        measured, predictions, _ = corpus()
        cf = correction_factor(measured, predictions["ericsson"])
        corrected = [p + cf for p in predictions["ericsson"]]
        report = calibrate(measured, {"ericsson": corrected})
        calib = report.models["ericsson"]
        assert calib.cf_db == pytest.approx(0.0, abs=1e-12)
        assert calib.mse_after_db2 == pytest.approx(calib.mse_before_db2, abs=1e-9)

    def test_tie_breaks_on_correlation_then_name(self):
        # 0.25 steps keep every intermediate exactly representable, so
        # the two after-correction MSEs tie bit-for-bit
        measured = [0.0, 1.0, 2.0, 3.0]
        wobble = [0.25, -0.25, 0.25, -0.25]
        lean = [-0.25, -0.25, 0.25, 0.25]
        p_wobble = [m + e for m, e in zip(measured, wobble)]
        p_lean = [m + e for m, e in zip(measured, lean)]
        report = calibrate(measured, {"alpha": p_wobble, "zeta": p_lean})
        a, z = report.models["alpha"], report.models["zeta"]
        assert a.mse_after_db2 == z.mse_after_db2
        assert z.pearson_r > a.pearson_r
        assert report.best_model == "zeta"
        # exact duplicates fall back to name order
        report = calibrate(measured, {"beta": p_lean, "alpha": p_lean})
        assert report.best_model == "alpha"

    def test_acceptable_mse_annotation(self):
        measured, predictions, _ = corpus()
        report = calibrate(measured, predictions, acceptable_mse_db2=6.0)
        assert len(report.notes) == 4
        assert all("exceeds" in note for note in report.notes)
        assert calibrate(measured, predictions).notes == ()

    def test_degenerate_series_gets_a_null_r_and_a_note(self, monkeypatch):
        report = calibrate([-70.0, -65.0, -60.0], {"a": [-70.0, -70.0, -70.0], "b": [-71.0, -66.0, -61.0]})
        a = report.models["a"]
        assert a.pearson_r is None
        assert a.cf_db == 5.0
        assert a.mse_before_db2 == pytest.approx(125.0 / 3.0, abs=1e-12)
        assert a.mse_after_db2 == pytest.approx(50.0 / 3.0, abs=1e-12)
        assert report.models["b"].pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.best_model == "b"
        assert report.notes == ("a: pearson_r is undefined for a zero-variance predicted series; reported as null",)
        assert json.loads(report.to_json())["models"]["a"]["pearson_r"] is None
        published = {"a": {"cf_db": 5.0, "mse_before_db2": 125.0 / 3.0, "pearson_r": 0.5, "mse_after_db2": 50.0 / 3.0, "cf_after_db": 5.0}}
        monkeypatch.setattr("propcal.calibration.PUBLISHED_CALIBRATION", published)
        assert published_divergence_notes(report) == ()

    def test_a_flat_series_whose_mean_rounds_has_a_null_r(self):
        # fsum([24.22] * 11) / 11 is an ulp off 24.22, which would leave a variance of ~1e-28
        steps = [0.0] * 10 + [1.0]
        report = calibrate(steps, {"a": [24.22] * 11})
        assert report.models["a"].pearson_r is None
        assert report.notes == ("a: pearson_r is undefined for a zero-variance predicted series; reported as null",)
        report = calibrate([24.22] * 11, {"a": steps})
        assert report.notes == ("a: pearson_r is undefined for a zero-variance measured series; reported as null",)
        for x, y in ((steps, [24.22] * 11), ([24.22] * 11, steps)):
            with pytest.raises(DomainError, match="zero-variance"):
                pearson_r(x, y)

    def test_one_sample_or_flat_measurements_still_calibrate(self):
        report = calibrate([-70.0], {"a": [-72.0]})
        calib = report.models["a"]
        assert (calib.cf_db, calib.mse_before_db2, calib.mse_after_db2) == (2.0, 4.0, 0.0)
        assert calib.pearson_r is None
        assert report.notes == ("a: pearson_r requires at least 2 samples, got 1; reported as null",)
        report = calibrate([-70.0, -70.0], {"a": [-72.0, -71.0]}, acceptable_mse_db2=0.1)
        assert report.notes == (
            "a: pearson_r is undefined for a zero-variance measured series; reported as null",
            "a: corrected mse 0.2500 dB^2 exceeds the acceptable threshold 0.1 dB^2",
        )

    def test_undefined_r_ranks_below_any_r(self):
        # equal after-correction MSE (25 dB^2 each); "a" would win on name
        report = calibrate([-70.0, -60.0], {"a": [-65.0, -65.0], "b": [-80.0, -60.0]})
        assert report.models["a"].mse_after_db2 == report.models["b"].mse_after_db2 == 25.0
        assert report.models["a"].pearson_r is None
        assert report.best_model == "b"

    def test_empty_predictions_rejected(self):
        with pytest.raises(DataError):
            calibrate([-70.0, -71.0], {})

    def test_overflowing_sums_raise_naming_the_series(self):
        for measured in ([1e308, 1e308], [1e200, -1e200]):  # the sum, or the squared deviations, overflow
            with pytest.raises(DomainError, match=r"^measured series: a sum over its values overflows"):
                calibrate(measured, {"a": measured})
        for huge in (1e154, 1e308):  # the squares, or the residuals themselves, overflow when summed
            with pytest.raises(DomainError, match=r"^predicted 'b' series: a sum over its values overflows"):
                calibrate([0.0, 1.0], {"a": [0.0, 2.0], "b": [-huge, -huge]})

    def test_report_json_shape(self):
        measured, predictions, _ = corpus()
        payload = json.loads(calibrate(measured, predictions).to_json())
        assert set(payload) == {"models", "best_model", "selection_rule"}
        entry = payload["models"]["sui"]
        assert set(entry) == {
            "cf_db",
            "mse_before_db2",
            "mse_after_db2",
            "rmse_before_db",
            "rmse_after_db",
            "pearson_r",
            "n",
        }
        assert entry["n"] == 45
        assert entry["rmse_before_db"] == pytest.approx(math.sqrt(entry["mse_before_db2"]), abs=1e-12)

    def test_record_fields_are_the_json_keys_and_the_csv_columns(self):
        measured, predictions, _ = corpus()
        report = calibrate(measured, predictions)
        names = [f.name for f in fields(ModelCalibration)]
        assert list(json.loads(report.to_json())["models"]["sui"]) == names
        assert report.to_csv().splitlines()[0].split(",") == ["model_id", *names, "best"]


rss_series = st.floats(-150.0, 40.0)


@st.composite
def calibration_inputs(draw):
    n = draw(st.integers(1, 40))
    series = st.lists(rss_series, min_size=n, max_size=n)
    return draw(series), draw(st.lists(series, min_size=1, max_size=3))


def reference_metrics(measured, predicted):
    """cf, MSE before and after it, and r (None where undefined), from their definitions.

    Written apart from the package, with exact `math.fsum` sums.
    """
    n = len(measured)
    cf = math.fsum(m - p for m, p in zip(measured, predicted)) / n
    before = math.fsum((m - p) ** 2 for m, p in zip(measured, predicted)) / n
    after = math.fsum((p + cf - m) ** 2 for m, p in zip(measured, predicted)) / n
    dx = [m - math.fsum(measured) / n for m in measured]
    dy = [p - math.fsum(predicted) / n for p in predicted]
    # r does not change when a series is scaled: divide each by its largest deviation, so that
    # no square falls below the normal float range, where it loses bits
    dx, dy = (_scaled_to_one(deviations) for deviations in (dx, dy))
    sxx, syy = math.fsum(d * d for d in dx), math.fsum(d * d for d in dy)
    if n < 2 or min(measured) == max(measured) or min(predicted) == max(predicted) or not sxx or not syy:
        return cf, before, after, None
    return cf, before, after, math.fsum(a * b for a, b in zip(dx, dy)) / (math.sqrt(sxx) * math.sqrt(syy))


def _scaled_to_one(deviations):
    largest = max(map(abs, deviations))
    return [d / largest for d in deviations] if largest else deviations


@settings(max_examples=300, deadline=None)
@given(calibration_inputs())
# r = 1.21e-06 here: the float reference lies 0.22 eps from the exact r, propcal 0.09 eps
@example((
    [7.59375, 0.0, 40.0, 0.0, -26.0, -149.0, -127.375, 0.0, -107.6875, -93.875, 30.375, -113.625, -138.75, -37.25, 1.0,
     -1.5, 5.5, 0.0, 0.0, 0.0, 0.0, -1.0, -21.5, 0.0, -105.0, 10.0, -7.25, 8.125, -94.875],
    [[0.0] * 29,
     [-129.375, -1.5, -49.875, 0.0, -67.0, 0.0, -7.4375, 0.0, 0.0, 6.375, -68.625, -112.9375, -146.5625, -8.0, 0.0, 0.0,
      -91.5, 0.0, 1.875, -1.375, -149.25, -52.0, -9.5, -33.625, 0.0, -6.625, -46.5, -1.5, -7.8125]],
))
def test_calibrate_matches_the_reference_functions(case):
    measured, columns = case
    report = calibrate(measured, {f"m{i}": column for i, column in enumerate(columns)})
    for (model_id, calib), predicted in zip(report.models.items(), columns):
        cf, before, after, r = reference_metrics(measured, predicted)
        assert calib.cf_db == pytest.approx(cf, rel=1e-12, abs=0.0)
        assert calib.mse_before_db2 == pytest.approx(before, rel=1e-12, abs=0.0)
        assert calib.mse_after_db2 == pytest.approx(after, rel=1e-12, abs=0.0)
        assert calib.mse_after_db2 == pytest.approx(before - cf * cf, abs=1e-9 * max(1.0, before))
        if r is None:
            assert calib.pearson_r is None
            assert any(note.startswith(f"{model_id}: pearson_r") for note in report.notes)
        else:
            # within the stated 4*eps of the exact r: near r = 0 a float reference's own rounding is beyond rel=1e-12
            assert exact.r_is_within(calib.pearson_r, exact.r_squared(measured, predicted))


def test_calibrate_holds_one_series_scoring_lists_at_a_time():
    rng = random.Random(7)
    rows = 20_000
    measured = tuple(rng.uniform(-120.0, -40.0) for _ in range(rows))
    columns = [tuple(m + rng.gauss(k, 6.0) for m in measured) for k in range(4)]

    def peak(count):
        tracemalloc.start()
        try:
            calibrate(measured, {f"m{k}": columns[k] for k in range(count)})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(1), peak(4)
    # a list of `rows` new floats takes 32 bytes a value; holding one more series' list would cost all of that, and
    # the three more report rows and notes take far less than the tenth of it allowed here
    assert four - one < 32 * rows / 10


def test_affine_models_share_one_correlation():
    """Models affine in log10(d) cannot differ in r against any series."""
    table = reference_dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelRangeWarning)
        rs = []
        for model_id in ("fspl", "cost231_hata", "sui", "ericsson"):
            model = make_model(model_id, 2530.0, 40.0, 3.0)
            rss = [predict_rss(REFERENCE_SITE, model.path_loss_db(d)) for d in table.distances_m]
            rs.append(pearson_r(table.measured_rss_dbm, rss))
    for a in rs:
        for b in rs:
            assert abs(a - b) <= 1e-12


class TestReportRecords:
    def test_a_report_keeps_its_own_dict_of_rows(self):
        row = ModelCalibration(1.0, 2.0, 1.0, 0.5, 3)
        rows = {"a": row}
        report = CalibrationReport(rows)
        text = report.to_csv()
        rows.clear()
        rows["b"] = 5
        assert report.models == {"a": row}
        assert report.to_csv() == text

    def test_a_report_with_no_rows_is_a_data_error(self):
        with pytest.raises(DataError, match=r"^a calibration report needs at least one model$"):
            CalibrationReport({})

    @pytest.mark.parametrize("scores", [(-2.0, 1.0), (2.0, -1e-300)], ids=["before", "after"])
    def test_a_negative_mse_is_a_domain_error(self, scores):
        with pytest.raises(DomainError, match=r"^mse_(before|after)_db2 must be >= 0, got -"):
            ModelCalibration(1.0, *scores, 0.5, 3)

    @pytest.mark.parametrize("r", [5.0, -1.0000000000000002, 1.0000000000000002])
    def test_a_pearson_r_outside_plus_or_minus_one_is_a_domain_error(self, r):
        with pytest.raises(DomainError, match=rf"^pearson_r must lie in \[-1, 1\], got {re.escape(repr(r))}$"):
            ModelCalibration(1.0, 2.0, 1.0, r, 3)
        # before the check, an r of 5.0 built and won the tie on the after-correction MSE
        with pytest.raises(DomainError, match="^pearson_r must lie in"):
            CalibrationReport({"a": ModelCalibration(1.0, 2.0, 1.0, r, 3), "b": ModelCalibration(1.0, 1.0, 1.0, 0.9, 3)})

    def test_a_row_whose_cf_squared_exceeds_its_mse_is_a_domain_error(self):
        message = "cf_db**2 exceeds mse_before_db2 beyond rounding, got cf_db 3.0 and mse_before_db2 1.0"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ModelCalibration(3.0, 1.0, 2.0, 0.5, 3)
        # the field checks come first
        with pytest.raises(DomainError, match="^n must be a positive int, got 0$"):
            ModelCalibration(3.0, 1.0, 2.0, 0.5, 0)

    @pytest.mark.parametrize("r", [-1, -1.0, 1.0])
    def test_a_pearson_r_at_plus_or_minus_one_is_kept_as_a_float(self, r):
        row = ModelCalibration(1.0, 2.0, 1.0, r, 3)
        assert type(row.pearson_r) is float and row.pearson_r == r

    def test_each_rmse_is_the_root_of_its_mse_to_the_bit(self):
        measured, predictions, _ = corpus()
        rows = [*calibrate(measured, predictions).models.values(), ModelCalibration(0.0, 2, Fraction(1, 3), None, 1)]
        for row in rows:
            assert row.rmse_before_db.hex() == math.sqrt(row.mse_before_db2).hex()
            assert row.rmse_after_db.hex() == math.sqrt(row.mse_after_db2).hex()


@st.composite
def linear_pairs(draw):
    """A measured series and y = a*x + b at each value, a exactly linear map rounded per sample."""
    x = draw(st.lists(st.floats(-150.0, 40.0), min_size=2, max_size=30))
    assume(min(x) < max(x))
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 10.0))
    b = draw(st.floats(-100.0, 100.0))
    y = [a * v + b for v in x]
    assume(min(y) < max(y))  # rounding can flatten y, whose r is then undefined
    return x, y


@settings(max_examples=300, deadline=None)
@given(linear_pairs())
def test_r_of_an_exactly_linear_pair_stays_within_one(pair):
    # rounding took |r| of such pairs past 1 by up to 2**-52 in about one draw in nine
    x, y = pair
    assert -1.0 <= pearson_r(x, y) <= 1.0
    for row in calibrate(x, {"y": y, "x": x}).models.values():
        assert -1.0 <= row.pearson_r <= 1.0


def _winner(models):
    """The model id `SELECTION_RULE` picks, by brute force: the least (after-correction MSE, -r or inf, id)."""

    def rank(model_id):
        calib = models[model_id]
        return calib.mse_after_db2, math.inf if calib.pearson_r is None else -calib.pearson_r, model_id

    return min(models, key=rank)


# scores from a short list, so that rows tie, or from the whole range
MSES = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, sys.float_info.max)
RS = st.none() | st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0)


@st.composite
def report_row(draw, n):
    """A row a drive test can give: |cf| at most the root of the before-correction MSE."""
    before = draw(MSES)
    cf = draw(st.floats(-math.sqrt(before), math.sqrt(before)))
    return ModelCalibration(cf, before, draw(MSES), draw(RS), n)


@st.composite
def report_rows(draw):
    n = draw(st.integers(1, 10**6))
    return draw(st.dictionaries(st.text(max_size=3), report_row(n), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(report_rows())
def test_a_report_names_the_winner_of_its_rows(rows):
    assert CalibrationReport(rows).best_model == _winner(rows)


@settings(max_examples=100, deadline=None)
@given(calibration_inputs())
def test_calibrate_names_the_winner_of_its_own_rows(case):
    measured, columns = case
    report = calibrate(measured, {f"m{i}": column for i, column in enumerate(columns)})
    assert report.best_model == _winner(report.models)


@st.composite
def near_flat_drive_tests(draw):
    """A measured series and a flat prediction whose residuals are flat or a few ulps apart, at a magnitude from
    subnormal to about 1e300."""
    n = draw(st.integers(1, 40))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    base = sign * math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-1074, 996)))
    steps = draw(st.lists(st.integers(-4, 4) | st.just(0), min_size=n, max_size=n))
    residuals = [base + k * math.ulp(base) for k in steps]
    level = draw(st.just(0.0) | st.sampled_from([-70.0, 1e-300, 1e300]) | st.floats(-1e300, 1e300))
    return [level + r for r in residuals], [level] * n


@settings(max_examples=300, deadline=None)
@given(near_flat_drive_tests())
@example(([5e-324] * 3, [0.0] * 3))
@example(([1e-155, 1e-155 + 2**-567, 1e-155], [0.0] * 3))
def test_every_row_calibrate_returns_passes_the_mean_square_check(case):
    # calibrate gave cf**2 up to 4.7*eps above the before-correction MSE on near-flat residuals
    measured, predicted = case
    try:
        report = calibrate(measured, {"a": predicted})
    except DomainError as exc:
        assert re.fullmatch(r"(measured|predicted 'a') series: a sum over its values overflows the float range", str(exc))
        return
    row = report.models["a"]
    assert row.cf_db * row.cf_db <= row.mse_before_db2 * (1.0 + 32 * 2.0**-53) + 16 * 5e-324


class TestDecadeSlope:
    def test_exact_on_synthetic_series(self):
        distances = [100.0, 250.0, 700.0, 1900.0, 5200.0]
        loss = [90.0 + 35.7 * math.log10(d / 1000.0) for d in distances]
        assert decade_slope(distances, loss) == pytest.approx(35.7, abs=1e-9)

    def test_matches_numpy_polyfit(self):
        table = reference_dataset()
        loss = [REFERENCE_SITE.budget_db - rss for rss in table.predictions["cost231_hata"]]
        expected = np.polyfit(np.log10(table.distances_m), loss, 1)[0]
        assert decade_slope(table.distances_m, loss) == pytest.approx(expected, abs=1e-9)

    def test_lifting_rss_negates_the_slope(self):
        table = reference_dataset()
        column = table.predictions["sui"]
        loss = [REFERENCE_SITE.budget_db - rss for rss in column]
        down = decade_slope(table.distances_m, column)
        up = decade_slope(table.distances_m, loss)
        assert up == pytest.approx(-down, abs=1e-9)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DataError):
            decade_slope([1000.0], [100.0, 110.0])
        with pytest.raises(DomainError):
            decade_slope([1000.0], [100.0])
        with pytest.raises(DomainError):
            decade_slope([1000.0, -5.0], [100.0, 110.0])
        with pytest.raises(DomainError):
            decade_slope([1000.0, 1000.0], [100.0, 110.0])
        # fsum / 7 misses log10(205) by an ulp, and the slope must still be undefined
        with pytest.raises(DomainError, match="^decade slope undefined: every sample lies at the same distance$"):
            decade_slope([205.0] * 7, [100.0 + i for i in range(7)])


def test_cost231_height_inverts_slope():
    for hb in (15.0, 40.0, 90.0):
        slope = 44.9 - 6.55 * math.log10(hb)
        assert cost231_tx_height_from_slope(slope) == pytest.approx(hb, abs=1e-9)


@pytest.mark.parametrize("slope", [-2.07e11, -2000.0, 2200.0])
def test_a_slope_whose_height_leaves_the_float_range_raises_naming_it(slope):
    # 10**((44.9 - slope) / 6.55) overflows for the first two and underflows to 0 for the last
    message = f"slope {slope:g} dB/decade implies a transmit height outside the float range"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        cost231_tx_height_from_slope(slope)


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
class TestInferSiteParameters:
    distances = (200.0, 400.0, 800.0, 1600.0, 3200.0)

    def synthetic_loss(self, model_id, params):
        model = model_from_params(model_id, params)
        return [model.path_loss_db(d) for d in self.distances]

    def test_recovers_on_grid_parameters_exactly(self):
        truth = {
            "freq_mhz": 2530.0,
            "tx_height_m": 37.5,
            "rx_height_m": 3.0,
            "environment": "metropolitan",
        }
        loss = self.synthetic_loss("cost231_hata", truth)
        result = infer_site_parameters(
            self.distances,
            loss,
            "cost231_hata",
            {"tx_height_m": [35.0, 36.5, 37.5, 39.0], "environment": ["medium_suburban", "metropolitan"]},
            base={"freq_mhz": 2530.0, "rx_height_m": 3.0},
        )
        assert result.params["tx_height_m"] == 37.5
        assert result.params["environment"] == "metropolitan"
        assert result.fit_mse_db2 <= 1e-18
        assert result.evaluated == 8

    def test_grid_axis_overrides_base(self):
        loss = self.synthetic_loss(
            "ericsson", {"freq_mhz": 2530.0, "tx_height_m": 60.0, "rx_height_m": 3.0}
        )
        result = infer_site_parameters(
            self.distances,
            loss,
            "ericsson",
            {"tx_height_m": [40.0, 60.0, 80.0]},
            base={"freq_mhz": 2530.0, "tx_height_m": 10.0, "rx_height_m": 3.0},
        )
        assert result.params["tx_height_m"] == 60.0

    def test_slope_reported_alongside_fit(self):
        loss = self.synthetic_loss(
            "cost231_hata", {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0}
        )
        result = infer_site_parameters(
            self.distances,
            loss,
            "cost231_hata",
            {"tx_height_m": [40.0]},
            base={"freq_mhz": 2530.0, "rx_height_m": 3.0},
        )
        assert result.decade_slope_db == pytest.approx(44.9 - 6.55 * math.log10(40.0), abs=1e-9)

    def test_infeasible_grid_raises_the_first_failure(self):
        # d0 above every sample distance makes every combination invalid
        loss = self.synthetic_loss("sui", {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0})
        message = (
            "no sui grid point can be scored; the first fails: "
            f"sui_path_loss requires distance_m > d0 (1e+06 m), got {self.distances[0]:g} m"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            infer_site_parameters(
                self.distances,
                loss,
                "sui",
                {"sui_d0_m": [1e6, 2e6]},
                base={"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0},
            )

    @pytest.mark.parametrize(
        ("grid", "base", "message"),
        [
            ({"downtilt": [1.0]}, {}, "unknown model parameters"),
            ({"tx_height_m": [40.0]}, {"downtilt": 1.0}, "unknown model parameters"),
            ({"terrain": ["B", "D"]}, {}, "unknown terrain 'D'"),
            ({"terrain": [5.0]}, {}, "unknown terrain 5.0"),
            ({"tx_height_m": [40.0, "abc"]}, {}, "model parameter tx_height_m must be finite, got 'abc'"),
            ({"environment": ["metro"]}, {}, "unknown environment 'metro'"),
            ({"tx_gain_linear": [1.0, math.inf]}, {}, "model parameter tx_gain_linear must be finite, got inf"),
        ],
    )
    def test_malformed_grid_or_base_raises_instead_of_returning_inf(self, grid, base, message):
        loss = self.synthetic_loss("sui", {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0})
        fixed = {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0, **base}
        with pytest.raises(DomainError, match=message):
            infer_site_parameters(self.distances, loss, "sui", grid, base=fixed)

    def test_unknown_model_id_raises_instead_of_returning_inf(self):
        with pytest.raises(DomainError, match="unknown model id 'okumura'"):
            infer_site_parameters(self.distances, [100.0, 110.0, 120.0, 130.0, 140.0], "okumura", {"freq_mhz": [900.0]})

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            infer_site_parameters(self.distances, [100.0] * 5, "fspl", {})
        with pytest.raises(DomainError, match="empty"):
            infer_site_parameters(self.distances, [100.0] * 5, "fspl", {"tx_gain_linear": []})


class TestPublishedDivergence:
    def test_the_bundled_table_holds_the_five_published_metrics_of_known_models(self):
        # `published_divergence_notes` reads the table unchecked
        assert set(PUBLISHED_CALIBRATION) <= set(MODEL_IDS)
        for model_id, row in PUBLISHED_CALIBRATION.items():
            assert set(row) == {"cf_db", "mse_before_db2", "pearson_r", "mse_after_db2", "cf_after_db"}, model_id
            assert all(type(value) is float and math.isfinite(value) for value in row.values()), model_id

    def test_reference_corpus_yields_exactly_the_transposition_note(self):
        measured, predictions, _ = corpus()
        notes = published_divergence_notes(calibrate(measured, predictions))
        assert len(notes) == 1
        note = notes[0]
        assert note.startswith("extended_cost231:")
        assert "6.254" in note
        assert "18.1554" in note
        assert "transposed" in note

    def test_consistent_published_values_yield_no_notes(self, monkeypatch):
        measured, predictions, _ = corpus()
        report = calibrate(measured, predictions)
        published = {
            model_id: {
                "cf_db": calib.cf_db,
                "mse_before_db2": calib.mse_before_db2,
                "pearson_r": calib.pearson_r,
                "mse_after_db2": calib.mse_after_db2,
                "cf_after_db": calib.cf_db,
            }
            for model_id, calib in report.models.items()
        }
        monkeypatch.setattr("propcal.calibration.PUBLISHED_CALIBRATION", published)
        assert published_divergence_notes(report) == ()

    def test_plain_divergence_notes_name_the_metric(self, monkeypatch):
        measured, predictions, _ = corpus()
        report = calibrate(measured, {"sui": predictions["sui"]})
        published = {
            "sui": {
                "cf_db": 0.0,
                "mse_before_db2": 100.0,
                "pearson_r": 0.5,
                "mse_after_db2": 100.0,
                "cf_after_db": 0.0,
            }
        }
        monkeypatch.setattr("propcal.calibration.PUBLISHED_CALIBRATION", published)
        assert published_divergence_notes(report) == (
            "sui: computed cf -22.3660 dB differs from published 0 dB",
            "sui: computed before-correction mse 547.5840 dB^2 differs from published 100 dB^2",
            "sui: computed pearson r 0.9188 differs from published 0.5",
            "sui: computed after-correction mse 47.3460 dB^2 differs from published 100 dB^2",
        )

    @pytest.mark.parametrize(("report", "kind"), [(None, "NoneType"), ({"models": {}}, "dict")])
    def test_a_report_that_is_not_a_calibration_report_is_a_data_error(self, report, kind):
        with pytest.raises(DataError, match=f"^report must be a CalibrationReport, got {kind}$"):
            published_divergence_notes(report)


def test_models_constant_is_complete():
    assert MODEL_IDS == ("fspl", "cost231_hata", "extended_cost231", "sui", "ericsson")
