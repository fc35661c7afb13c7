"""Every public scalar parameter and every column follows one rule.

A value passes if it is a real number, not a bool, finite and in range.
Anything else raises `DomainError` naming the parameter and quoting the
value, or, in a column, the entry point's `DataError` or `DomainError`
naming the column and the position and quoting the value.  The checks
live in `propcal.errors`, and these cases pin that each public entry
point routes its numbers through them.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propcal import (
    ENVIRONMENTS,
    MODEL_IDS,
    REFERENCE_SITE,
    TERRAIN_B,
    TERRAINS,
    DataError,
    DomainError,
    DriveTestTable,
    EricssonParams,
    Environment,
    ExtendedCost231Loss,
    ModelCalibration,
    PathLossModel,
    SiteConfig,
    SuiParams,
    TerrainCategory,
    calibrate,
    correction_factor,
    cost231_hata,
    cost231_tx_height_from_slope,
    decade_slope,
    emit_plot_series,
    ericsson_frequency_term,
    ericsson_path_loss,
    extended_cost231,
    fspl,
    infer_site_parameters,
    make_model,
    model_from_params,
    mse,
    parse_drive_test_csv,
    pearson_r,
    predict_rss,
    published_divergence_notes,
    reference_dataset,
    serialize_drive_test_csv,
    site_from_json,
    site_to_json,
    sui_gamma,
    sui_path_loss,
    with_prediction,
)
from propcal.errors import finite, nonnegative, positive

pytestmark = pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")

F, HB, HR, D = 2530.0, 40.0, 3.0, 1000.0
SITE = {"freq_mhz": F, "tx_height_m": HB, "rx_height_m": HR}
BAD_VALUES = [None, "40", True, math.nan, math.inf, -math.inf]


def _closed_form_cases(name, function):
    """The four scalar arguments (f, hb, hr, d) of a closed form, each made bad in turn."""
    return {
        f"{name}.freq_mhz": ("freq_mhz", lambda v: function(v, HB, HR, D)),
        f"{name}.tx_height_m": ("tx_height_m", lambda v: function(F, v, HR, D)),
        f"{name}.rx_height_m": ("rx_height_m", lambda v: function(F, HB, v, D)),
        f"{name}.distance_m": ("distance_m", lambda v: function(F, HB, HR, v)),
    }


def _model_from_params_case(key, model_id):
    return (key, lambda v: model_from_params(model_id, {**SITE, key: v}))


# id -> (the name the error must hold, a call that passes the value to that parameter)
PARAMETERS = {
    "make_model.freq_mhz": ("freq_mhz", lambda v: make_model("cost231_hata", v, HB, HR)),
    "make_model.tx_height_m": ("tx_height_m", lambda v: make_model("cost231_hata", F, v, HR)),
    "make_model.rx_height_m": ("rx_height_m", lambda v: make_model("cost231_hata", F, HB, v)),
    "make_model.tx_gain_linear": ("tx_gain_linear", lambda v: make_model("fspl", F, tx_gain_linear=v)),
    **{
        f"model_from_params.{key}": _model_from_params_case(key, model_id)
        for key, model_id in [
            ("freq_mhz", "sui"),
            ("tx_height_m", "sui"),
            ("rx_height_m", "sui"),
            ("tx_gain_linear", "fspl"),
            ("sui_d0_m", "sui"),
            ("sui_shadow_db", "sui"),
            ("sui_xh_denominator_m", "sui"),
            ("ericsson_a0", "ericsson"),
            ("ericsson_a1", "ericsson"),
            ("ericsson_a2", "ericsson"),
            ("ericsson_a3", "ericsson"),
        ]
    },
    "fspl.freq_mhz": ("freq_mhz", lambda v: fspl(v, 1.0)),
    "fspl.distance_km": ("distance_km", lambda v: fspl(F, v)),
    "fspl.tx_gain_linear": ("tx_gain_linear", lambda v: fspl(F, 1.0, v)),
    **_closed_form_cases("cost231_hata", cost231_hata),
    **_closed_form_cases("extended_cost231", extended_cost231),
    **_closed_form_cases("sui_path_loss", sui_path_loss),
    **_closed_form_cases("ericsson_path_loss", ericsson_path_loss),
    "sui_gamma.tx_height_m": ("tx_height_m", lambda v: sui_gamma(v, TERRAIN_B)),
    "ericsson_frequency_term.freq_mhz": ("freq_mhz", ericsson_frequency_term),
    **{
        f"SiteConfig.{field.name}": (field.name, lambda v, name=field.name: dataclasses.replace(REFERENCE_SITE, **{name: v}))
        for field in dataclasses.fields(REFERENCE_SITE)
    },
    "SuiParams.d0_m": ("d0_m", lambda v: SuiParams(d0_m=v)),
    "SuiParams.shadow_db": ("shadow_db", lambda v: SuiParams(shadow_db=v)),
    "SuiParams.xh_denominator_m": ("xh_denominator_m", lambda v: SuiParams(xh_denominator_m=v)),
    **{
        f"EricssonParams.{name}": (name, lambda v, name=name: EricssonParams(**{name: v}))
        for name in ("a0", "a1", "a2", "a3")
    },
    "predict_rss.path_loss_db": ("path_loss_db", lambda v: predict_rss(REFERENCE_SITE, v)),
    "cost231_tx_height_from_slope.slope_db_per_decade": ("slope_db_per_decade", cost231_tx_height_from_slope),
    "PathLossModel.corrected.cf_db": ("cf_db", lambda v: make_model("ericsson", F, HB, HR).corrected(v)),
    "PathLossModel.path_loss_db.distance_m": ("distance_m", lambda v: make_model("ericsson", F, HB, HR).path_loss_db(v)),
    "ModelCalibration.cf_db": ("cf_db", lambda v: ModelCalibration(v, 2.0, 1.0, 0.5, 3)),
    "ModelCalibration.mse_before_db2": ("mse_before_db2", lambda v: ModelCalibration(1.0, v, 1.0, 0.5, 3)),
    "ModelCalibration.mse_after_db2": ("mse_after_db2", lambda v: ModelCalibration(1.0, 2.0, v, 0.5, 3)),
    "ModelCalibration.pearson_r": ("pearson_r", lambda v: ModelCalibration(1.0, 2.0, 1.0, v, 3)),
    "ModelCalibration.n": ("n", lambda v: ModelCalibration(1.0, 2.0, 1.0, 0.5, v)),
    "calibrate.acceptable_mse_db2": (
        "acceptable_mse_db2",
        lambda v: calibrate([-70.0, -60.0], {"a": [-71.0, -62.0]}, acceptable_mse_db2=v),
    ),
}

# `model_from_params` reads a None value as an absent key, so None is an
# error there only for the parameters that have no default
_NONE_MEANS_ABSENT = {
    f"model_from_params.{key}"
    for key in ("tx_gain_linear", "sui_d0_m", "sui_shadow_db", "sui_xh_denominator_m")
} | {f"model_from_params.ericsson_a{i}" for i in range(4)}
# and `calibrate` reads a None threshold as no threshold, and a report row a None r as r undefined
_NONE_IS_ALLOWED = _NONE_MEANS_ABSENT | {"calibrate.acceptable_mse_db2", "ModelCalibration.pearson_r"}


@pytest.mark.parametrize(
    ("case", "value"),
    [(case, value) for case in PARAMETERS for value in BAD_VALUES if not (value is None and case in _NONE_IS_ALLOWED)],
    ids=lambda x: x if isinstance(x, str) and x in PARAMETERS else repr(x),
)
def test_every_scalar_parameter_rejects_what_is_not_a_finite_real_number(case, value):
    name, call = PARAMETERS[case]
    with pytest.raises(DomainError) as excinfo:
        call(value)
    message = str(excinfo.value)
    assert name in message
    assert f"got {value!r}" in message


@pytest.mark.parametrize("case", sorted(_NONE_MEANS_ABSENT))
def test_a_none_model_parameter_takes_the_default(case):
    key = case.partition(".")[2]
    model_id = "fspl" if key == "tx_gain_linear" else "ericsson" if key.startswith("ericsson") else "sui"
    assert model_from_params(model_id, {**SITE, key: None}) == model_from_params(model_id, SITE)


@pytest.mark.parametrize(
    ("check", "low_value"),
    [(finite, -1e308), (positive, 5e-324), (nonnegative, 0.0)],
    ids=["finite", "positive", "nonnegative"],
)
def test_the_checks_return_floats_and_accept_any_real_number(check, low_value):
    assert check("x", low_value) == low_value
    for value, expected in [(40, 40.0), (Fraction(3, 2), 1.5), (2.5, 2.5)]:
        result = check("x", value)
        assert (result, type(result)) == (expected, float)


# a call that raises the range error of a distance bound given as its one argument
_BOUND_ERRORS = {
    "SuiParams.d0_m": lambda v: sui_path_loss(F, HB, HR, 50.0, SuiParams(d0_m=v)),
    "PathLossModel.min_distance_m": lambda v: PathLossModel("sui", 1.0, 2.0, min_distance_m=v).path_loss_db(0.1),
}


@pytest.mark.parametrize(
    ("case", "value", "as_float"),
    [
        ("SuiParams.d0_m", 100, 100.0),
        ("SuiParams.d0_m", Fraction(100), 100.0),
        ("SuiParams.d0_m", np.float32(100), 100.0),
        ("PathLossModel.min_distance_m", Fraction(1, 3), 1 / 3),
    ],
    ids=repr,
)
def test_a_distance_bound_of_any_real_type_gives_the_range_error_of_its_float(case, value, as_float):
    # the bound reaches a `{:g}` format, which Fraction supports only from Python 3.12
    def message(bound):
        with pytest.raises(DomainError) as excinfo:
            _BOUND_ERRORS[case](bound)
        return str(excinfo.value)

    assert message(value) == message(as_float)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: SuiParams(d0_m=v * 100),
        lambda v: make_model("fspl", v * 2530),
        lambda v: make_model("fspl", 2530.0).path_loss_series([v * 100]),
    ],
    ids=["SuiParams.d0_m", "make_model.freq_mhz", "path_loss_series"],
)
def test_a_numpy_float32_passes_without_a_warning_as_its_float(call):
    # NumPy 2 casts a float bound compared with a float32 to float32, where the largest float overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(np.float32(1.0)) == call(1.0)


@pytest.mark.parametrize(
    "value",
    [np.float32("inf"), np.float32("nan"), np.float32(0.0), np.longdouble("1e400"), np.longdouble("1e-400")],
    ids=["float32_inf", "float32_nan", "float32_zero", "longdouble_over_float_max", "longdouble_under_least_positive"],
)
def test_a_numpy_real_out_of_bounds_is_rejected_without_a_warning(value):
    # compared as its float: an infinite or NaN float32 fails the bounds, and a longdouble past the float range
    # becomes an infinity or a zero, which fail them too, with the value as given in the message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as excinfo:
            positive("x", value)
    assert str(excinfo.value) == f"x must be a positive finite number, got {value!r}"


def test_a_fraction_meets_the_bounds_exactly_not_as_its_rounded_float():
    # 3e-324 lies below the least positive float, 5e-324, to which float() rounds it
    with pytest.raises(DomainError, match="^x must be a positive finite number, got Fraction"):
        positive("x", Fraction(3, 10**324))


@pytest.mark.parametrize(
    ("check", "value", "rule"),
    [
        (positive, 0.0, "must be a positive finite number"),
        (positive, -0.0, "must be a positive finite number"),
        (nonnegative, -5e-324, "must be >= 0"),
        (finite, 10**400, "must be finite"),
        (positive, 10**400, "must be a positive finite number"),
    ],
)
def test_the_checks_reject_values_out_of_range(check, value, rule):
    with pytest.raises(DomainError, match=f"^freq_mhz {rule}, got {value!r}$"):
        check("freq_mhz", value)


def test_a_none_threshold_adds_no_note():
    assert calibrate([-70.0, -60.0], {"a": [-71.0, -62.0]}, acceptable_mse_db2=None).notes == ()


def _column(value):
    """A column of three RSS-like values with `value` at position 2."""
    return [-60.0, value, -62.0]


def _distances(value):
    return [200.0, value, 800.0]


def _series_case(metric, series, column=_column):
    """A call of `metric` with `column(value)`, by default the value at position 2, as its measured or its predicted series."""
    if series == "measured":
        return lambda v: metric(column(v), _column(-70.0))
    return lambda v: metric(_column(-70.0), column(v))


THREE_ROWS = DriveTestTable((500.0, 400.0, 300.0), (-58.0, -61.0, -60.0))
GRID = {"tx_gain_linear": [1.0]}

# id -> (error class, column, position, a call that puts the value at position 2 of that column)
COLUMNS = {
    "DriveTestTable.distances_m": (DataError, "distance_m", "row 2", lambda v: DriveTestTable(_distances(v), _column(-70.0))),
    "DriveTestTable.measured_rss_dbm": (DataError, "rssi_dbm", "row 2", lambda v: DriveTestTable(_distances(400.0), _column(v))),
    "DriveTestTable.predictions": (
        DataError, "pred_a", "row 2", lambda v: DriveTestTable(_distances(400.0), _column(-70.0), {"a": _column(v)})
    ),
    "with_prediction.values": (DataError, "pred_x", "row 2", lambda v: with_prediction(THREE_ROWS, "x", _column(v))),
    "PathLossModel.path_loss_series": (
        DomainError, "distance_m", "distance 2", lambda v: make_model("fspl", F).path_loss_series(_distances(v))
    ),
    **{
        f"{metric.__name__}.{series}": (DataError, f"{series} series", "value 2", _series_case(metric, series))
        for metric in (correction_factor, mse, pearson_r)
        for series in ("measured", "predicted")
    },
    "calibrate.measured": (DataError, "measured series", "value 2", lambda v: calibrate(_column(v), {"a": _column(-70.0)})),
    "calibrate.predictions": (
        DataError, "predicted 'a' series", "value 2", lambda v: calibrate(_column(-70.0), {"a": _column(v)})
    ),
    "decade_slope.distances_m": (DataError, "distance series", "value 2", lambda v: decade_slope(_distances(v), _column(1.0))),
    "decade_slope.loss_db": (DataError, "loss series", "value 2", lambda v: decade_slope(_distances(400.0), _column(v))),
    "infer_site_parameters.distances_m": (
        DataError, "distance series", "value 2", lambda v: infer_site_parameters(_distances(v), _column(1.0), "fspl", GRID)
    ),
    "infer_site_parameters.path_loss_db": (
        DataError, "loss series", "value 2", lambda v: infer_site_parameters(_distances(400.0), _column(v), "fspl", GRID)
    ),
}


@pytest.mark.parametrize(
    ("case", "value"),
    [(case, value) for case in COLUMNS for value in BAD_VALUES],
    ids=lambda x: x if isinstance(x, str) and x in COLUMNS else repr(x),
)
def test_every_column_rejects_what_is_not_a_finite_real_number_naming_its_place(case, value):
    error, column, position, call = COLUMNS[case]
    with pytest.raises(error) as excinfo:
        call(value)
    message = str(excinfo.value)
    assert column in message
    assert position in message
    assert repr(value) in message


# id -> (error class, the name the error must hold, a call that passes the value as a whole column or as a column name);
# the cases of `COLUMNS` put a value inside a column, these put one in the column's place
NOT_ITERABLE = {
    "DriveTestTable.distances_m": (DataError, "distance_m", lambda v: DriveTestTable(v, _column(-70.0))),
    "DriveTestTable.measured_rss_dbm": (DataError, "rssi_dbm", lambda v: DriveTestTable(_distances(400.0), v)),
    "DriveTestTable.predictions": (
        DataError, "prediction column 'a'", lambda v: DriveTestTable(_distances(400.0), _column(-70.0), {"a": v})
    ),
    "DriveTestTable.predictions.name": (
        DataError, "prediction column name", lambda v: DriveTestTable(_distances(400.0), _column(-70.0), {v: _column(-70.0)})
    ),
    "with_prediction.values": (DataError, "prediction column 'x'", lambda v: with_prediction(THREE_ROWS, "x", v)),
    "with_prediction.name": (DataError, "prediction column name", lambda v: with_prediction(THREE_ROWS, v, _column(-70.0))),
    "PathLossModel.path_loss_series": (DomainError, "distances_m", lambda v: make_model("fspl", F).path_loss_series(v)),
    **{
        f"{metric.__name__}.{series}": (DataError, f"{series} series", _series_case(metric, series, column=lambda v: v))
        for metric in (correction_factor, mse, pearson_r)
        for series in ("measured", "predicted")
    },
    "calibrate.measured": (DataError, "measured series", lambda v: calibrate(v, {"a": _column(-70.0)})),
    "calibrate.predictions": (DataError, "predicted 'a' series", lambda v: calibrate(_column(-70.0), {"a": v})),
    "decade_slope.distances_m": (DataError, "distance series", lambda v: decade_slope(v, _column(1.0))),
    "decade_slope.loss_db": (DataError, "loss series", lambda v: decade_slope(_distances(400.0), v)),
    "infer_site_parameters.distances_m": (
        DataError, "distance series", lambda v: infer_site_parameters(v, _column(1.0), "fspl", GRID)
    ),
    "infer_site_parameters.path_loss_db": (
        DataError, "loss series", lambda v: infer_site_parameters(_distances(400.0), v, "fspl", GRID)
    ),
    "infer_site_parameters.grid_axis": (
        DomainError,
        "parameter grid axis 'tx_gain_linear'",
        lambda v: infer_site_parameters(_distances(400.0), _column(1.0), "fspl", {"tx_gain_linear": v}),
    ),
}
# id -> (error class, the argument the error must name, a call that passes the value where a mapping is due)
NOT_A_MAPPING = {
    "DriveTestTable.predictions": (DataError, "predictions", lambda v: DriveTestTable(_distances(400.0), _column(-70.0), v)),
    "calibrate.predictions": (DataError, "predictions", lambda v: calibrate(_column(-70.0), v)),
    "model_from_params.params": (DomainError, "params", lambda v: model_from_params("fspl", v)),
    "infer_site_parameters.grid": (DomainError, "grid", lambda v: infer_site_parameters(_distances(400.0), _column(1.0), "fspl", v)),
    "infer_site_parameters.base": (
        DomainError, "base", lambda v: infer_site_parameters(_distances(400.0), _column(1.0), "fspl", GRID, base=v)
    ),
}


@pytest.mark.parametrize(
    ("case", "value"),
    [(case, value) for case in NOT_ITERABLE for value in (None, 5)],
    ids=lambda x: x if isinstance(x, str) else repr(x),
)
def test_a_column_or_a_column_name_in_the_wrong_place_is_named(case, value):
    error, name, call = NOT_ITERABLE[case]
    with pytest.raises(error) as excinfo:
        call(value)
    message = str(excinfo.value)
    assert name in message
    assert f"got {value!r}" in message


@pytest.mark.parametrize(
    ("case", "value"),
    # None is the default `base`, so it is no error there
    [(case, value) for case in NOT_A_MAPPING for value in (None, 5, "fspl", [("a", 1.0)])
     if not (value is None and case == "infer_site_parameters.base")],
    ids=lambda x: x if isinstance(x, str) and x in NOT_A_MAPPING else repr(x),
)
def test_a_mapping_argument_that_is_not_a_mapping_is_named(case, value):
    error, name, call = NOT_A_MAPPING[case]
    with pytest.raises(error, match=f"^{name}: not a mapping, got ") as excinfo:
        call(value)
    assert str(excinfo.value).endswith(f"got {value!r}")


# id -> (error class, the whole message, a call that passes a value of the wrong type where one of propcal's own
# types, or a str, is due): `as_instance` checks each at its function's entry; the SUI and Ericsson closed forms pass
# their `params` on to `make_model`, which names them as its own argument
WRONG_TYPE = {
    "make_model.environment": (
        DomainError, "environment must be an Environment, got str", lambda: make_model("cost231_hata", F, HB, HR, environment="x")
    ),
    "make_model.sui_params": (
        DomainError, "sui_params must be a SuiParams, got str", lambda: make_model("sui", F, HB, HR, sui_params="x")
    ),
    "make_model.ericsson_params": (
        DomainError, "ericsson_params must be an EricssonParams, got str", lambda: make_model("ericsson", F, HB, HR, ericsson_params="x")
    ),
    "cost231_hata.environment": (
        DomainError, "environment must be an Environment, got str", lambda: cost231_hata(F, HB, HR, 1.0, "metro")
    ),
    "sui_path_loss.params": (DomainError, "sui_params must be a SuiParams, got str", lambda: sui_path_loss(F, HB, HR, D, "x")),
    "ericsson_path_loss.params": (
        DomainError, "ericsson_params must be an EricssonParams, got str", lambda: ericsson_path_loss(F, HB, HR, D, "x")
    ),
    "sui_gamma.terrain": (DomainError, "terrain must be a TerrainCategory, got str", lambda: sui_gamma(HB, "B")),
    "SuiParams.terrain": (DomainError, "terrain must be a TerrainCategory, got str", lambda: SuiParams(terrain="B")),
    "predict_rss.site": (DataError, "site must be a SiteConfig, got NoneType", lambda: predict_rss(None, 100.0)),
    "site_to_json.site": (DataError, "site must be a SiteConfig, got dict", lambda: site_to_json({})),
    "site_from_json.text": (DataError, "text must be a str, got bytes", lambda: site_from_json(b"{}")),
    "parse_drive_test_csv.text": (DataError, "text must be a str, got bytes", lambda: parse_drive_test_csv(b"distance_m,rssi_dbm\n")),
    "serialize_drive_test_csv.table": (
        DataError, "table must be a DriveTestTable, got str", lambda: serialize_drive_test_csv("distance_m,rssi_dbm\n")
    ),
    "with_prediction.table": (DataError, "table must be a DriveTestTable, got NoneType", lambda: with_prediction(None, "a", [])),
    "emit_plot_series.table": (
        DataError, "table must be a DriveTestTable, got NoneType", lambda: emit_plot_series(None, REFERENCE_SITE)
    ),
    "emit_plot_series.site": (
        DataError, "site must be a SiteConfig, got NoneType", lambda: emit_plot_series(reference_dataset(), None, quantity="pl")
    ),
    "published_divergence_notes.report": (
        DataError, "report must be a CalibrationReport, got dict", lambda: published_divergence_notes({})
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE))
def test_an_argument_of_the_wrong_type_is_named_with_the_type_it_got(case):
    error, message, call = WRONG_TYPE[case]
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_the_closed_forms_read_none_params_as_the_defaults():
    assert sui_path_loss(F, HB, HR, D, None) == sui_path_loss(F, HB, HR, D)
    assert ericsson_path_loss(F, HB, HR, D, None) == ericsson_path_loss(F, HB, HR, D)


@pytest.mark.parametrize(
    "call",
    [
        lambda col: DriveTestTable([d * 100 for d in col], [-d for d in col], {"a": [-d - 1 for d in col]}),
        lambda col: make_model("sui", F, HB, HR).path_loss_series([d * 1000 for d in col]),
        lambda col: calibrate([-d for d in col], {"a": [-d * 2 for d in col]}),
        lambda col: (correction_factor(col, col[::-1]), mse(col, col[::-1]), pearson_r(col, col[::-1]), decade_slope(col, col)),
    ],
    ids=["DriveTestTable", "path_loss_series", "calibrate", "metrics"],
)
def test_int_and_numpy_columns_give_the_float_column_result(call):
    ints = [3, 5, 4, 9, 7]
    expected = repr(call([float(v) for v in ints]))  # a repr shows an int or a NumPy scalar that was kept
    assert repr(call(ints)) == expected
    assert repr(call(list(np.array(ints, dtype=np.float64)))) == expected
    assert repr(call(np.array(ints, dtype=np.float64))) == expected


# each real type a record field may be given; every value below is exact in float32, so each type holds it
REAL_TYPES = [int, Fraction, np.float32, np.float64, np.longdouble]

# record -> a build of it with each numeric field given as `real(x)`
RECORDS = {
    "Environment": lambda real: Environment("x", real(3.0)),
    "TerrainCategory": lambda real: TerrainCategory("X", real(4.5), real(0.0078125), real(17.25)),
    "SuiParams": lambda real: SuiParams(TERRAIN_B, real(100.0), real(8.25), real(2000.0)),
    "EricssonParams": lambda real: EricssonParams(real(36.25), real(30.25), real(-12.0), real(0.125)),
    "ExtendedCost231Loss": lambda real: ExtendedCost231Loss(real(100.5), real(41.25), real(-3.5), real(2.75)),
    "PathLossModel": lambda real: PathLossModel("m", real(100.5), real(35.25), real(-1.5), min_distance_m=real(100.0)),
    "SiteConfig": lambda real: SiteConfig(*map(real, (30.0, 20.0, 18.0, 1.25, 3.0, 2530.0, 40.0, 3.0))),
    "ModelCalibration": lambda real: ModelCalibration(real(7.75), real(80.5), real(20.5), real(0.875), 45),
}


@pytest.mark.parametrize("real", REAL_TYPES, ids=lambda real: real.__name__)
@pytest.mark.parametrize("record", sorted(RECORDS))
def test_a_record_keeps_each_number_as_the_float_its_check_returns(record, real):
    build = RECORDS[record]
    built, expected = build(real), build(lambda x: float(real(x)))  # an int truncates: the float of what was given
    assert repr(built) == repr(expected)  # a repr shows an int, a Fraction or a NumPy scalar that was kept
    numeric = [f.name for f in dataclasses.fields(expected) if type(getattr(expected, f.name)) is float]
    assert numeric and all(type(getattr(built, name)) is float for name in numeric)


@pytest.mark.parametrize("real", REAL_TYPES, ids=lambda real: real.__name__)
def test_a_one_row_table_keeps_each_number_as_the_float_its_check_returns(real):
    def build(real):
        return DriveTestTable((real(450.0),), (real(-60.5),), {"a": (real(-61.25),)})

    built, expected = build(real), build(lambda x: float(real(x)))  # an int truncates: the float of what was given
    assert repr((built.samples, built.predictions)) == repr((expected.samples, expected.predictions))
    assert all(type(value) is float for value in (*built.samples[0], *built.predictions["a"]))


# a closed form or a bound model fed by a record field given as `real(x)`
RECORD_FED_CALLS = {
    "cost231_hata.environment": lambda real: cost231_hata(F, HB, HR, D, Environment("x", real(3.0))),
    "sui_path_loss.shadow_db": lambda real: sui_path_loss(F, HB, HR, D, SuiParams(shadow_db=real(8.25))),
    "ericsson_path_loss.a0": lambda real: ericsson_path_loss(F, HB, HR, D, EricssonParams(a0=real(36.25))),
    "sui_path_loss.terrain_a": lambda real: sui_path_loss(
        F, HB, HR, D, SuiParams(TerrainCategory("X", real(4.5), 0.0065, 17.1))
    ),
    "PathLossModel.c0": lambda real: PathLossModel("m", real(100.5), 35.0).path_loss_db(2 * D),
}


@pytest.mark.parametrize("real", REAL_TYPES, ids=lambda real: real.__name__)
@pytest.mark.parametrize("case", sorted(RECORD_FED_CALLS))
def test_a_record_field_of_any_real_type_gives_the_float_result(case, real):
    call = RECORD_FED_CALLS[case]
    result, expected = call(real), call(lambda x: float(real(x)))
    assert type(result) is float and repr(result) == repr(expected)


# every float from the least above zero to 1e308
MAGNITUDES = st.floats(min_value=5e-324, max_value=1e308)
# a record field: such a float, or one as an np.float64 or a Fraction, or a float32 from its own range as an np.float32,
# and either sign of one; a record keeps each as the float its check returns, so a model it feeds still returns floats
FLOAT32 = st.floats(min_value=float(np.finfo(np.float32).smallest_subnormal), max_value=float(np.finfo(np.float32).max), width=32)
FIELD = st.one_of(MAGNITUDES, MAGNITUDES.map(np.float64), MAGNITUDES.map(Fraction), FLOAT32.map(np.float32))
SIGNED_FIELD = st.tuples(FIELD, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
TERRAIN = st.one_of(
    st.sampled_from(list(TERRAINS.values())), st.builds(TerrainCategory, st.just("X"), SIGNED_FIELD, SIGNED_FIELD, SIGNED_FIELD)
)
XH_DENOMINATORS = [real(value) for value in (2.0, 2000.0) for real in (float, np.float32, np.float64, Fraction)]
SUI = st.builds(SuiParams, TERRAIN, FIELD, st.one_of(st.just(0.0), FIELD), st.sampled_from(XH_DENOMINATORS))
ERICSSON = st.builds(EricssonParams, SIGNED_FIELD, SIGNED_FIELD, SIGNED_FIELD, SIGNED_FIELD)
ENVIRONMENT = st.one_of(st.sampled_from(list(ENVIRONMENTS.values())), st.builds(Environment, st.just("X"), SIGNED_FIELD))
M = MAGNITUDES


def _bound_loss(model_id, freq_mhz, tx_height_m, rx_height_m, distance_m, environment, sui, ericsson, tx_gain_linear):
    model = make_model(
        model_id, freq_mhz, tx_height_m, rx_height_m,
        environment=environment, sui_params=sui, ericsson_params=ericsson, tx_gain_linear=tx_gain_linear,
    )
    return model.path_loss_db(distance_m)


# name -> (function, a strategy for each of its arguments)
MODEL_FUNCTIONS = {
    "fspl": (fspl, M, M, M),
    "cost231_hata": (cost231_hata, M, M, M, M, ENVIRONMENT),
    "extended_cost231": (extended_cost231, M, M, M, M, st.sampled_from(["medium_city", "large_city"])),
    "sui_gamma": (sui_gamma, M, TERRAIN),
    "sui_path_loss": (sui_path_loss, M, M, M, M, SUI),
    "ericsson_frequency_term": (ericsson_frequency_term, M),
    "ericsson_path_loss": (ericsson_path_loss, M, M, M, M, ERICSSON),
    "make_model": (
        _bound_loss, st.sampled_from(MODEL_IDS), M, M, M, M, ENVIRONMENT, SUI, ERICSSON, M
    ),
}


def _floats(result):
    if isinstance(result, ExtendedCost231Loss):
        return [*dataclasses.astuple(result), result.total_db]
    return [result]


@pytest.mark.parametrize("name", sorted(MODEL_FUNCTIONS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_model_function_returns_finite_floats_or_raises_domain_error(name, data):
    function, *strategies = MODEL_FUNCTIONS[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        result = function(*args)
    except DomainError:
        return
    floats = _floats(result)
    assert all(type(x) is float and math.isfinite(x) for x in floats), (args, floats)


@pytest.mark.parametrize(
    ("name", "call"),
    [
        ("extended_cost231", lambda: extended_cost231(5e-324, 5e-324, 1.0, 1.0)),  # log10 of an underflowed zero
        ("sui_gamma", lambda: sui_gamma(5e-324, TERRAINS["A"])),  # c/hb overflows
    ],
)
def test_a_helper_whose_arithmetic_leaves_the_float_range_raises_naming_itself(name, call):
    with pytest.raises(DomainError, match=f"^{name}: the parameters give a non-finite path-loss coefficient$"):
        call()
