"""The contract of every public callable: it returns a value or raises a `PropcalError`.

Each callable in `propcal.__all__` but the exception and warning classes
has one valid call below.  The fuzz replaces one part of it: one argument,
or one item of a column, one key or value of a mapping, or one value of
a mapping held in a mapping (a column of `predictions`), or one field
of a record passed in (the models of a report, the terrain of
`SuiParams`), the record built again with it.
Whatever takes that place, a `TypeError`, `KeyError`, `AttributeError` or
`OverflowError` escaping the build or the call is a failure.
"""

import dataclasses
import inspect
import math
import warnings
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import propcal
from propcal import (
    REFERENCE_SITE,
    TERRAIN_C,
    CalibrationReport,
    DataError,
    DomainError,
    DriveTestTable,
    Environment,
    ExtendedCost231Loss,
    InferenceResult,
    ModelCalibration,
    PathLossModel,
    PropcalError,
    SuiParams,
    TerrainCategory,
    calibrate,
    make_model,
    published_divergence_notes,
    reference_dataset,
)

F, HB, HR = 2530.0, 40.0, 3.0
# what takes the place of one part of a valid call
REPLACEMENTS = (
    None, "x", True, math.nan, math.inf, -math.inf, 10**400, Fraction(1, 3),
    Decimal("1.5"), Decimal("NaN"), b"x", 1j, [1.0], {"a": 1.0},
)
# a mapping key must be hashable
KEYS = tuple(value for value in REPLACEMENTS if not isinstance(value, (list, dict)))

_TABLE = reference_dataset()
_REPORT = calibrate(_TABLE.measured_rss_dbm, _TABLE.predictions)
_DISTANCES = [400.0, 800.0, 1600.0, 3200.0]
_LOSSES = [110.0, 120.5, 131.0, 141.0]
_SMALL = ([400.0, 800.0, 1600.0], [-60.0, -70.0, -80.0], {"sui": [-55.0, -66.0, -77.0]})
_SITE_FIELDS = (30.0, 20.0, 18.0, 1.2, 3.0, F, HB, HR)
_SITE_JSON = propcal.site_to_json(REFERENCE_SITE)
_CSV = propcal.serialize_drive_test_csv(DriveTestTable(*_SMALL))

# name -> (positional arguments, keyword arguments) of one call that returns a value
VALID_CALLS = {
    "CalibrationReport": ((dict(_REPORT.models),), {"notes": ("note",)}),
    "DriveTestTable": (_SMALL, {}),
    "Environment": (("metro", 3.0), {}),
    "EricssonParams": ((36.2, 30.2, -12.0, 0.1), {}),
    "ExtendedCost231Loss": ((1.0, 2.0, 3.0, 4.0), {}),
    "InferenceResult": (("sui", {"tx_height_m": HB}, 1.0, 30.0, 3), {}),
    "ModelCalibration": ((1.0, 2.0, 1.0, 0.9, 45), {}),
    "PathLossModel": (("m", 100.0, 30.0, 0.5), {"min_distance_m": 1.0, "range_notes": ("note",), "name": "m"}),
    "SiteConfig": (_SITE_FIELDS, {}),
    "SuiParams": ((TERRAIN_C, 100.0, 8.0, 2000.0), {}),
    "TerrainCategory": (("B", 4.0, 0.0065, 17.1), {}),
    "calibrate": ((_TABLE.measured_rss_dbm, dict(_TABLE.predictions)), {"acceptable_mse_db2": 10.0}),
    "correction_factor": ((_SMALL[1], _SMALL[2]["sui"]), {}),
    "cost231_hata": ((F, HB, HR, 1000.0, propcal.METROPOLITAN), {}),
    "cost231_tx_height_from_slope": ((35.0,), {}),
    "decade_slope": ((_DISTANCES, _LOSSES), {}),
    "emit_plot_series": ((_TABLE, REFERENCE_SITE), {"quantity": "pl"}),
    "ericsson_frequency_term": ((F,), {}),
    "ericsson_path_loss": ((F, HB, HR, 1000.0, propcal.ERICSSON_URBAN), {}),
    "extended_cost231": ((F, HB, HR, 1000.0, "large_city"), {}),
    "fspl": ((F, 1.0, 2.0), {}),
    "infer_site_parameters": (
        (_DISTANCES, _LOSSES, "cost231_hata", {"tx_height_m": [30.0, 40.0], "environment": ["metropolitan"]}),
        {"base": {"freq_mhz": F, "rx_height_m": HR}},
    ),
    "make_model": (
        ("sui", F, HB, HR),
        {
            "environment": propcal.METROPOLITAN, "sui_params": SuiParams(), "ericsson_params": propcal.ERICSSON_URBAN,
            "tx_gain_linear": 1.0, "rx_gain_variant": "medium_city",
        },
    ),
    "model_from_params": (("sui", {"freq_mhz": F, "tx_height_m": HB, "rx_height_m": HR, "terrain": "C", "sui_d0_m": 50.0}), {}),
    "mse": ((_SMALL[1], _SMALL[2]["sui"]), {}),
    "parse_drive_test_csv": ((_CSV,), {}),
    "pearson_r": ((_SMALL[1], _SMALL[2]["sui"]), {}),
    "predict_rss": ((REFERENCE_SITE, 120.0), {}),
    "published_divergence_notes": ((_REPORT,), {}),
    "reference_dataset": ((), {}),
    "serialize_drive_test_csv": ((_TABLE,), {}),
    "site_from_json": ((_SITE_JSON,), {}),
    "site_to_json": ((REFERENCE_SITE,), {}),
    "sui_gamma": ((HB, TERRAIN_C), {}),
    "sui_path_loss": ((F, HB, HR, 1000.0, SuiParams()), {}),
    "with_prediction": ((_TABLE, "x", _TABLE.measured_rss_dbm), {}),
}


def _is_contract_callable(value: object) -> bool:
    return callable(value) and not (isinstance(value, type) and issubclass(value, BaseException))


# name -> the parameter names of each public callable but the exception and warning classes, as
# `test_the_flag_surface_is_pinned` pins the CLI's flags: a parameter added or removed shows here
LIBRARY_SURFACE = {
    "CalibrationReport": ["models", "notes"],
    "DriveTestTable": ["distances_m", "measured_rss_dbm", "predictions"],
    "Environment": ["name", "clutter_db"],
    "EricssonParams": ["a0", "a1", "a2", "a3"],
    "ExtendedCost231Loss": ["free_space_db", "basic_median_db", "tx_height_gain_db", "rx_height_gain_db"],
    "InferenceResult": ["model_id", "params", "fit_mse_db2", "decade_slope_db", "evaluated"],
    "ModelCalibration": ["cf_db", "mse_before_db2", "mse_after_db2", "pearson_r", "n"],
    "PathLossModel": ["model_id", "c0", "c1", "c2", "min_distance_m", "range_notes", "name"],
    "SiteConfig": [
        "tx_power_dbm", "tx_gain_dbi", "rx_gain_dbi", "feeder_loss_db", "polarization_loss_db", "freq_mhz", "tx_height_m",
        "rx_height_m",
    ],
    "SuiParams": ["terrain", "d0_m", "shadow_db", "xh_denominator_m"],
    "TerrainCategory": ["name", "a", "b", "c"],
    "calibrate": ["measured", "predictions", "acceptable_mse_db2"],
    "correction_factor": ["measured", "predicted"],
    "cost231_hata": ["freq_mhz", "tx_height_m", "rx_height_m", "distance_m", "environment"],
    "cost231_tx_height_from_slope": ["slope_db_per_decade"],
    "decade_slope": ["distances_m", "loss_db"],
    "emit_plot_series": ["table", "site", "quantity"],
    "ericsson_frequency_term": ["freq_mhz"],
    "ericsson_path_loss": ["freq_mhz", "tx_height_m", "rx_height_m", "distance_m", "params"],
    "extended_cost231": ["freq_mhz", "tx_height_m", "rx_height_m", "distance_m", "rx_gain_variant"],
    "fspl": ["freq_mhz", "distance_km", "tx_gain_linear"],
    "infer_site_parameters": ["distances_m", "path_loss_db", "model_id", "grid", "base"],
    "make_model": [
        "model_id", "freq_mhz", "tx_height_m", "rx_height_m", "environment", "sui_params", "ericsson_params",
        "tx_gain_linear", "rx_gain_variant",
    ],
    "model_from_params": ["model_id", "params"],
    "mse": ["measured", "predicted"],
    "parse_drive_test_csv": ["text"],
    "pearson_r": ["measured", "predicted"],
    "predict_rss": ["site", "path_loss_db"],
    "published_divergence_notes": ["report"],
    "reference_dataset": [],
    "serialize_drive_test_csv": ["table"],
    "site_from_json": ["text"],
    "site_to_json": ["site"],
    "sui_gamma": ["tx_height_m", "terrain"],
    "sui_path_loss": ["freq_mhz", "tx_height_m", "rx_height_m", "distance_m", "params"],
    "with_prediction": ["table", "name", "values"],
}


def test_the_library_surface_is_pinned():
    public = [name for name in propcal.__all__ if _is_contract_callable(getattr(propcal, name))]
    assert {name: list(inspect.signature(getattr(propcal, name)).parameters) for name in public} == LIBRARY_SURFACE


def test_every_public_callable_has_a_valid_call_that_returns():
    assert set(VALID_CALLS) == {name for name in propcal.__all__ if _is_contract_callable(getattr(propcal, name))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, (args, kwargs) in VALID_CALLS.items():
            getattr(propcal, name)(*args, **kwargs)


@dataclasses.dataclass(frozen=True)
class _Rebuilt:
    """A record to build again, inside the call under test, with one field replaced."""

    record: object
    field: str
    value: object


def _built(value):
    """`value` with each `_Rebuilt` in it, at any depth, built through the record's own constructor."""
    if isinstance(value, _Rebuilt):
        return dataclasses.replace(_built(value.record), **{value.field: _built(value.value)})
    if isinstance(value, (list, tuple)):
        return type(value)(map(_built, value))
    if isinstance(value, dict):
        return {key: _built(item) for key, item in value.items()}
    return value


@st.composite
def _replaced(draw, value, depth):
    """`value` with one part replaced: the whole of it, or one item of a list or tuple, or one key or value of a
    mapping, or one field of a record that its constructor takes, the item, value or field itself replaced the same
    way to `depth` levels."""
    ways = ["whole"]
    if depth and isinstance(value, (list, tuple)) and value:
        ways.append("item")
    if depth and isinstance(value, Mapping) and value:
        ways += ["key", "value"]
    if depth and dataclasses.is_dataclass(value) and not isinstance(value, type):
        ways.append("field")
    way = draw(st.sampled_from(ways))
    if way == "whole":
        return draw(st.sampled_from(REPLACEMENTS))
    if way == "field":
        field = draw(st.sampled_from([field.name for field in dataclasses.fields(value) if field.init]))
        return _Rebuilt(value, field, draw(_replaced(getattr(value, field), depth - 1)))
    if way == "item":
        items = list(value)
        i = draw(st.integers(0, len(items) - 1))
        items[i] = draw(_replaced(items[i], depth - 1))
        return type(value)(items)
    entries = dict(value)
    key = draw(st.sampled_from(sorted(entries)))
    if way == "key":
        entries[draw(st.sampled_from(KEYS))] = entries.pop(key)
    else:
        entries[key] = draw(_replaced(entries[key], depth - 1))
    return entries


@pytest.mark.parametrize("name", sorted(name for name, (args, kwargs) in VALID_CALLS.items() if args or kwargs))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_public_callable_returns_or_raises_a_propcal_error_whatever_one_part_of_its_call_is(name, data):
    args, kwargs = VALID_CALLS[name]
    args, kwargs = list(args), dict(kwargs)
    slot = data.draw(st.sampled_from([*range(len(args)), *kwargs]), label="argument")
    if isinstance(slot, int):
        args[slot] = data.draw(_replaced(args[slot], 2), label="value")
    else:
        kwargs[slot] = data.draw(_replaced(kwargs[slot], 2), label="value")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            getattr(propcal, name)(*_built(args), **_built(kwargs))
        except PropcalError:
            pass


def _sui_loss(terrain):
    return make_model("sui", F, HB, HR, sui_params=SuiParams(terrain=terrain))


# id -> (the whole message, a build of the record with one bad field, a use of the record)
BAD_RECORDS = {
    "PathLossModel.min_distance_m='x'": (
        "min_distance_m must be >= 0, got 'x'",
        lambda: PathLossModel("m", 100.0, 30.0, min_distance_m="x"),
        lambda model: model.path_loss_series([500.0]),
    ),
    "PathLossModel.min_distance_m=nan": (
        "min_distance_m must be >= 0, got nan",
        lambda: PathLossModel("sui", 100.0, 30.0, min_distance_m=math.nan),
        lambda model: model.path_loss_series([50.0]),
    ),
    "PathLossModel.range_notes=5": (
        "range_notes must be a tuple of str, got 5",
        lambda: PathLossModel("m", 100.0, 30.0, range_notes=5),
        lambda model: model.path_loss_series([500.0]),
    ),
    "Environment.clutter_db=None": (
        "clutter_db must be finite, got None",
        lambda: Environment("x", None),
        lambda environment: make_model("cost231_hata", F, HB, HR, environment=environment),
    ),
    "TerrainCategory.a='a'": (
        "a must be finite, got 'a'",
        lambda: TerrainCategory("B", "a", 0.0, 1.0),
        _sui_loss,
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_a_record_with_a_bad_field_raises_a_domain_error_naming_it_before_any_use(case):
    message, build, use = BAD_RECORDS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DomainError) as excinfo:
            use(build())
    assert str(excinfo.value) == message


# id -> (error class, the whole message, a build of a record with one bad field and a use of it, which once
# leaked a bare Python error or accepted the field)
RECORD_FIELD_LEAKS = {
    "CalibrationReport.models=None": (
        DataError, "models: not a mapping, got None",
        lambda: published_divergence_notes(CalibrationReport(None)),
    ),
    "CalibrationReport.models={'a': 5}.to_json": (
        DataError, "models['a'] must be a ModelCalibration, got int", lambda: CalibrationReport({"a": 5}).to_json()
    ),
    "CalibrationReport.models={'a': 5}.to_csv": (
        DataError, "models['a'] must be a ModelCalibration, got int", lambda: CalibrationReport({"a": 5}).to_csv()
    ),
    "CalibrationReport.notes=5": (
        DataError, "notes must be a tuple of str, got 5", lambda: CalibrationReport({}, notes=5).to_json()
    ),
    "ModelCalibration.n=4.5": (
        DomainError, "n must be a positive int, got 4.5",
        lambda: CalibrationReport({"a": ModelCalibration(Fraction(1, 3), 1.0, 1.0, None, 4.5)}).to_json(),
    ),
    "ExtendedCost231Loss.free_space_db=None": (
        DomainError, "free_space_db must be finite, got None", lambda: ExtendedCost231Loss(None, 1.0, 2.0, 3.0).total_db
    ),
    "DriveTestTable.distances_m=('x',)": (
        DataError, "row 1: distance_m must be positive, got 'x'", lambda: DriveTestTable(("x",), (None,))
    ),
    "DriveTestTable.measured_rss_dbm=(None,)": (
        DataError, "row 1, column rssi_dbm: RSS None outside [-150, 40] dBm", lambda: DriveTestTable((100.0,), (None,))
    ),
    "InferenceResult.model_id=5": (
        DomainError, "model_id must be a str, got int", lambda: InferenceResult(5, {}, 1.0, 30.0, 3)
    ),
    "InferenceResult.params=None": (
        DomainError, "params: not a mapping, got None", lambda: InferenceResult("sui", None, 1.0, 30.0, 3)
    ),
    "InferenceResult.fit_mse_db2=-1.0": (
        DomainError, "fit_mse_db2 must be >= 0, got -1.0", lambda: InferenceResult("sui", {}, -1.0, 30.0, 3)
    ),
    "InferenceResult.decade_slope_db=None": (
        DomainError, "decade_slope_db must be finite, got None", lambda: InferenceResult("sui", {}, 1.0, None, 3)
    ),
    "InferenceResult.evaluated=-1": (
        DomainError, "evaluated must be a positive int, got -1", lambda: InferenceResult("sui", {}, 1.0, 30.0, -1)
    ),
}


@pytest.mark.parametrize("case", sorted(RECORD_FIELD_LEAKS))
def test_a_record_checks_its_fields_when_it_is_built(case):
    error, message, call = RECORD_FIELD_LEAKS[case]
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_a_record_holds_its_numbers_as_the_floats_that_json_writes():
    calib = ModelCalibration(Fraction(1, 4), 2, 1.0, None, 4)
    assert (calib.cf_db, calib.mse_before_db2) == (0.25, 2.0)
    assert type(calib.cf_db) is type(calib.mse_before_db2) is float
    assert '"cf_db": 0.25' in CalibrationReport({"a": calib}).to_json()
    site = dataclasses.replace(REFERENCE_SITE, tx_power_dbm=Fraction(61, 2), freq_mhz=2530)
    assert (type(site.tx_power_dbm), type(site.freq_mhz)) == (float, float)
    assert propcal.site_from_json(propcal.site_to_json(site)) == site
