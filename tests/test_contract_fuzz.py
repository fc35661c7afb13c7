"""The contract of every public callable: it returns a value or raises a `PropcalError`.

Each callable in `propcal.__all__` but the exception and warning classes
has one valid call below.  The fuzz replaces one part of it: one argument,
or one item of a column, one key or value of a mapping, or one value of
a mapping held in a mapping (a row of `published`, a column of
`predictions`).  Whatever takes that place, a `TypeError`, `KeyError`,
`AttributeError` or `OverflowError` escaping the call is a failure.
"""

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
    PUBLISHED_CALIBRATION,
    REFERENCE_SITE,
    TERRAIN_C,
    DataError,
    DomainError,
    DriveTestTable,
    Environment,
    PathLossModel,
    PropcalError,
    SuiParams,
    TerrainCategory,
    calibrate,
    emit_plot_series,
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
    "CalibrationReport": ((dict(_REPORT.models), "sui", "rule"), {"notes": ("note",)}),
    "DriveTestSample": ((100.0, -70.0), {}),
    "DriveTestTable": (_SMALL, {}),
    "Environment": (("metro", 3.0), {}),
    "EricssonParams": ((36.2, 30.2, -12.0, 0.1), {}),
    "ExtendedCost231Loss": ((1.0, 2.0, 3.0, 4.0), {}),
    "InferenceResult": (("sui", {"tx_height_m": HB}, 1.0, 30.0, 3), {}),
    "ModelCalibration": ((1.0, 2.0, 1.0, 1.4, 1.0, 0.9, 45), {}),
    "PathLossModel": (("m", 100.0, 30.0, 0.5), {"min_distance_m": 1.0, "range_notes": ("note",), "name": "m"}),
    "SiteConfig": (_SITE_FIELDS, {}),
    "SuiParams": ((TERRAIN_C, 100.0, 8.0, 2000.0), {}),
    "TerrainCategory": (("B", 4.0, 0.0065, 17.1), {}),
    "calibrate": ((_TABLE.measured_rss_dbm, dict(_TABLE.predictions)), {"acceptable_mse_db2": 10.0}),
    "correction_factor": ((_SMALL[1], _SMALL[2]["sui"]), {}),
    "cost231_hata": ((F, HB, HR, 1000.0, propcal.METROPOLITAN), {}),
    "cost231_tx_height_from_slope": ((35.0,), {}),
    "decade_slope": ((_DISTANCES, _LOSSES), {}),
    "emit_plot_series": ((_TABLE, REFERENCE_SITE), {"quantity": "pl", "columns": ["sui", "ericsson"]}),
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
    "mobile_station_correction": ((HR,), {}),
    "model_from_params": (("sui", {"freq_mhz": F, "tx_height_m": HB, "rx_height_m": HR, "terrain": "C", "sui_d0_m": 50.0}), {}),
    "mse": ((_SMALL[1], _SMALL[2]["sui"]), {}),
    "parse_drive_test_csv": ((_CSV,), {}),
    "path_loss_from_rss": ((REFERENCE_SITE, -80.0), {}),
    "pearson_r": ((_SMALL[1], _SMALL[2]["sui"]), {}),
    "predict_rss": ((REFERENCE_SITE, 120.0), {}),
    "published_divergence_notes": ((_REPORT, PUBLISHED_CALIBRATION), {}),
    "reference_dataset": ((), {}),
    "residuals": ((_SMALL[1], _SMALL[2]["sui"]), {}),
    "serialize_drive_test_csv": ((_TABLE,), {}),
    "site_from_json": ((_SITE_JSON,), {}),
    "site_to_json": ((REFERENCE_SITE,), {}),
    "sui_corrections": ((F, HR, SuiParams()), {}),
    "sui_gamma": ((HB, TERRAIN_C), {}),
    "sui_path_loss": ((F, HB, HR, 1000.0, SuiParams()), {}),
    "with_prediction": ((_TABLE, "x", _TABLE.measured_rss_dbm), {}),
}


def _is_contract_callable(value: object) -> bool:
    return callable(value) and not (isinstance(value, type) and issubclass(value, BaseException))


def test_every_public_callable_has_a_valid_call_that_returns():
    assert set(VALID_CALLS) == {name for name in propcal.__all__ if _is_contract_callable(getattr(propcal, name))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, (args, kwargs) in VALID_CALLS.items():
            getattr(propcal, name)(*args, **kwargs)


@st.composite
def _replaced(draw, value, depth):
    """`value` with one part replaced: the whole of it, or one item of a list or tuple, or one key or value of a
    mapping, the item or value itself replaced the same way to `depth` levels."""
    ways = ["whole"]
    if depth and isinstance(value, (list, tuple)) and value:
        ways.append("item")
    if depth and isinstance(value, Mapping) and value:
        ways += ["key", "value"]
    way = draw(st.sampled_from(ways))
    if way == "whole":
        return draw(st.sampled_from(REPLACEMENTS))
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
            getattr(propcal, name)(*args, **kwargs)
        except PropcalError:
            pass


# id -> (error class, the whole message, a call that once leaked a bare Python error)
SHAPE_LEAKS = {
    "emit_plot_series.columns=5": (
        DataError, "columns: not a column of names, got 5", lambda: emit_plot_series(_TABLE, REFERENCE_SITE, columns=5)
    ),
    "emit_plot_series.columns=[['sui']]": (
        DataError, "unknown prediction column ['sui']", lambda: emit_plot_series(_TABLE, REFERENCE_SITE, columns=[["sui"]])
    ),
    "published_divergence_notes.row=None": (
        DataError, "published['sui']: not a mapping, got None", lambda: published_divergence_notes(_REPORT, {"sui": None})
    ),
    "published_divergence_notes.row={}": (
        DataError, "published['sui']: missing 'cf_db'", lambda: published_divergence_notes(_REPORT, {"sui": {}})
    ),
    "published_divergence_notes.value='x'": (
        DataError,
        "published['sui']['mse_before_db2'] must be a real number within the float range, got 'x'",
        lambda: published_divergence_notes(_REPORT, {"sui": {**PUBLISHED_CALIBRATION["sui"], "mse_before_db2": "x"}}),
    ),
    "published_divergence_notes.value=10**400": (
        DataError,
        f"published['sui']['cf_after_db'] must be a real number within the float range, got {10**400!r}",
        lambda: published_divergence_notes(_REPORT, {"sui": {**PUBLISHED_CALIBRATION["sui"], "cf_after_db": 10**400}}),
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_LEAKS))
def test_an_argument_of_the_wrong_shape_is_named(case):
    error, message, call = SHAPE_LEAKS[case]
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_a_nan_published_value_still_passes_unreported():
    published = {"sui": {**PUBLISHED_CALIBRATION["sui"], "cf_db": math.nan}}
    assert published_divergence_notes(_REPORT, published) == ()


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
