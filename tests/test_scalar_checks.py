"""Every public scalar parameter follows one rule.

A value passes if it is a real number, not a bool, finite and in range.
Anything else raises `DomainError` naming the parameter and quoting the
value: the check lives in `propcal.errors`, and these cases pin that each
public entry point routes its numbers through it.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

from propcal import (
    REFERENCE_SITE,
    TERRAIN_B,
    DomainError,
    EricssonParams,
    SuiParams,
    cost231_hata,
    cost231_tx_height_from_slope,
    ericsson_frequency_term,
    ericsson_path_loss,
    extended_cost231,
    fspl,
    make_model,
    mobile_station_correction,
    model_from_params,
    path_loss_from_rss,
    predict_rss,
    sui_corrections,
    sui_gamma,
    sui_path_loss,
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
    "mobile_station_correction.rx_height_m": ("rx_height_m", mobile_station_correction),
    "sui_gamma.tx_height_m": ("tx_height_m", lambda v: sui_gamma(v, TERRAIN_B)),
    "sui_corrections.freq_mhz": ("freq_mhz", lambda v: sui_corrections(v, HR, SuiParams())),
    "sui_corrections.rx_height_m": ("rx_height_m", lambda v: sui_corrections(F, v, SuiParams())),
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
    "path_loss_from_rss.rss_dbm": ("rss_dbm", lambda v: path_loss_from_rss(REFERENCE_SITE, v)),
    "cost231_tx_height_from_slope.slope_db_per_decade": ("slope_db_per_decade", cost231_tx_height_from_slope),
    "PathLossModel.corrected.cf_db": ("cf_db", lambda v: make_model("ericsson", F, HB, HR).corrected(v)),
}

# `model_from_params` reads a None value as an absent key, so None is an
# error there only for the parameters that have no default
_NONE_MEANS_ABSENT = {
    f"model_from_params.{key}"
    for key in ("tx_gain_linear", "sui_d0_m", "sui_shadow_db", "sui_xh_denominator_m")
} | {f"model_from_params.ericsson_a{i}" for i in range(4)}


@pytest.mark.parametrize(
    ("case", "value"),
    [(case, value) for case in PARAMETERS for value in BAD_VALUES if not (value is None and case in _NONE_MEANS_ABSENT)],
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
