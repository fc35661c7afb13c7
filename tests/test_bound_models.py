"""Bound models (log-distance coefficients) against the public closed forms."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propcal import (
    ENVIRONMENTS,
    TERRAINS,
    DomainError,
    EricssonParams,
    ModelRangeWarning,
    SuiParams,
    cost231_hata,
    ericsson_path_loss,
    extended_cost231,
    fspl,
    make_model,
    sui_gamma,
    sui_path_loss,
)

TOL_DB = 1e-9

coefficient = st.floats(-200.0, 200.0, allow_nan=False)

sites = st.fixed_dictionaries(
    {
        "freq_mhz": st.floats(50.0, 20_000.0),
        "tx_height_m": st.floats(1.0, 500.0),
        "rx_height_m": st.floats(0.5, 20.0),
        "environment": st.sampled_from(sorted(ENVIRONMENTS.values(), key=lambda e: e.name)),
        "terrain": st.sampled_from(sorted(TERRAINS.values(), key=lambda t: t.name)),
        "d0_m": st.floats(1.0, 1_000.0),
        "shadow_db": st.floats(0.0, 20.0),
        "xh_denominator_m": st.sampled_from((2.0, 2000.0)),
        "rx_gain_variant": st.sampled_from(("medium_city", "large_city")),
        "ericsson": st.builds(EricssonParams, coefficient, coefficient, coefficient, coefficient),
        "tx_gain_linear": st.floats(0.01, 100.0),
    }
)
distance_columns = st.lists(st.floats(1.0, 200_000.0), min_size=1, max_size=30)


def _bound_and_reference(model_id, site):
    """The bound model and the closed form it must reproduce, per distance in m."""
    f, hb, hr = site["freq_mhz"], site["tx_height_m"], site["rx_height_m"]
    sui_p = SuiParams(site["terrain"], site["d0_m"], site["shadow_db"], site["xh_denominator_m"])
    model = make_model(
        model_id,
        f,
        hb,
        hr,
        environment=site["environment"],
        sui_params=sui_p,
        ericsson_params=site["ericsson"],
        tx_gain_linear=site["tx_gain_linear"],
        rx_gain_variant=site["rx_gain_variant"],
    )
    reference = {
        "fspl": lambda d: fspl(f, d / 1000.0, site["tx_gain_linear"]),
        "cost231_hata": lambda d: cost231_hata(f, hb, hr, d, site["environment"]),
        "extended_cost231": lambda d: extended_cost231(f, hb, hr, d, site["rx_gain_variant"]).total_db,
        "sui": lambda d: sui_path_loss(f, hb, hr, d, sui_p),
        "ericsson": lambda d: ericsson_path_loss(f, hb, hr, d, site["ericsson"]),
    }[model_id]
    return model, reference


@settings(max_examples=300, deadline=None)
@given(
    model_id=st.sampled_from(("fspl", "cost231_hata", "extended_cost231", "sui", "ericsson")),
    site=sites,
    distances=distance_columns,
)
def test_bound_model_matches_the_closed_forms(model_id, site, distances):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelRangeWarning)
        model, reference = _bound_and_reference(model_id, site)
        distances = [d for d in distances if d > model.min_distance_m]
        expected = [reference(d) for d in distances]
        series = model.path_loss_series(distances)
        points = [model.path_loss_db(d) for d in distances]
    assert len(series) == len(expected)
    for d, want, got_series, got_point in zip(distances, expected, series, points):
        assert math.isclose(got_series, want, rel_tol=0.0, abs_tol=TOL_DB), (d, got_series, want)
        assert math.isclose(got_point, want, rel_tol=0.0, abs_tol=TOL_DB), (d, got_point, want)


@settings(max_examples=100, deadline=None)
@given(site=sites)
def test_coefficients_follow_the_published_terms(site):
    hb = site["tx_height_m"]
    extended = make_model("extended_cost231", site["freq_mhz"], hb, site["rx_height_m"])
    assert extended.c1 == pytest.approx(29.83, abs=1e-12)
    assert extended.c2 == pytest.approx(-5.8 * math.log10(hb / 200.0), abs=1e-12)
    sui_p = SuiParams(terrain=site["terrain"], d0_m=site["d0_m"])
    sui = make_model("sui", site["freq_mhz"], hb, site["rx_height_m"], sui_params=sui_p)
    assert sui.c1 == pytest.approx(10.0 * sui_gamma(hb, site["terrain"]), abs=1e-12)
    assert (sui.c2, sui.min_distance_m) == (0.0, site["d0_m"])


def test_sui_at_or_below_d0_raises_on_both_paths():
    model = make_model("sui", 2530.0, 40.0, 3.0, sui_params=SuiParams(d0_m=150.0))
    for d in (150.0, 149.9, 20.0):
        with pytest.raises(DomainError, match="d0"):
            model.path_loss_db(d)
        with pytest.raises(DomainError, match="d0"):
            model.path_loss_series([900.0, d, 2000.0])
    # The first offending distance in column order is the one named.
    with pytest.raises(DomainError, match="got 120 m"):
        model.path_loss_series([900.0, 120.0, 20.0])


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model_id", ["fspl", "ericsson", "sui"])
def test_non_positive_or_non_finite_distances_raise(model_id, bad):
    model = make_model(model_id, 2530.0, 40.0, 3.0)
    with pytest.raises(DomainError, match="distance_m must be a positive finite number"):
        model.path_loss_db(bad)
    with pytest.raises(DomainError, match="distance_m must be a positive finite number"):
        model.path_loss_series([1000.0, bad])


def test_empty_column_gives_no_losses():
    assert make_model("sui", 2530.0, 40.0, 3.0).path_loss_series([]) == []


@pytest.mark.parametrize(
    "freq_mhz, tx_height_m, rx_height_m, violated",
    [
        (1800.0, 40.0, 3.0, 0),
        (2530.0, 40.0, 3.0, 1),
        (2530.0, 5.0, 3.0, 2),
        (2530.0, 5.0, 0.5, 3),
    ],
)
def test_one_range_warning_per_point_per_violated_range(freq_mhz, tx_height_m, rx_height_m, violated):
    model = make_model("cost231_hata", freq_mhz, tx_height_m, rx_height_m)
    corrected = model.corrected(3.0)
    distances = [300.0, 700.0, 1500.0, 4200.0, 9000.0]
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        model.path_loss_series(distances)
        corrected.path_loss_db(800.0)
    ranges = [w for w in log if issubclass(w.category, ModelRangeWarning)]
    assert len(ranges) == (len(distances) + 1) * violated
    assert all(w.filename.endswith("models.py") for w in ranges)


def test_binding_alone_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_model("cost231_hata", 2530.0, 5.0, 0.5)


def test_correction_shifts_the_intercept_only():
    model = make_model("extended_cost231", 2530.0, 40.0, 3.0)
    corrected = model.corrected(7.5).corrected(-2.5)
    assert corrected.c0 == pytest.approx(model.c0 - 5.0, abs=1e-12)
    assert (corrected.c1, corrected.c2) == (model.c1, model.c2)
    assert corrected.name == "extended_cost231_corrected_corrected"
    with pytest.raises(DomainError, match="cf_db"):
        model.corrected(math.nan)


def test_bind_time_validation_keeps_its_messages():
    with pytest.raises(DomainError, match="freq_mhz must be a positive finite number"):
        make_model("ericsson", 0.0, 40.0, 3.0)
    with pytest.raises(DomainError, match="tx_height_m must be a positive finite number"):
        make_model("sui", 2530.0, -1.0, 3.0)
    with pytest.raises(DomainError, match="tx_gain_linear must be a positive finite number"):
        make_model("fspl", 2530.0, tx_gain_linear=0.0)
    with pytest.raises(DomainError, match="unknown rx_gain_variant"):
        make_model("extended_cost231", 2530.0, 40.0, 3.0, rx_gain_variant="small_town")


@pytest.mark.parametrize(
    ("model_id", "kwargs"),
    [
        ("sui", {"freq_mhz": 1e308, "tx_height_m": 40.0, "rx_height_m": 3.0}),  # wavelength underflows to 0
        ("sui", {"freq_mhz": 2530.0, "tx_height_m": 1e-320, "rx_height_m": 3.0}),  # gamma overflows
        ("extended_cost231", {"freq_mhz": 5e-324, "tx_height_m": 40.0, "rx_height_m": 3.0}),  # log10(0)
    ],
)
def test_non_finite_coefficients_raise_at_bind_time(model_id, kwargs):
    with pytest.raises(DomainError, match=f"^{model_id}: the parameters give a non-finite path-loss coefficient$"):
        make_model(model_id, **kwargs)


def test_a_bound_model_is_a_frozen_value():
    model = make_model("ericsson", 2530.0, 40.0, 3.0)
    assert model == make_model("ericsson", 2530.0, 40.0, 3.0)
    assert model.name == "ericsson"
    with pytest.raises(AttributeError):
        model.c0 = 0.0
    # the second correction pushes c0 past the largest float
    with pytest.raises(DomainError, match="^ericsson: the parameters give a non-finite"):
        model.corrected(1.7e308).corrected(1.7e308)
