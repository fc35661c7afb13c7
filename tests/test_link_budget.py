"""Unit tests for site configuration and the link-budget conversions."""

import json
import math
import random

import pytest

from propcal import (
    DataError,
    DomainError,
    REFERENCE_SITE,
    SiteConfig,
    path_loss_from_rss,
    predict_rss,
    site_from_json,
    site_to_json,
)


def make_site(**overrides):
    values = dict(
        tx_power_dbm=30.0,
        tx_gain_dbi=20.0,
        rx_gain_dbi=18.0,
        feeder_loss_db=1.2,
        polarization_loss_db=3.0,
        freq_mhz=2530.0,
        tx_height_m=40.0,
        rx_height_m=3.0,
    )
    values.update(overrides)
    return SiteConfig(**values)


def test_reference_budget_is_exact():
    # 30 + 20 + 18 - 1.2 - 3 has an exact float representation
    assert REFERENCE_SITE.budget_db == 63.8


def test_reference_site_fields():
    assert REFERENCE_SITE.tx_power_dbm == 30.0
    assert REFERENCE_SITE.freq_mhz == 2530.0
    assert REFERENCE_SITE.tx_height_m == 40.0
    assert REFERENCE_SITE.rx_height_m == 3.0


def test_rss_from_path_loss():
    assert predict_rss(REFERENCE_SITE, 136.8) == pytest.approx(-73.0, abs=1e-12)
    assert path_loss_from_rss(REFERENCE_SITE, -73.0) == pytest.approx(136.8, abs=1e-12)


def test_roundtrip_to_machine_precision():
    rng = random.Random(99)
    for _ in range(200):
        pl = rng.uniform(40.0, 180.0)
        assert path_loss_from_rss(REFERENCE_SITE, predict_rss(REFERENCE_SITE, pl)) == pytest.approx(pl, abs=1e-12)


def test_budget_rejects_nonfinite_conversion_inputs():
    with pytest.raises(DomainError):
        predict_rss(REFERENCE_SITE, math.nan)
    with pytest.raises(DomainError):
        path_loss_from_rss(REFERENCE_SITE, math.inf)


class TestValidation:
    def test_losses_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            make_site(feeder_loss_db=-0.5)
        with pytest.raises(DomainError):
            make_site(polarization_loss_db=-3.0)

    def test_physical_fields_must_be_positive(self):
        for field in ("freq_mhz", "tx_height_m", "rx_height_m"):
            with pytest.raises(DomainError):
                make_site(**{field: 0.0})

    def test_gains_must_be_finite(self):
        with pytest.raises(DomainError):
            make_site(tx_gain_dbi=math.inf)

    def test_a_budget_past_the_float_range_is_rejected_when_the_site_is_built(self):
        with pytest.raises(DomainError, match=r"^budget_db must be finite, got inf$"):
            make_site(tx_power_dbm=1e308, tx_gain_dbi=1e308)
        with pytest.raises(DomainError, match=r"^budget_db must be finite, got inf$"):
            site_from_json(json.dumps({**json.loads(site_to_json(REFERENCE_SITE)), "tx_power_dbm": 1e308, "tx_gain_dbi": 1e308}))


class TestJson:
    def test_roundtrip(self):
        site = make_site(tx_power_dbm=43.0, feeder_loss_db=2.5)
        assert site_from_json(site_to_json(site)) == site

    def test_parses_exact_field_names(self):
        payload = json.loads(site_to_json(REFERENCE_SITE))
        assert set(payload) == {
            "tx_power_dbm",
            "tx_gain_dbi",
            "rx_gain_dbi",
            "feeder_loss_db",
            "polarization_loss_db",
            "freq_mhz",
            "tx_height_m",
            "rx_height_m",
        }

    def test_unknown_field_rejected(self):
        payload = json.loads(site_to_json(REFERENCE_SITE))
        payload["cable_loss_db"] = 1.0
        with pytest.raises(DataError, match="unknown site fields"):
            site_from_json(json.dumps(payload))

    def test_missing_field_rejected(self):
        payload = json.loads(site_to_json(REFERENCE_SITE))
        del payload["rx_gain_dbi"]
        with pytest.raises(DataError, match="missing site fields"):
            site_from_json(json.dumps(payload))

    def test_non_numeric_field_rejected(self):
        payload = json.loads(site_to_json(REFERENCE_SITE))
        payload["tx_power_dbm"] = "30"
        with pytest.raises(DataError, match="must be a number"):
            site_from_json(json.dumps(payload))
        payload["tx_power_dbm"] = True
        with pytest.raises(DataError, match="must be a number"):
            site_from_json(json.dumps(payload))

    def test_invalid_json_rejected(self):
        with pytest.raises(DataError, match="invalid site JSON"):
            site_from_json("{not json")

    def test_integer_too_large_for_a_float_rejected(self):
        text = site_to_json(REFERENCE_SITE).replace("2530.0", "9" * 401)
        with pytest.raises(DataError, match="^site field freq_mhz must fit a float, got an integer too large for one$"):
            site_from_json(text)

    def test_integer_past_the_digit_limit_rejected(self):
        # Python 3.11+ refuses to parse it; older versions parse it and it overflows the float
        text = site_to_json(REFERENCE_SITE).replace("2530.0", "9" * 5001)
        with pytest.raises(DataError, match="^(invalid site JSON: |site field freq_mhz must fit a float)"):
            site_from_json(text)
        with pytest.raises(DataError, match="must be an object"):
            site_from_json("[1, 2]")
