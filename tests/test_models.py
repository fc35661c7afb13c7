"""Unit tests for the path-loss model functions and the model wrapper."""

import math
import random
import warnings

import pytest

import propcal
from propcal import (
    DomainError,
    EricssonParams,
    MEDIUM_SUBURBAN,
    METROPOLITAN,
    MODEL_IDS,
    ModelRangeWarning,
    SuiParams,
    TERRAIN_A,
    TERRAIN_B,
    TERRAIN_C,
    cost231_hata,
    ericsson_frequency_term,
    ericsson_path_loss,
    extended_cost231,
    fspl,
    make_model,
    model_from_params,
    sui_gamma,
    sui_path_loss,
)

import closed_forms

TWENTY_LOG_2 = 20.0 * math.log10(2.0)


class TestFspl:
    def test_identity_case(self):
        # 1 MHz at 1 km with unit gain leaves only the constant
        assert fspl(1.0, 1.0, 1.0) == pytest.approx(32.45, abs=1e-12)

    def test_reference_band_value(self):
        assert fspl(2530.0, 1.0) == pytest.approx(100.51241042351636, abs=1e-9)

    def test_doubling_distance_adds_six_db(self):
        rng = random.Random(7)
        for _ in range(50):
            f = rng.uniform(100.0, 6000.0)
            d = rng.uniform(0.05, 30.0)
            step = fspl(f, 2.0 * d) - fspl(f, d)
            assert step == pytest.approx(TWENTY_LOG_2, abs=1e-9)
            assert step == pytest.approx(6.0206, abs=1e-4)

    def test_doubling_frequency_adds_six_db(self):
        step = fspl(2400.0, 3.0) - fspl(1200.0, 3.0)
        assert step == pytest.approx(TWENTY_LOG_2, abs=1e-9)

    def test_tx_gain_reduces_loss(self):
        # A gain of 2x takes 3.0103 dB off the loss
        delta = fspl(900.0, 1.0, 1.0) - fspl(900.0, 1.0, 2.0)
        assert delta == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)

    def test_agrees_with_physical_form(self):
        # 32.45 is the rounded 20*log10(4*pi*1e9/c); the forms agree to
        # within that rounding (~0.0022 dB) at any f and d.
        c = 299_792_458.0
        for f_mhz, d_km in ((2530.0, 1.0), (900.0, 5.0), (28000.0, 0.2)):
            physical = 20.0 * math.log10(4.0 * math.pi * (d_km * 1e3) * (f_mhz * 1e6) / c)
            assert fspl(f_mhz, d_km) == pytest.approx(physical, abs=0.005)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_inputs(self, bad):
        with pytest.raises(DomainError):
            fspl(bad, 1.0)
        with pytest.raises(DomainError):
            fspl(900.0, bad)

    def test_a_distance_too_large_for_meters_is_named_in_km(self):
        with pytest.raises(DomainError, match=r"^distance_km 1e\+306 is too large to convert to meters$"):
            fspl(2530.0, 1e306)


class TestCost231Hata:
    def test_metropolitan_spot_value(self):
        pl = cost231_hata(2000.0, 50.0, 1.5, 5000.0, METROPOLITAN)
        assert pl == pytest.approx(161.3315082177282, abs=1e-9)

    def test_clutter_constant_is_three_db(self):
        medium = cost231_hata(1800.0, 30.0, 1.5, 2000.0, MEDIUM_SUBURBAN)
        metro = cost231_hata(1800.0, 30.0, 1.5, 2000.0, METROPOLITAN)
        assert metro - medium == pytest.approx(3.0, abs=1e-12)

    def test_mobile_station_correction_values(self):
        # the loss falls by a(hr) = 3.2*(log10(11.75*hr))^2 - 4.97; at 1 km, 1000 MHz and a 10 m mast it is 134.18 - a(hr)
        a = {1.5: -0.0009190469544941848, 3.0: 2.689844309461207, 10.0: 8.742181661407955}
        assert 134.18 - cost231_hata(1000.0, 10.0, 1.5, 1000.0) == pytest.approx(a[1.5], abs=1e-12)
        for hr in (3.0, 10.0):
            difference = cost231_hata(1800.0, 30.0, 1.5, 2000.0) - cost231_hata(1800.0, 30.0, hr, 2000.0)
            assert difference == pytest.approx(a[hr] - a[1.5], abs=1e-12)

    @pytest.mark.parametrize("hr", [3.0, 10.0])
    @pytest.mark.parametrize("closed_form", [cost231_hata, ericsson_path_loss], ids=lambda f: f.__name__)
    def test_both_binds_with_the_receiver_term_lower_the_loss_by_a_of_hr(self, closed_form, hr):
        # COST-231 Hata and Ericsson share 3.2*(log10(11.75*hr))^2, so each differs between heights as a(hr) does
        a = {1.5: -0.0009190469544941848, 3.0: 2.689844309461207, 10.0: 8.742181661407955}
        difference = closed_form(1800.0, 30.0, 1.5, 2000.0) - closed_form(1800.0, 30.0, hr, 2000.0)
        assert difference == pytest.approx(a[hr] - a[1.5], abs=1e-12)

    def test_decade_slope_identity(self):
        # Per-decade growth is 44.9 - 6.55*log10(hb) by construction
        for hb in (10.0, 40.0, 120.0):
            lo = cost231_hata(1800.0, hb, 1.5, 500.0)
            hi = cost231_hata(1800.0, hb, 1.5, 5000.0)
            assert hi - lo == pytest.approx(44.9 - 6.55 * math.log10(hb), abs=1e-9)

    def test_in_range_inputs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cost231_hata(1800.0, 30.0, 1.5, 2000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"freq_mhz": 2530.0},
            {"tx_height_m": 5.0},
            {"rx_height_m": 0.5},
            {"tx_height_m": 250.0},
        ],
    )
    def test_out_of_range_inputs_warn(self, kwargs):
        params = {"freq_mhz": 1800.0, "tx_height_m": 30.0, "rx_height_m": 1.5}
        params.update(kwargs)
        with pytest.warns(ModelRangeWarning):
            cost231_hata(params["freq_mhz"], params["tx_height_m"], params["rx_height_m"], 1000.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DomainError):
            cost231_hata(1800.0, 30.0, 1.5, 0.0)


class TestExtendedCost231:
    def test_component_breakdown(self):
        loss = extended_cost231(2530.0, 40.0, 3.0, 1000.0)
        assert loss.free_space_db == pytest.approx(100.46241042351636, abs=1e-9)
        assert loss.basic_median_db == pytest.approx(25.14579223207159, abs=1e-9)
        assert loss.tx_height_gain_db == pytest.approx(-9.75622332052215, abs=1e-9)
        assert loss.rx_height_gain_db == pytest.approx(-5.188185650074449, abs=1e-9)
        assert loss.total_db == pytest.approx(140.55261162618453, abs=1e-9)

    def test_total_is_component_combination(self):
        loss = extended_cost231(3500.0, 25.0, 2.0, 800.0)
        expected = (
            loss.free_space_db
            + loss.basic_median_db
            - loss.tx_height_gain_db
            - loss.rx_height_gain_db
        )
        assert loss.total_db == pytest.approx(expected, abs=1e-12)

    def test_free_space_component_matches_fspl(self):
        # 92.4 + 20log(d) + 20log(f_GHz) is fspl's 92.45 form, 0.05 lower
        loss = extended_cost231(2530.0, 40.0, 3.0, 1000.0)
        assert fspl(2530.0, 1.0) - loss.free_space_db == pytest.approx(0.05, abs=1e-9)

    def test_large_city_receiver_gain(self):
        loss = extended_cost231(2530.0, 40.0, 3.0, 1000.0, rx_gain_variant="large_city")
        assert loss.rx_height_gain_db == pytest.approx(0.759 * 3.0 - 1.862, abs=1e-12)
        # Only the receiver-gain component moves
        medium = extended_cost231(2530.0, 40.0, 3.0, 1000.0)
        assert loss.free_space_db == medium.free_space_db
        assert loss.basic_median_db == medium.basic_median_db
        assert loss.tx_height_gain_db == medium.tx_height_gain_db

    def test_tx_gain_vanishes_at_200m(self):
        loss = extended_cost231(2530.0, 200.0, 3.0, 1000.0)
        assert loss.tx_height_gain_db == pytest.approx(0.0, abs=1e-12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            extended_cost231(2530.0, 40.0, 3.0, 1000.0, rx_gain_variant="village")


class TestSui:
    def test_gamma_for_reference_height(self):
        assert sui_gamma(40.0, TERRAIN_B) == pytest.approx(4.1675, abs=1e-12)

    def test_gamma_terrain_constants(self):
        # a - b*hb + c/hb with the published per-terrain constants
        hb = 25.0
        assert sui_gamma(hb, TERRAIN_A) == pytest.approx(4.6 - 0.0075 * hb + 12.6 / hb, abs=1e-12)
        assert sui_gamma(hb, TERRAIN_C) == pytest.approx(3.6 - 0.005 * hb + 20.0 / hb, abs=1e-12)

    @pytest.mark.parametrize(("terrain", "kind"), [("B", "str"), (None, "NoneType")])
    def test_gamma_of_a_terrain_name_is_a_domain_error(self, terrain, kind):
        with pytest.raises(DomainError, match=f"^terrain must be a TerrainCategory, got {kind}$"):
            sui_gamma(40.0, terrain)

    def test_spot_value(self):
        pl = sui_path_loss(2530.0, 40.0, 3.0, 400.0, SuiParams(terrain=TERRAIN_B))
        assert pl == pytest.approx(104.31180133926222, abs=1e-9)

    @staticmethod
    def height_correction(rx_height_m, params, freq_mhz=2530.0):
        """Xh: the loss at `rx_height_m` less that at a receiver at D = xh_denominator_m, where Xh is 0."""
        loss = sui_path_loss(freq_mhz, 40.0, rx_height_m, 900.0, params)
        return loss - sui_path_loss(freq_mhz, 40.0, params.xh_denominator_m, 900.0, params)

    def test_corrections(self):
        params = SuiParams(terrain=TERRAIN_B)
        assert self.height_correction(3.0, params) == pytest.approx(-1.9017855978013576, abs=1e-12)
        # Xf = 6*log10(f/2000) is 0 at 2000 MHz, where the reference-distance loss A is 20*log10(2530/2000) lower
        d0_term = sui_path_loss(2530.0, 40.0, 2.0, 900.0, params) - sui_path_loss(2000.0, 40.0, 2.0, 900.0, params)
        assert d0_term - 20.0 * math.log10(2530.0 / 2000.0) == pytest.approx(0.6125431530710201, abs=1e-12)

    def test_height_correction_denominator_switch(self):
        params = SuiParams(terrain=TERRAIN_B, xh_denominator_m=2000.0)
        assert self.height_correction(3.0, params) == pytest.approx(30.498214402198645, abs=1e-12)

    def test_terrain_c_uses_steeper_height_coefficient(self):
        xh_b = self.height_correction(4.0, SuiParams(terrain=TERRAIN_B))
        xh_c = self.height_correction(4.0, SuiParams(terrain=TERRAIN_C))
        assert xh_b == pytest.approx(-10.8 * math.log10(4.0 / 2.0), abs=1e-12)
        assert xh_c == pytest.approx(-20.0 * math.log10(4.0 / 2.0), abs=1e-12)

    def test_shadow_term_is_additive(self):
        base = sui_path_loss(2530.0, 40.0, 3.0, 900.0, SuiParams(shadow_db=0.0))
        shadowed = sui_path_loss(2530.0, 40.0, 3.0, 900.0, SuiParams(shadow_db=8.2))
        assert shadowed - base == pytest.approx(8.2, abs=1e-12)

    def test_decade_slope_is_ten_gamma(self):
        pl1 = sui_path_loss(2530.0, 40.0, 3.0, 300.0)
        pl2 = sui_path_loss(2530.0, 40.0, 3.0, 3000.0)
        assert pl2 - pl1 == pytest.approx(10.0 * sui_gamma(40.0, TERRAIN_B), abs=1e-9)

    def test_rejects_distance_at_or_below_reference(self):
        for d in (100.0, 50.0):
            with pytest.raises(DomainError, match="d0"):
                sui_path_loss(2530.0, 40.0, 3.0, d)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            SuiParams(d0_m=0.0)
        with pytest.raises(DomainError):
            SuiParams(shadow_db=-1.0)
        with pytest.raises(DomainError):
            SuiParams(xh_denominator_m=7.0)


class TestEricsson:
    def test_frequency_term_values(self):
        assert ericsson_frequency_term(2530.0) == pytest.approx(96.04655602083484, abs=1e-9)
        assert ericsson_frequency_term(2000.0) == pytest.approx(94.77612513282394, abs=1e-9)

    def test_default_spot_value(self):
        pl = ericsson_path_loss(2530.0, 40.0, 3.0, 1000.0)
        assert pl == pytest.approx(105.36199181543809, abs=1e-9)

    def test_decade_slope_identity(self):
        # Slope per decade is a1 + a3*log10(hb)
        params = EricssonParams()
        lo = ericsson_path_loss(2530.0, 40.0, 3.0, 400.0, params)
        hi = ericsson_path_loss(2530.0, 40.0, 3.0, 4000.0, params)
        assert hi - lo == pytest.approx(params.a1 + params.a3 * math.log10(40.0), abs=1e-9)

    def test_custom_intercept_shifts_uniformly(self):
        base = ericsson_path_loss(2530.0, 40.0, 3.0, 1500.0)
        shifted = ericsson_path_loss(2530.0, 40.0, 3.0, 1500.0, EricssonParams(a0=46.2))
        assert shifted - base == pytest.approx(10.0, abs=1e-12)

    def test_params_must_be_finite(self):
        with pytest.raises(DomainError):
            EricssonParams(a1=math.nan)


class TestPathLossModel:
    @pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
    def test_correction_subtracts_from_loss(self):
        model = make_model("cost231_hata", 2530.0, 40.0, 3.0)
        corrected = model.corrected(12.5)
        d = 1200.0
        assert model.path_loss_db(d) - corrected.path_loss_db(d) == pytest.approx(12.5, abs=1e-12)
        assert corrected.name.endswith("_corrected")
        assert corrected.model_id == "cost231_hata"

    def test_corrections_compose(self):
        model = make_model("ericsson", 2530.0, 40.0, 3.0)
        twice = model.corrected(4.0).corrected(6.0)
        assert model.path_loss_db(800.0) - twice.path_loss_db(800.0) == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
    def test_make_model_matches_direct_functions(self):
        # the bound model and the closed form, each against the independent reference
        f, hb, hr, d = 2530.0, 40.0, 3.0, 1700.0
        cases = [
            ("fspl", fspl(f, d / 1000.0), closed_forms.fspl(d, f)),
            ("cost231_hata", cost231_hata(f, hb, hr, d), closed_forms.cost231_hata(d, f, hb, hr)),
            ("extended_cost231", extended_cost231(f, hb, hr, d).total_db, closed_forms.extended_cost231(d, f, hb, hr)),
            ("sui", sui_path_loss(f, hb, hr, d), closed_forms.sui(d, f, hb, hr)),
            ("ericsson", ericsson_path_loss(f, hb, hr, d), closed_forms.ericsson(d, f, hb, hr)),
        ]
        for model_id, direct, expected in cases:
            model = make_model(model_id, f, hb, hr)
            assert model.path_loss_db(d) == pytest.approx(expected, abs=1e-12), model_id
            assert direct == pytest.approx(expected, abs=1e-12), model_id

    def test_unknown_model_id(self):
        with pytest.raises(DomainError):
            make_model("okumura", 900.0, 30.0, 1.5)

    def test_heights_required_except_fspl(self):
        make_model("fspl", 900.0)
        with pytest.raises(DomainError):
            make_model("sui", 900.0)

    @pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
    def test_model_from_params_matches_make_model(self):
        params = {
            "freq_mhz": 2530.0,
            "tx_height_m": 40.0,
            "rx_height_m": 3.0,
            "environment": "metropolitan",
        }
        via_mapping = model_from_params("cost231_hata", params)
        direct = make_model("cost231_hata", 2530.0, 40.0, 3.0, environment=METROPOLITAN)
        assert via_mapping.path_loss_db(950.0) == pytest.approx(direct.path_loss_db(950.0), abs=1e-12)

    def test_model_from_params_terrain_by_name(self):
        model = model_from_params(
            "sui",
            {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0, "terrain": "C"},
        )
        expected = closed_forms.sui(600.0, 2530.0, 40.0, 3.0, terrain="C")
        assert model.path_loss_db(600.0) == pytest.approx(expected, abs=1e-12)

    def test_model_from_params_rejects_unknown_keys(self):
        with pytest.raises(DomainError, match="unknown model parameters"):
            model_from_params("fspl", {"freq_mhz": 900.0, "downtilt_deg": 4.0})
        with pytest.raises(DomainError, match="freq_mhz"):
            model_from_params("fspl", {})


def test_all_models_monotonic_in_distance():
    """Loss must grow with distance for any valid parameter draw."""
    rng = random.Random(20260816)
    for _ in range(60):
        freq = rng.uniform(1500.0, 3500.0)
        hb = rng.uniform(10.0, 200.0)
        hr = rng.uniform(1.0, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelRangeWarning)
            models = [make_model(mid, freq, hb, hr) for mid in MODEL_IDS]
            d1 = rng.uniform(150.0, 15000.0)
            d2 = d1 * rng.uniform(1.01, 2.0)
            for model in models:
                assert model.path_loss_db(d2) > model.path_loss_db(d1), (model.model_id, d1, d2)


def test_package_exposes_version():
    assert propcal.__version__
