"""CLI behavior: exit codes, output formats, aliases, and determinism."""

import argparse
import contextlib
import functools
import io
import json
import math
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact
import propcal

from propcal import (
    PUBLISHED_CALIBRATION,
    REFERENCE_SITE,
    parse_drive_test_csv,
    reference_dataset,
    site_to_json,
)
from propcal import calibration, cli
from propcal.errors import _Floats
from propcal.models import _log_km

pytestmark = pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")

ERROR_PREFIX = "propcal: error: "


def test_compare_embedded_reproduces_published(run_cli):
    code, out, _ = run_cli("compare", "--data", "embedded:reference", "--site", "table3")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_model"] == "extended_cost231"
    for model_id, pub in PUBLISHED_CALIBRATION.items():
        assert payload["models"][model_id]["cf_db"] == pytest.approx(pub["cf_db"], abs=0.002)
    assert any("6.254" in note for note in payload.get("notes", []))


def test_compare_csv_format(run_cli):
    code, out, _ = run_cli("compare", "--data", "embedded:reference", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("model_id,cf_db,")
    best = [line for line in lines[1:] if line.endswith(",true")]
    assert len(best) == 1 and best[0].startswith("extended_cost231,")


def test_stdout_is_byte_stable(run_cli):
    first = run_cli("compare", "--data", "embedded:reference")
    second = run_cli("compare", "--data", "embedded:reference")
    assert first == second
    assert run_cli("reference", "--dump") == run_cli("reference", "--dump")


def test_predict_fspl_identity_case(run_cli):
    code, out, _ = run_cli(
        "predict", "--model", "fspl", "--freq-mhz", "1", "--distance-m", "1000", "--tx-gain-linear", "1"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "distance_m,pl_fspl"
    distance, loss = row.split(",")
    assert distance == "1000"
    assert float(loss) == pytest.approx(32.45, abs=1e-6)


def test_predict_all_models_json(run_cli):
    code, out, _ = run_cli(
        "predict", "--all", "--distances", "500:2500:500", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distances_m"] == [500.0, 1000.0, 1500.0, 2000.0, 2500.0]
    assert list(payload["path_loss_db"]) == ["fspl", "cost231_hata", "extended_cost231", "sui", "ericsson"]
    assert payload["path_loss_db"]["ericsson"][1] == pytest.approx(105.362, abs=0.001)


def test_predict_sui_below_reference_distance(run_cli):
    code, out, err = run_cli("predict", "--model", "sui", "--distance-m", "50")
    assert code == 3
    assert out == ""
    assert err.startswith(ERROR_PREFIX)
    assert "d0" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("selection", [("--all",), ("--model", "fspl")])
def test_predict_names_the_first_distance_that_is_not_positive(run_cli, selection):
    code, out, err = run_cli("predict", *selection, "--distances", "0:1000:100")
    assert (code, out) == (3, "")
    assert err == f"{ERROR_PREFIX}distance 1: distance_m must be a positive finite number, got 0.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("predict",),
        ("predict", "--model", "fspl"),
        ("predict", "--model", "fspl", "--distance-m", "1000", "--bogus"),
        ("compare",),
        ("predict", "--model", "fspl", "--distances", "10:5:1"),
        ("infer", "--model", "sui", "--data", "embedded:reference", "--grid", "oops"),
        ("predict", "--model", "nakagami", "--distance-m", "100"),
    ],
)
def test_usage_errors_exit_1(run_cli, argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith(ERROR_PREFIX)


def test_range_expansion_is_capped_before_allocating(run_cli):
    # One point over the cap first: a missing check then costs one small
    # list, not the 10^15 elements of the next case.
    with pytest.raises(argparse.ArgumentTypeError, match="1000000 allowed"):
        cli._frange(1.0, float(cli.MAX_RANGE_POINTS + 1), 1.0)
    for argv, flag in (
        (("predict", "--all", "--distances", "200:1e15:1"), "--distances"),
        (("predict", "--all", "--distances", "0:1e308:1e-300"), "--distances"),
        (("infer", "--model", "sui", "--data", "embedded:reference", "--grid", "tx_height_m=10:1e12:1"), "--grid"),
        # two axes under the cap whose product (about 10^9 points) is over it
        (
            (
                "infer", "--model", "ericsson", "--data", "embedded:reference",
                "--grid", "tx_height_m=10:1010:0.01", "--grid", "rx_height_m=1:101:0.01",
            ),
            "--grid",
        ),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith(ERROR_PREFIX + f"argument {flag}: ")
        assert f"more than the {cli.MAX_RANGE_POINTS} allowed" in err


def test_bounded_number_flags_keep_their_messages(run_cli):
    for flag, value, message in (
        ("--freq-mhz", "0", "must be positive, got '0'"),
        ("--sui-shadow", "-1", "must be >= 0, got '-1'"),
        ("--sui-shadow", "x", "not a number: 'x'"),
    ):
        code, _, err = run_cli("calibrate", "--data", "embedded:reference", flag, value)
        assert code == 1
        assert err.startswith(ERROR_PREFIX + f"argument {flag}: {message}")
    assert run_cli("calibrate", "--data", "embedded:reference", "--sui-shadow", "0")[0] == 0


@pytest.mark.parametrize("command", ["calibrate", "compare"])
def test_an_acceptable_mse_of_zero_flags_every_model(run_cli, command):
    # the library takes a threshold of 0, so the flag does too
    code, out, err = run_cli(command, "--data", "embedded:reference", "--acceptable-mse", "0")
    assert (code, err) == (0, "")
    report = json.loads(out)
    threshold_notes = [note for note in report["notes"] if "exceeds the acceptable threshold 0 dB^2" in note]
    assert [note.split(":")[0] for note in threshold_notes] == list(report["models"])


def test_a_grid_axis_given_twice_exits_1_naming_it(run_cli):
    code, out, err = run_cli(
        "infer", "--model", "sui", "--data", "embedded:reference",
        "--grid", "tx_height_m=10,20", "--grid", "terrain=A", "--grid", "tx_height_m=30",
    )
    assert (code, out) == (1, "")
    assert err == f"{ERROR_PREFIX}argument --grid: axis 'tx_height_m' is given more than once\n"


@pytest.mark.parametrize(
    "text",
    [
        "distance_m,rssi_dbm,pred_a,pred_b\n500,-58,-60,-59\n",
        "distance_m,rssi_dbm,pred_a,pred_b\n500,-57,-60,-59\n400,-59,-60,-62\n",
    ],
    ids=["one_row", "flat_column"],
)
def test_compare_reports_an_undefined_r_as_null(run_cli, tmp_path, text):
    path = tmp_path / "drive.csv"
    path.write_text(text)
    code, out, err = run_cli("compare", "--data", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["models"]["a"]["pearson_r"] is None
    assert report["notes"][0].startswith("a: pearson_r ")
    assert report["models"]["a"]["cf_db"] == 2.0
    code, out, _ = run_cli("compare", "--data", str(path), "--format", "csv")
    assert code == 0
    row_a = out.splitlines()[1].split(",")
    assert row_a[0] == "a" and row_a[6] == ""


def test_non_finite_range_bound_exits_1(run_cli):
    code, _, err = run_cli("predict", "--all", "--distances", "200:inf:1")
    assert code == 1
    assert "finite" in err


@pytest.mark.parametrize("argv", [("compare",), ("calibrate", "--all"), ("plot", "--all")])
def test_utf8_bom_data_gives_the_plain_report(run_cli, tmp_path, argv):
    _, dump, _ = run_cli("reference", "--dump")
    plain = tmp_path / "plain.csv"
    bom = tmp_path / "bom.csv"
    plain.write_text(dump, encoding="utf-8")
    bom.write_text(dump, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run_cli(*argv, "--data", str(plain))
    assert expected[0] == 0
    assert run_cli(*argv, "--data", str(bom)) == expected


def test_missing_data_file_exits_2(run_cli, tmp_path):
    code, _, err = run_cli("compare", "--data", str(tmp_path / "nope.csv"))
    assert code == 2
    assert err.startswith(ERROR_PREFIX)


def test_data_without_predictions_exits_2(run_cli, tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("distance_m,rssi_dbm\n500,-58\n400,-61\n")
    code, _, err = run_cli("compare", "--data", str(path))
    assert code == 2
    assert "prediction columns" in err


def test_malformed_data_exits_2(run_cli, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("distance_m,rssi_dbm\n500,-200\n")
    code, _, err = run_cli("compare", "--data", str(path))
    assert code == 2
    assert "row 1" in err


def test_reference_dump_roundtrips(run_cli):
    code, out, _ = run_cli("reference", "--dump")
    assert code == 0
    table = parse_drive_test_csv(out)
    reference = reference_dataset()
    assert table.samples == reference.samples
    assert table.predictions == reference.predictions


def test_reference_summary(run_cli):
    code, out, _ = run_cli("reference")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 45
    assert payload["distance_min_m"] == 400.0
    assert payload["prediction_columns"] == ["cost231_hata", "extended_cost231", "sui", "ericsson"]


def test_calibrate_single_model(run_cli):
    code, out, _ = run_cli("calibrate", "--data", "embedded:reference", "--model", "ericsson")
    assert code == 0
    payload = json.loads(out)
    assert list(payload["models"]) == ["ericsson"]
    assert payload["best_model"] == "ericsson"


def test_calibrate_fresh_models_rank_like_published(run_cli):
    # Reconstructed models at the reference site agree with the stored
    # columns on the ranking, not just on the printed metrics
    code, out, _ = run_cli("calibrate", "--data", "embedded:reference", "--all")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_model"] == "extended_cost231"
    assert payload["models"]["extended_cost231"]["mse_after_db2"] == pytest.approx(18.1554, abs=0.05)


def test_site_override_changes_predictions(run_cli):
    _, base, _ = run_cli("predict", "--model", "cost231_hata", "--distance-m", "1000")
    _, taller, _ = run_cli("predict", "--model", "cost231_hata", "--distance-m", "1000", "--tx-height", "50")
    assert base != taller


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"], ids=["plain", "bom"])
def test_site_file_matches_alias(run_cli, tmp_path, encoding):
    path = tmp_path / "site.json"
    path.write_text(site_to_json(REFERENCE_SITE), encoding=encoding)
    _, from_file, _ = run_cli("predict", "--all", "--distance-m", "1500", "--site", str(path))
    _, from_alias, _ = run_cli("predict", "--all", "--distance-m", "1500", "--site", "table3")
    assert from_file == from_alias


def test_bad_site_file_exits_2(run_cli, tmp_path):
    path = tmp_path / "site.json"
    path.write_text('{"tx_power_dbm": 30}')
    code, _, err = run_cli("predict", "--model", "fspl", "--distance-m", "1000", "--site", str(path))
    assert code == 2
    assert "missing site fields" in err


def test_plot_corrected_extended_column(run_cli):
    code, out, _ = run_cli("plot", "--data", "embedded:reference")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    column = header.index("extended_cost231_corrected")
    far = lines[-1].split(",")
    assert far[0] == "4200"
    assert float(far[column]) == pytest.approx(-84.02, abs=0.01)


def test_plot_path_loss_mode(run_cli):
    code, out, _ = run_cli("plot", "--quantity", "pl")
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert first[0] == "400"
    assert float(first[1]) == pytest.approx(63.8 + 61.0, abs=1e-9)


def test_plot_can_add_model_columns(run_cli):
    code, out, _ = run_cli("plot", "--model", "fspl")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "fspl" in header and "fspl_corrected" in header


def test_plot_without_columns_or_models(run_cli, tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("distance_m,rssi_dbm\n500,-58\n400,-61\n")
    code, out, _ = run_cli("plot", "--data", str(path))
    assert code == 0
    assert out.splitlines()[0] == "distance_m,measured_rss_dbm"


@pytest.mark.parametrize(
    "text, argv, out",
    [
        # compare accepts this column; its corrected series lies at -169 dBm
        ("distance_m,rssi_dbm,pred_x\n500,-149,-100\n900,-149,-140\n", (),
         "distance_m,measured_rss_dbm,x,x_corrected\n500,-149.00,-100.00,-129.00\n900,-149.00,-140.00,-169.00\n"),
        # free space loses 220.5 dB over 1e6 km
        ("distance_m,rssi_dbm\n1000000000,-100\n", ("--model", "fspl"),
         "distance_m,measured_rss_dbm,fspl,fspl_corrected\n1000000000,-100.00,-156.71,-100.00\n"),
    ],
    ids=["corrected_column", "evaluated_model"],
)
def test_plot_checks_the_rss_window_on_input_columns_only(run_cli, tmp_path, text, argv, out):
    path = tmp_path / "drive.csv"
    path.write_text(text)
    assert run_cli("compare", "--data", str(path))[0] == (0 if "pred_" in text else 2)
    assert run_cli("plot", "--data", str(path), *argv) == (0, out, "")


@pytest.mark.parametrize(
    "text, argv, name",
    [
        ("distance_m,rssi_dbm,pred_x,pred_x_corrected\n500,-60,-62,-70\n900,-70,-71,-80\n", (), "x"),
        ("distance_m,rssi_dbm,pred_fspl_corrected\n500,-60,-62\n", ("--model", "fspl"), "fspl"),
    ],
    ids=["data_column", "evaluated_model"],
)
def test_plot_rejects_a_column_that_clashes_with_a_corrected_series(run_cli, tmp_path, text, argv, name):
    path = tmp_path / "clash.csv"
    path.write_text(text)
    code, out, err = run_cli("plot", "--data", str(path), *argv)
    assert (code, out) == (2, "")
    assert err == f"{ERROR_PREFIX}column pred_{name}_corrected clashes with {name}_corrected, the corrected series of {name}\n"


def test_out_flag_writes_file(run_cli, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("compare", "--data", "embedded:reference", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["best_model"] == "extended_cost231"


def test_infer_recovers_reference_height(run_cli):
    code, out, _ = run_cli(
        "infer",
        "--model", "cost231_hata",
        "--data", "embedded:reference",
        "--grid", "tx_height_m=35:45:0.5",
        "--grid", "environment=medium_suburban,metropolitan",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fit_mse_db2"] < 0.05
    assert payload["tx_height_from_slope_m"] == pytest.approx(40.1, abs=0.5)
    assert payload["evaluated"] == 42


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_infer_keeps_its_fit_when_the_slope_height_leaves_the_float_range(run_cli, tmp_path, fmt):
    # the loss falls 90 dB over a micrometer, so the implied height overflows; the grid fit still stands
    data = tmp_path / "falling.csv"
    data.write_text("distance_m,rssi_dbm,pred_cost231_hata\n1000,-50,-140\n1000.000001,-100,-50\n")
    code, out, err = run_cli("infer", "--model", "cost231_hata", "--data", str(data), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "csv":
        # as in calibrate's CSV, a null is an empty cell and the notes are left to the JSON report
        assert out.endswith("\nevaluated,362\ntx_height_from_slope_m,\n")
        return
    payload = json.loads(out)
    assert math.isfinite(payload["fit_mse_db2"]) and payload["decade_slope_db"] < -2e11
    assert payload["tx_height_from_slope_m"] is None
    assert payload["notes"] == [
        "tx_height_from_slope_m: slope -2.07233e+11 dB/decade implies a transmit height outside the float range;"
        " reported as null"
    ]


@pytest.mark.parametrize(
    ("rows", "flags"),
    [
        ([f"205,{-60 - i},{-100 - i}" for i in range(7)], ("--grid", "tx_height_m=30,40")),
        (["1000,-60,-100", "1000,-61,-101"], ()),
    ],
    ids=["seven_at_205m", "two_at_1km"],
)
def test_infer_on_a_single_distance_exits_3(run_cli, tmp_path, rows, flags):
    data = tmp_path / "one_distance.csv"
    data.write_text("\n".join(["distance_m,rssi_dbm,pred_cost231_hata", *rows]) + "\n")
    code, out, err = run_cli("infer", "--model", "cost231_hata", "--data", str(data), *flags)
    assert (code, out) == (3, "")
    assert err == f"{ERROR_PREFIX}decade slope undefined: every sample lies at the same distance\n"


def test_infer_slope_has_the_same_bits_on_every_python(run_cli, tmp_path):
    # exact equality: the slope is a ratio of exact fsum sums, so every Python version prints these digits
    data = tmp_path / "five.csv"
    rows = ["817,-60,-62.51", "1817,-100,-113.41", "2866,-80,-79.2", "397,-50,-56.32", "496,-100,-104.97"]
    data.write_text("\n".join(["distance_m,rssi_dbm,pred_ericsson", *rows]) + "\n")
    code, out, _ = run_cli("infer", "--model", "ericsson", "--data", str(data))
    assert code == 0
    assert json.loads(out)["decade_slope_db"] == 22.332851321271864


@pytest.mark.parametrize(
    ("flags", "reason"),
    [
        (("--grid", "sui_d0_m=5000"), "sui_path_loss requires distance_m > d0 (5000 m), got 4200 m"),
        (("--sui-shadow", "1e200", "--grid", "terrain=B"), "sui series: a sum over its values overflows the float range"),
    ],
    ids=["precondition", "overflow"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_infer_exits_3_when_no_grid_point_can_be_scored(run_cli, flags, reason, fmt):
    code, out, err = run_cli("infer", "--model", "sui", "--data", "embedded:reference", *flags, "--format", fmt)
    assert (code, out) == (3, "")
    assert err == f"{ERROR_PREFIX}no sui grid point can be scored; the first fails: {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("plot", "--quantity", "pl"),
        ("calibrate", "--model", "fspl", "--data", "embedded:reference"),
        ("infer", "--model", "fspl", "--column", "cost231_hata", "--data", "embedded:reference"),
    ],
    ids=["plot", "calibrate", "infer"],
)
def test_a_site_whose_budget_overflows_exits_3_naming_the_budget(run_cli, tmp_path, argv):
    site = tmp_path / "big.json"
    site.write_text(json.dumps({**json.loads(site_to_json(REFERENCE_SITE)), "tx_power_dbm": 1e308, "tx_gain_dbi": 1e308}))
    code, out, err = run_cli(*argv, "--site", str(site))
    assert (code, out, err) == (3, "", f"{ERROR_PREFIX}budget_db must be finite, got inf\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--format", "csv"),
        ("plot",),
        ("infer", "--model", "sui", "--column", "a,b", "--format", "csv"),
    ],
    ids=["compare", "plot", "infer"],
)
def test_a_column_name_holding_a_comma_exits_2(run_cli, tmp_path, argv):
    data = tmp_path / "comma.csv"
    data.write_text('distance_m,rssi_dbm,"pred_a,b"\n500,-58,-60\n900,-66,-70\n')
    code, out, err = run_cli(*argv, "--data", str(data))
    assert (code, out) == (2, "")
    assert err == f"{ERROR_PREFIX}prediction column 'a,b': a name may not hold a comma, a quote or a line break\n"


# the site and model flags, each away from its default
VARIANT_FLAGS = (
    "--env", "metro", "--terrain", "C", "--sui-xh-denom", "2000", "--sui-shadow", "8.2",
    "--tx-gain-linear", "2", "--tx-height", "55", "--rx-height", "1.5", "--freq-mhz", "1800",
)


@pytest.mark.parametrize("model_id", propcal.MODEL_IDS)
def test_infer_reports_the_parameters_the_other_commands_bind(run_cli, model_id):
    column = ("--column", "sui") if model_id == "fspl" else ()  # the corpus has no fspl column
    code, out, err = run_cli(
        "infer", "--model", model_id, "--data", "embedded:reference", *column, "--grid", "tx_height_m=55", *VARIANT_FLAGS
    )
    assert (code, err) == (0, "")
    inferred = propcal.model_from_params(model_id, json.loads(out)["params"])
    code, out, err = run_cli("predict", "--model", model_id, "--distance-m", "900", *VARIANT_FLAGS)
    assert (code, err) == (0, "")
    assert out == f"distance_m,pl_{model_id}\n900,{inferred.path_loss_db(900.0):.4f}\n"


def test_infer_csv_flattens_the_report_one_key_per_line(run_cli):
    code, out, err = run_cli("infer", "--model", "cost231_hata", "--data", "embedded:reference", "--format", "csv")
    assert (code, err) == (0, "")
    # floats that go through log10 are compared to 1e-9; the slope is exact fsum arithmetic
    expected = [
        ("key", "value"),
        ("model", "cost231_hata"),
        ("column", "cost231_hata"),
        ("params.freq_mhz", "2530.0"),
        ("params.tx_height_m", "37.0"),
        ("params.rx_height_m", "3.0"),
        ("params.environment", "metropolitan"),
        ("params.terrain", "B"),
        ("params.sui_shadow_db", "0.0"),
        ("params.sui_xh_denominator_m", "2.0"),
        ("params.tx_gain_linear", "1.0"),
        ("fit_mse_db2", pytest.approx(0.006971884322906539, rel=0.0, abs=1e-9)),
        ("decade_slope_db", "34.40527285091762"),
        ("evaluated", "362"),
        ("tx_height_from_slope_m", pytest.approx(40.01735866053762, rel=0.0, abs=1e-9)),
    ]
    rows = [tuple(line.split(",")) for line in out.splitlines()]
    assert [key for key, _ in rows] == [key for key, _ in expected]
    for (key, got), (_, want) in zip(rows, expected):
        assert (got if isinstance(want, str) else float(got)) == want, key


@pytest.mark.parametrize("digits", [401, 5001])
def test_oversized_site_integers_exit_2(run_cli, tmp_path, digits):
    site = tmp_path / "site.json"
    site.write_text(site_to_json(REFERENCE_SITE).replace("2530.0", "9" * digits))
    code, out, err = run_cli("calibrate", "--data", "embedded:reference", "--site", str(site))
    assert (code, out) == (2, "")
    # past 4300 digits Python 3.11+ refuses the JSON itself
    assert err.startswith((f"{ERROR_PREFIX}site field freq_mhz must fit a float", f"{ERROR_PREFIX}invalid site JSON"))
    assert "Traceback" not in err


def test_deeply_nested_site_json_exits_2(run_cli, tmp_path):
    site = tmp_path / "site.json"
    site.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli("calibrate", "--data", "embedded:reference", "--site", str(site))
    assert (code, out) == (2, "")
    assert err.startswith(f"{ERROR_PREFIX}invalid site JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_compare_loads_the_site_it_is_given(run_cli, tmp_path):
    corpus = ("compare", "--data", "embedded:reference")
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(*corpus, "--site", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(ERROR_PREFIX) and str(missing) in err and err.count("\n") == 1
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"tx_power_dbm": 30}')
    assert run_cli(*corpus, "--site", str(malformed))[:2] == (2, "")
    valid = tmp_path / "site.json"
    valid.write_text(site_to_json(REFERENCE_SITE))
    assert run_cli(*corpus, "--site", str(valid)) == run_cli(*corpus)


def test_infer_missing_column_exits_2(run_cli):
    code, _, err = run_cli("infer", "--model", "fspl", "--data", "embedded:reference")
    assert code == 2
    assert "no prediction column" in err


def test_help_exits_zero(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "predict" in out and "compare" in out


_HELP = {"-h --help": (argparse.SUPPRESS, None)}
_SITE_FILE = {"--site": ("table3", None)}
_SITE = {**_SITE_FILE, "--freq-mhz": (None, None), "--tx-height": (None, None), "--rx-height": (None, None)}
_MODEL = {
    "--env": ("medium", ["medium", "metro"]),
    "--terrain": ("B", ["A", "B", "C"]),
    "--sui-xh-denom": (2.0, [2.0, 2000.0]),
    "--sui-shadow": (0.0, None),
    "--tx-gain-linear": (1.0, None),
}
_DATA = {"--data": (None, None)}
_OUT = {"--out": (None, None)}
_MODEL_IDS = ["fspl", "cost231_hata", "extended_cost231", "sui", "ericsson"]
_FORMAT = ["json", "csv"]
# each subcommand's option strings, in order, with their defaults and choices
FLAG_SURFACE = {
    "predict": {
        **_HELP, **_SITE, **_MODEL, **_OUT,
        "--model": (None, _MODEL_IDS), "--all": (False, None),
        "--distance-m": (None, None), "--distances": (None, None), "--format": ("csv", _FORMAT),
    },
    "calibrate": {
        **_HELP, **_DATA, **_SITE, **_MODEL, **_OUT,
        "--model": (None, _MODEL_IDS), "--all": (False, None), "--acceptable-mse": (None, None), "--format": ("json", _FORMAT),
    },
    "compare": {**_HELP, **_DATA, **_SITE_FILE, **_OUT, "--acceptable-mse": (None, None), "--format": ("json", _FORMAT)},
    "reference": {**_HELP, **_OUT, "--dump": (False, None)},
    "infer": {
        **_HELP, **_DATA, **_SITE, **_MODEL, **_OUT,
        "--model": (None, _MODEL_IDS), "--column": (None, None), "--grid": (None, None), "--format": ("json", _FORMAT),
    },
    "plot": {
        **_HELP, **_SITE, **_MODEL, **_OUT,
        "--data": ("embedded:reference", None), "--model": (None, _MODEL_IDS), "--all": (False, None),
        "--quantity": ("rss", ["rss", "pl"]),
    },
}


def test_the_flag_surface_is_pinned():
    # argparse's actions, not the --help text, which differs between Python versions
    def surface(parser):
        return [
            (" ".join(action.option_strings), (action.default, None if action.choices is None else list(action.choices)))
            for action in parser._actions if action.option_strings
        ]

    parser = cli._build_parser()
    [commands] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert surface(parser) == list(_HELP.items())
    assert list(commands.choices) == list(FLAG_SURFACE)
    for name, subparser in commands.choices.items():
        assert surface(subparser) == list(FLAG_SURFACE[name].items()), name


def _subparsers(parser):
    [commands] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


def _action_surface(parser):
    # what parsing and --help read of each action and group; each build makes its own partial for the bounded flags
    def type_key(kind):
        return (kind.func, kind.keywords) if isinstance(kind, functools.partial) else kind

    actions = [
        (type(a), a.option_strings, a.dest, a.nargs, a.const, a.default, type_key(a.type), a.choices, a.required, a.help, a.metavar)
        for a in parser._actions
    ]
    groups = [([a.dest for a in group._group_actions], group.required) for group in parser._mutually_exclusive_groups]
    return actions, groups


@pytest.mark.parametrize("name", list(FLAG_SURFACE))
def test_a_command_alone_gets_the_subparser_of_the_full_tree(name):
    full = _subparsers(cli._build_parser())[name]
    alone = _subparsers(cli._build_parser([name]))
    assert list(alone) == [name]
    assert _action_surface(alone[name]) == _action_surface(full)
    assert alone[name].format_help() == full.format_help()


@pytest.mark.parametrize(
    "argv",
    [
        # no command first: these get the full tree
        (),
        ("--help",),
        ("bogus",),
        ("pred",),
        ("--", "compare", "--data", "embedded:reference"),
        ("--data", "x", "compare"),
        # a command first: these get its subparser alone
        ("compare", "--help"),
        ("compare", "--data", "embedded:reference", "extra"),
        ("compare", "--dat", "embedded:reference"),
        ("predict", "--model", "bogus", "--distance-m", "1"),
        ("plot", "--all", "--quantity", "pl"),
    ],
)
def test_main_answers_as_the_full_tree_does(run_cli, monkeypatch, argv):
    got = run_cli(*argv)
    full_tree = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv=(): full_tree())
    assert got == run_cli(*argv)


def test_a_command_builds_only_its_own_subparser(run_cli, monkeypatch):
    # the top-level parser and one subparser, not all six: building them was most of a corpus command's time
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run_cli("compare", "--data", "embedded:reference")[0] == 0
    assert built == ["propcal", "propcal compare"]
    built.clear()
    assert run_cli("--help")[0] == 0
    assert built == ["propcal", *(f"propcal {name}" for name in FLAG_SURFACE)]


def test_main_without_arguments_reads_sys_argv(run_cli, capsys, monkeypatch):
    argv = ("compare", "--data", "embedded:reference")
    want = run_cli(*argv)
    monkeypatch.setattr(sys, "argv", ["propcal", *argv])
    code = cli.main()
    assert (code, *capsys.readouterr()) == want


def test_module_entrypoint():
    # run from the directory holding the imported package, so the child
    # finds it without PYTHONPATH
    result = subprocess.run(
        [sys.executable, "-m", "propcal", "compare", "--data", "embedded:reference"],
        capture_output=True,
        text=True,
        cwd=Path(propcal.__file__).resolve().parent.parent,
    )
    assert result.returncode == 0
    assert '"best_model": "extended_cost231"' in result.stdout


def test_the_runtime_needs_only_the_standard_library():
    # -I -S: no site-packages and no PYTHON* variables, only the package source
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from propcal.cli import main; "
        "corpus = ['--data', 'embedded:reference']; "
        "print(main(['compare', *corpus]), main(['infer', '--model', 'sui', *corpus]), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(Path(propcal.__file__).resolve().parent.parent)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "0 0\n")


def test_importing_the_cli_loads_neither_typing_nor_pathlib():
    # a fresh -I -S interpreter pays for every module that `import propcal.cli` loads; neither is needed
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import propcal.cli; "
        "print(sorted({'typing', 'pathlib'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(Path(propcal.__file__).resolve().parent.parent)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n")


def test_main_restores_the_warning_format_on_return(run_cli):
    # only while main runs does a range warning print as one propcal line; library callers keep Python's format
    before = warnings.formatwarning
    for argv in (("predict", "--all", "--distance-m", "1000"), ("predict", "--model", "sui", "--distance-m", "10")):
        run_cli(*argv)
        assert warnings.formatwarning is before


def test_console_script():
    if shutil.which("propcal") is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(["propcal", "reference"], capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["rows"] == 45


@pytest.mark.parametrize(
    ("axis", "model", "message"),
    [
        ("downtilt=1", "cost231_hata", "unknown model parameters: ['downtilt']"),
        ("environment=metro", "cost231_hata", "unknown environment 'metro'"),
        ("terrain=D", "sui", "unknown terrain 'D'"),
        ("tx_height_m=abc", "cost231_hata", "model parameter tx_height_m must be finite, got 'abc'"),
        ("terrain=5", "sui", "unknown terrain 5.0"),
        ("tx_gain_linear=1,nan", "sui", "model parameter tx_gain_linear must be finite, got nan"),
    ],
)
def test_malformed_grid_axis_exits_3_before_the_search(run_cli, axis, model, message):
    code, out, err = run_cli("infer", "--model", model, "--data", "embedded:reference", "--grid", axis)
    assert (code, out, err) == (3, "", f"{ERROR_PREFIX}{message}\n")


@pytest.mark.parametrize("flag", [("--freq-mhz", "1e308"), ("--tx-height", "1e-320")])
def test_non_finite_model_coefficients_exit_3(run_cli, flag):
    code, out, err = run_cli("predict", "--model", "sui", "--distance-m", "500", *flag)
    assert (code, out) == (3, "")
    assert err == f"{ERROR_PREFIX}sui: the parameters give a non-finite path-loss coefficient\n"


@pytest.mark.parametrize(
    "argv",
    [("predict", "--all", "--distance-m", "500"), ("calibrate", "--all", "--data", "embedded:reference")],
    ids=["predict", "calibrate"],
)
def test_every_model_is_bound_before_any_is_evaluated(run_cli, argv):
    # sui cannot be bound at this height; cost231_hata, ahead of it in --all, would warn when evaluated
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(*argv, "--tx-height", "1e-320")
    assert result == (3, "", f"{ERROR_PREFIX}sui: the parameters give a non-finite path-loss coefficient\n")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "case", ["undecodable_data", "undecodable_site", "out_is_a_directory", "out_in_a_missing_directory", "out_is_empty"]
)
def test_file_errors_exit_2_naming_the_path(run_cli, tmp_path, case):
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"distance_m,rssi_dbm\n400,-61\xff\n")
    corpus = ("--data", "embedded:reference")
    path, argv = {
        "undecodable_data": (undecodable, ("compare", "--data", str(undecodable))),
        "undecodable_site": (undecodable, ("calibrate", *corpus, "--site", str(undecodable))),
        "out_is_a_directory": (tmp_path, ("compare", *corpus, "--out", str(tmp_path))),
        "out_in_a_missing_directory": (
            tmp_path / "missing" / "x.json",
            ("compare", *corpus, "--out", str(tmp_path / "missing" / "x.json")),
        ),
        # the message quotes the empty path, as it does an empty --data or --site
        "out_is_empty": ("''", ("predict", "--model", "fspl", "--distance-m", "1", "--out", "")),
    }[case]
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(ERROR_PREFIX) and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shadow", ["2e153", "4e306"])
def test_overflowing_residual_sums_exit_3(run_cli, shadow):
    # squares (2e153) or the residuals themselves (4e306) sum past the float range
    code, out, err = run_cli("calibrate", "--data", "embedded:reference", "--model", "sui", "--sui-shadow", shadow)
    assert (code, out) == (3, "")
    assert err == f"{ERROR_PREFIX}predicted 'sui' series: a sum over its values overflows the float range\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("calibrate", "--data", "embedded:reference", "--model", "sui", "--tx-height", "1e-300"),
         "predicted 'sui' series: a sum over its values overflows the float range"),
        (("predict", "--all", "--distance-m", "1e308", "--tx-height", "1e308"),
         "sui: path loss at 1e+308 m is not finite (-inf)"),
    ],
    ids=["calibrate_squares", "predict_loss"],
)
def test_non_finite_results_exit_3(run_cli, argv, message):
    # finite coefficients, but each squared residual, or the loss itself, overflows
    assert run_cli(*argv) == (3, "", f"{ERROR_PREFIX}{message}\n")


@st.composite
def drive_test_text(draw):
    """A drive-test CSV with a generated column and a flat one, whose r is null.

    Half the time every row shares one distance, so the freshly evaluated
    models of `calibrate` are flat too.
    """
    n = draw(st.integers(1, 12))
    rss = st.floats(-150.0, 40.0)
    distances = draw(st.lists(st.floats(200.0, 1e5), min_size=n, max_size=n))
    if draw(st.booleans()):
        distances = distances[:1] * n
    measured = draw(st.lists(rss, min_size=n, max_size=n))
    varied = draw(st.lists(rss, min_size=n, max_size=n))
    flat = draw(rss)
    rows = [f"{d!r},{m!r},{v!r},{flat!r}" for d, m, v in zip(distances, measured, varied)]
    return "\n".join(["distance_m,rssi_dbm,pred_varied,pred_flat", *rows]) + "\n"


@pytest.fixture(scope="module")
def drive_test_path(tmp_path_factory):
    return tmp_path_factory.mktemp("formats") / "drive.csv"


@settings(max_examples=60, deadline=None)
@given(text=drive_test_text(), command=st.sampled_from(["compare", "calibrate"]))
def test_json_and_csv_reports_carry_the_same_values(drive_test_path, text, command):
    drive_test_path.write_text(text)
    outputs = {}
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([command, "--data", str(drive_test_path), "--format", fmt]) == 0
        outputs[fmt] = out.getvalue()
    report = json.loads(outputs["json"])
    header, *rows = (line.split(",") for line in outputs["csv"].splitlines())
    assert len(rows) == len(report["models"])
    for row, (model_id, entry) in zip(rows, report["models"].items()):
        assert header == ["model_id", *entry, "best"]
        assert row[0] == model_id
        assert [None if cell == "" else float(cell) for cell in row[1:-1]] == list(entry.values())
        assert row[-1] == ("true" if model_id == report["best_model"] else "false")
    if command == "compare":
        assert report["models"]["flat"]["pearson_r"] is None


def _number_flag(low, high):
    return st.floats(low, high).map(lambda v: (repr(v), v))


# site and model flags of `predict`: each flag's text with the value `make_model` takes for it, and its default
PREDICT_FLAGS = {
    "--freq-mhz": (_number_flag(1.0, 1e4), REFERENCE_SITE.freq_mhz),
    "--tx-height": (_number_flag(1.0, 300.0), REFERENCE_SITE.tx_height_m),
    "--rx-height": (_number_flag(0.5, 20.0), REFERENCE_SITE.rx_height_m),
    "--env": (st.sampled_from([("medium", propcal.MEDIUM_SUBURBAN), ("metro", propcal.METROPOLITAN)]), propcal.MEDIUM_SUBURBAN),
    "--terrain": (st.sampled_from(sorted(propcal.TERRAINS.items())), propcal.TERRAINS["B"]),
    "--sui-xh-denom": (st.sampled_from([("2", 2.0), ("2000", 2000.0)]), 2.0),
    "--sui-shadow": (_number_flag(0.0, 20.0), 0.0),
    "--tx-gain-linear": (_number_flag(0.1, 100.0), 1.0),
}
EXTREME_DISTANCES = st.sampled_from([5e-324, 1e308, 900.0, 1234.5])


@st.composite
def predict_json_argv(draw):
    """`predict --format json` argv, with the models, distances and model binding it stands for."""
    model_ids = draw(st.sampled_from([None, *propcal.MODEL_IDS]))
    argv = ["predict", *(["--all"] if model_ids is None else ["--model", model_ids]), "--format", "json"]
    model_ids = propcal.MODEL_IDS if model_ids is None else (model_ids,)
    if draw(st.booleans()):
        distances = [draw(EXTREME_DISTANCES | st.floats(5e-324, 1e308))]
        argv += ["--distance-m", repr(distances[0])]
    else:  # one point, or up to 20 at an integer or fractional step
        start = draw(EXTREME_DISTANCES | st.floats(1.0, 1e5))
        step = draw(st.sampled_from([0.7, 37.5, 50.0, 1e3]) | st.floats(1e-3, 1e4))
        stop = start + draw(st.integers(0, 19)) * step + draw(st.sampled_from([0.0, step / 3]))
        argv += ["--distances", f"{start!r}:{stop!r}:{step!r}"]
        distances = cli._frange(start, stop, step)
    value = {flag: default for flag, (_, default) in PREDICT_FLAGS.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(PREDICT_FLAGS)), unique=True)):
        text, value[flag] = draw(PREDICT_FLAGS[flag][0])
        argv += [flag, text]
    sui = propcal.SuiParams(terrain=value["--terrain"], shadow_db=value["--sui-shadow"], xh_denominator_m=value["--sui-xh-denom"])
    site = (value["--freq-mhz"], value["--tx-height"], value["--rx-height"])
    kwargs = {"environment": value["--env"], "sui_params": sui, "tx_gain_linear": value["--tx-gain-linear"]}
    return argv, model_ids, distances, lambda mid: propcal.make_model(mid, *site, **kwargs)


@settings(max_examples=150, deadline=None)
@given(case=predict_json_argv())
def test_predict_json_is_the_indent_2_dump_of_each_model_series(case):
    argv, model_ids, distances, bind = case
    try:
        want = {mid: bind(mid).path_loss_series(distances) for mid in model_ids}
    except propcal.DomainError:
        want = None
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if want is None:  # SUI at or below d0, or a loss past the float range
        assert (code, out.getvalue()) == (3, "")
        return
    assert code == 0
    text = out.getvalue()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert list(payload) == ["distances_m", "path_loss_db"]
    assert payload["distances_m"] == distances
    assert list(payload["path_loss_db"]) == list(model_ids)
    assert payload["path_loss_db"] == want


# heights that give tiny coefficients (ericsson's c1 at 1e-302 m, extended_cost231's c2 just above 200 m, sui's c1
# near 619.6 m), a zero one (cost231_hata's c1 at 10**(44.9/6.55) m) or huge ones past the moment route (sui at
# 1e-300 m); SUI shadows that give a c0 of 1e90, inside that route, and of 1e120, outside it
EDGE_HEIGHTS = st.sampled_from([1e-302, 200.0000000001, 619.6, 10 ** (44.9 / 6.55), 1e-300])
EDGE_SHADOWS = st.sampled_from([1e90, 1e120])


@st.composite
def calibrate_cases(draw):
    """`calibrate --all` flags and drive-test CSV text: measured values a few ulps from one model's prediction, flat
    or drawn from the RSS window; distances spread, all one, or a few ulps above SUI's d0 of 100 m; and site and
    model flags that give huge or tiny coefficients."""
    flags = []
    if draw(st.booleans()):
        flags += ["--tx-height", repr(draw(EDGE_HEIGHTS | st.floats(1.0, 300.0)))]
    if draw(st.booleans()):
        flags += ["--sui-shadow", repr(draw(EDGE_SHADOWS | st.floats(0.0, 20.0)))]
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["spread", "spread", "spread", "one_distance", "above_d0"]))
    if kind == "spread":
        distances = [round(10.0 ** draw(st.floats(2.0, 5.0)), 1) for _ in range(n)]
    elif kind == "one_distance":
        distances = [draw(st.floats(101.0, 1e5))] * n
    else:
        distances = [100.0 + draw(st.integers(1, 8)) * math.ulp(100.0) for _ in range(n)]
    kind = draw(st.sampled_from(["window", "window", "flat", "near_zero_residuals", "near_zero_residuals"]))
    rss = st.floats(-150.0, 40.0)
    measured = [draw(rss)] * n if kind == "flat" else [draw(rss) for _ in range(n)]
    if kind == "near_zero_residuals":
        args = cli._build_parser(["calibrate"]).parse_args(["calibrate", "--data", "-", *flags])
        site = cli._load_site(args)
        model = draw(st.sampled_from(cli._bound_models(args, site, propcal.MODEL_IDS)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                predicted = [site.budget_db - loss for loss in model.path_loss_series(distances)]
            except propcal.DomainError:
                predicted = measured
        near = [y + draw(st.integers(-4, 4)) * math.ulp(y) for y in predicted]
        measured = [y if -150.0 <= y <= 40.0 else x for x, y in zip(measured, near)]
    rows = [f"{d!r},{x!r}" for d, x in zip(distances, measured)]
    return flags, "\n".join(["distance_m,rssi_dbm", *rows]) + "\n"


def _r_value(exact_r):
    """r from the r**2 and sign of `exact.r_squared`, above |r| by at most a factor 1 + 2**-64."""
    return exact_r[1] * exact._sqrt_above(exact_r[0])


@settings(max_examples=100, deadline=None)
@given(case=calibrate_cases())
def test_calibrate_agrees_with_scoring_each_column_sample_by_sample(drive_test_path, case):
    flags, text = case
    drive_test_path.write_text(text)
    argv = ["calibrate", "--all", "--data", str(drive_test_path), *flags]
    # what the command gave when it scored each model's RSS column with `calibrate`
    args = cli._build_parser(argv).parse_args(argv)
    site = cli._load_site(args)
    table = parse_drive_test_csv(text)
    measured, distances = table.measured_rss_dbm, table.distances_m
    log_km = _log_km(distances)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            models = cli._bound_models(args, site, propcal.MODEL_IDS)
            columns = {m.model_id: _Floats([site.budget_db - v for v in m._losses(distances, log_km)]) for m in models}
            reference = propcal.calibrate(measured, columns)
        except propcal.PropcalError as exc:
            reference = exc
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as cli_warned, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with mock.patch.object(calibration, "_scored", wraps=calibration._scored) as per_sample:
            code = cli.main(argv)
    assert [str(w.message) for w in cli_warned] == [str(w.message) for w in warned]  # one per sample, in order
    if isinstance(reference, Exception):
        assert (code, out.getvalue(), err.getvalue()) == (3, "", f"{ERROR_PREFIX}{reference}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    payload = json.loads(out.getvalue())
    assert payload.get("notes", []) == list(reference.notes)
    assert list(payload["models"]) == list(reference.models)
    sampled = {call.args[0] for call in per_sample.call_args_list}
    for model in models:
        row, want = payload["models"][model.model_id], reference.models[model.model_id]
        keys = ["cf_db", "mse_before_db2", "mse_after_db2", "pearson_r", "n"]
        got = propcal.ModelCalibration(*(row[key] for key in keys))  # the row passes every check
        if model.model_id in sampled:
            assert got == want
            continue
        # within the moment route's bound of the exact metrics of the exact prediction, and so, through them,
        # within that bound plus the per-sample route's own of what `calibrate` gives
        column = columns[model.model_id]
        exact_y = exact.model_prediction(log_km, model.c0, model.c1, model.c2, site.budget_db)
        bounds = exact.moment_bounds(measured, log_km, model.c0, model.c1, model.c2, site.budget_db)
        metrics = (
            (got.cf_db, want.cf_db, exact.correction_factor, exact.correction_factor_bound),
            (got.mse_before_db2, want.mse_before_db2, exact.mse, exact.mse_bound),
            (got.mse_after_db2, want.mse_after_db2, exact.mse_after, exact.mse_after_bound),
        )
        for (value, sampled_value, metric, sampled_bound), bound in zip(metrics, bounds):
            moment_error = abs(Fraction(value) - metric(measured, exact_y))
            assert moment_error <= bound
            gap = abs(metric(measured, exact_y) - metric(measured, column)) + sampled_bound(measured, column)
            assert abs(Fraction(value) - Fraction(sampled_value)) <= bound + gap
        exact_r, sampled_r = exact.r_squared(measured, exact_y), exact.r_squared(measured, column)
        assert (got.pearson_r is None) == (want.pearson_r is None)
        if got.pearson_r is not None:
            assert exact.r_is_within(got.pearson_r, exact_r, bounds[3])
            gap = abs(_r_value(exact_r) - _r_value(sampled_r)) + 4 * exact.EPS + Fraction(1, 2**60)
            assert abs(Fraction(got.pearson_r) - Fraction(want.pearson_r)) <= bounds[3] + gap


def _in_window(value):
    return min(max(value, -150.0), 40.0)


@st.composite
def compare_cases(draw):
    """`compare` flags and drive-test CSV text with one to four prediction columns, each series spread over the RSS
    window with some values at its edges, flat, a few ulps apart or subnormal, or a column a few ulps from the
    measured values; now and then a cell that is not a number."""
    n = draw(st.integers(1, 10))
    spread = st.floats(-150.0, 40.0) | st.sampled_from([-150.0, -150.0 + math.ulp(150.0), 40.0 - math.ulp(40.0), 40.0])

    def series(measured=None):
        kind = draw(st.sampled_from(["spread", "spread", "flat", "near_flat", "subnormal"] + ["near"] * bool(measured)))
        if kind == "near":
            return [_in_window(x + draw(st.integers(-4, 4)) * math.ulp(x)) for x in measured]
        if kind == "subnormal":
            return [math.ldexp(draw(st.integers(-(2**20), 2**20)), -1074) for _ in range(n)]
        if kind == "spread":
            return [draw(spread) for _ in range(n)]
        level = draw(spread)
        return [_in_window(level + (kind == "near_flat") * draw(st.integers(-4, 4)) * math.ulp(level)) for _ in range(n)]

    measured = series()
    columns = [series(measured) for _ in range(draw(st.integers(1, 4)))]
    rows = [[f"{100.0 * (i + 1)!r}", repr(x), *map(repr, ys)] for i, (x, *ys) in enumerate(zip(measured, *columns))]
    if draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(1, len(columns) + 1))] = "x"
    header = ["distance_m", "rssi_dbm", *(f"pred_m{k}" for k in range(len(columns)))]
    flags = ["--acceptable-mse", repr(draw(st.floats(0.0, 100.0)))] if draw(st.booleans()) else []
    return flags, "\n".join(map(",".join, [header, *rows])) + "\n"


@settings(max_examples=100, deadline=None)
@given(case=compare_cases())
# a column an ulp from the measured values: its corrected MSE is 0.0 from the sums, and above 0 sample by sample
@example(case=(["--acceptable-mse", "0.0"], "distance_m,rssi_dbm,pred_m0,pred_m1\n100.0,0.0,0.0,0.0\n200.0,0.0,0.0,0.0\n"
                                              "300.0,1.0,0.0,1.0000000000000002\n400.0,0.0,0.0,0.0\n"))
def test_compare_agrees_with_calibrate_on_its_columns(drive_test_path, case):
    flags, text = case
    drive_test_path.write_text(text)
    # what the command gave when it scored its columns with `calibrate`
    acceptable = float(flags[1]) if flags else None
    try:
        table = parse_drive_test_csv(text)
        reference = propcal.calibrate(table.measured_rss_dbm, table.predictions, acceptable_mse_db2=acceptable)
    except propcal.PropcalError as exc:
        reference = exc
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(calibration, "_scored", wraps=calibration._scored) as per_sample:
            code = cli.main(["compare", "--data", str(drive_test_path), *flags])
    if isinstance(reference, Exception):
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"{ERROR_PREFIX}{reference}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    payload = json.loads(out.getvalue())
    assert list(payload["models"]) == list(reference.models)
    # the same notes in the same order, but for a threshold note of a model whose two corrected MSEs, each within its
    # route's bound, lie either side of the threshold: the note follows the value reported
    after = {name: row["mse_after_db2"] for name, row in payload["models"].items()}
    split = {name for name, calib in reference.models.items()
             if acceptable is not None and (after[name] > acceptable) != (calib.mse_after_db2 > acceptable)}
    def kept(notes):
        return [note for note in notes if not (note.partition(":")[0] in split and "acceptable threshold" in note)]
    notes = payload.get("notes", [])
    assert kept(notes) == kept(reference.notes)
    assert {note.partition(":")[0] for note in notes if "acceptable threshold" in note} & split == {
        name for name in split if after[name] > acceptable}
    sampled = {call.args[0] for call in per_sample.call_args_list}
    measured = table.measured_rss_dbm
    for name, column in table.predictions.items():
        row, want = payload["models"][name], reference.models[name]
        got = propcal.ModelCalibration(*(row[key] for key in ("cf_db", "mse_before_db2", "mse_after_db2", "pearson_r", "n")))
        assert repr(got.pearson_r) == repr(want.pearson_r)  # the same sums, divided the same way
        if name in sampled:
            assert got == want
            continue
        # within the moment route's bound, for c0 = c2 = 0, c1 = -1 and a budget of 0 over L = the column
        bounds = exact.moment_bounds(measured, column, 0.0, -1.0, 0.0, 0.0)
        for value, metric, bound in zip(
                (got.cf_db, got.mse_before_db2, got.mse_after_db2), (exact.correction_factor, exact.mse, exact.mse_after), bounds):
            assert abs(Fraction(value) - metric(measured, column)) <= bound
