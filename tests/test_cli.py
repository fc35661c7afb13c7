"""CLI behavior: exit codes, output formats, aliases, and determinism."""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import propcal

from propcal import (
    PUBLISHED_CALIBRATION,
    REFERENCE_SITE,
    parse_drive_test_csv,
    reference_dataset,
    site_to_json,
)
from propcal import cli

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


def test_site_file_matches_alias(run_cli, tmp_path):
    path = tmp_path / "site.json"
    path.write_text(site_to_json(REFERENCE_SITE))
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


def test_infer_slope_past_the_float_range_exits_3(run_cli, tmp_path):
    # the loss falls 90 dB over a micrometer, so the implied height overflows
    data = tmp_path / "falling.csv"
    data.write_text("distance_m,rssi_dbm,pred_cost231_hata\n1000,-50,-140\n1000.000001,-100,-50\n")
    code, out, err = run_cli("infer", "--model", "cost231_hata", "--data", str(data))
    assert (code, out) == (3, "")
    assert err.startswith(f"{ERROR_PREFIX}slope -2.07") and err.endswith("implies a transmit height outside the float range\n")


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


def test_infer_missing_column_exits_2(run_cli):
    code, _, err = run_cli("infer", "--model", "fspl", "--data", "embedded:reference")
    assert code == 2
    assert "no prediction column" in err


def test_help_exits_zero(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "predict" in out and "compare" in out


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


@pytest.mark.parametrize("case", ["undecodable_data", "undecodable_site", "out_is_a_directory", "out_in_a_missing_directory"])
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
