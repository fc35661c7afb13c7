"""CLI behavior: exit codes, output formats, aliases, and determinism."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
        ("tx_height_m=abc", "cost231_hata", "model parameter tx_height_m: not a number: 'abc'"),
        ("terrain=5", "sui", "unknown terrain 5.0"),
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
