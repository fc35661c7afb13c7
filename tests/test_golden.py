"""CLI outputs on the bundled corpus against goldens recorded from the
per-point model implementation that the log-distance coefficients replaced.

The comparison is numeric: JSON numbers within 1e-9, fixed-point CSV
cells (one to four decimals) within one unit in their last place, and
every other cell (repr floats, integers, names) within 1e-9 or equal.

The outputs under `golden/exact` are compared byte for byte: they pin
the one CSV layout (unquoted cells, LF line ends, a final newline), the
JSON layout (two-space indent, key order, a final newline) and every
digit printed, on every supported Python.  So is the stderr of each of
those commands, in a fresh interpreter: under pytest, an in-process run
records warnings instead of printing them.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import propcal
from propcal.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CORPUS = ("--data", "embedded:reference")

GOLDEN_COMMANDS = {
    "predict_all.csv": ("predict", "--all", "--distances", "200:20000:50"),
    "predict_all.json": ("predict", "--all", "--distances", "200:20000:50", "--format", "json"),
    "predict_all_variants.csv": (
        "predict", "--all", "--distances", "150:9000:37.5",
        "--env", "metro", "--terrain", "C", "--sui-xh-denom", "2000",
        "--sui-shadow", "8.2", "--tx-gain-linear", "2", "--tx-height", "55", "--rx-height", "1.5",
    ),
    "calibrate_all.json": ("calibrate", "--all", *CORPUS),
    "calibrate_all.csv": ("calibrate", "--all", *CORPUS, "--format", "csv"),
    "compare.json": ("compare", *CORPUS),
    "infer_cost231_hata.json": ("infer", "--model", "cost231_hata", *CORPUS),
    "infer_extended_cost231.json": ("infer", "--model", "extended_cost231", *CORPUS),
    "infer_sui.json": ("infer", "--model", "sui", *CORPUS),
    "infer_ericsson.json": ("infer", "--model", "ericsson", *CORPUS),
    "plot_all_rss.csv": ("plot", "--all"),
    "plot_all_pl.csv": ("plot", "--all", "--quantity", "pl"),
}


def _cli_stdout(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _close_json(got, want, path: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _close_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _close_json(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-9), (path, got, want)
    else:
        assert got == want, path


def _cell_tolerance(cell: str) -> float:
    _, dot, decimals = cell.partition(".")
    if dot and decimals.isdigit() and len(decimals) <= 4:
        # one unit in the last printed place, plus float-parse slack
        return 10.0 ** -len(decimals) * (1.0 + 1e-9)
    return 1e-9


def _close_csv(got: str, want: str, name: str) -> None:
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert len(got_rows) == len(want_rows), name
    for line, (g_row, w_row) in enumerate(zip(got_rows, want_rows), start=1):
        assert len(g_row) == len(w_row), (name, line)
        for g, w in zip(g_row, w_row):
            try:
                w_value = float(w)
            except ValueError:
                assert g == w, (name, line)
                continue
            tol = _cell_tolerance(w)
            assert math.isclose(float(g), w_value, rel_tol=0.0, abs_tol=tol), (name, line, g, w)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    got = _cli_stdout(capsys, GOLDEN_COMMANDS[name])
    if name.endswith(".json"):
        _close_json(json.loads(got), json.loads(want), name)
    else:
        _close_csv(got, want, name)



EXACT_DIR = GOLDEN_DIR / "exact"
# a loss that falls 90 dB over a micrometer: its slope height is null, an empty cell
FALLING_LOSS_CSV = "distance_m,rssi_dbm,pred_cost231_hata\n1000,-50,-140\n1000.000001,-100,-50\n"

EXACT_COMMANDS = {
    "predict_all.csv": GOLDEN_COMMANDS["predict_all.csv"],
    "predict_sui_900.csv": ("predict", "--model", "sui", "--distance-m", "900"),
    "calibrate_all.csv": GOLDEN_COMMANDS["calibrate_all.csv"],
    "compare.csv": ("compare", *CORPUS, "--format", "csv"),
    "infer_cost231_hata.csv": ("infer", "--model", "cost231_hata", *CORPUS, "--format", "csv"),
    "infer_cost231_hata_falling.csv": ("infer", "--model", "cost231_hata", "--data", "falling.csv", "--format", "csv"),
    "plot_all_rss.csv": GOLDEN_COMMANDS["plot_all_rss.csv"],
    "plot_all_pl.csv": GOLDEN_COMMANDS["plot_all_pl.csv"],
    "reference_dump.csv": ("reference", "--dump"),
    **{name: argv for name, argv in GOLDEN_COMMANDS.items() if name.endswith(".json")},
    # predict's JSON frame with one model and one distance, and with every site and model flag off its default
    "predict_sui_900.json": ("predict", "--model", "sui", "--distance-m", "900", "--format", "json"),
    "predict_all_variants.json": (*GOLDEN_COMMANDS["predict_all_variants.csv"], "--format", "json"),
    "reference.json": ("reference",),
}


@pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
def test_cli_output_matches_its_exact_golden_byte_for_byte(capsys, tmp_path, monkeypatch, name):
    (tmp_path / "falling.csv").write_text(FALLING_LOSS_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    want = (EXACT_DIR / name).read_bytes()
    assert _cli_stdout(capsys, EXACT_COMMANDS[name]).encode("utf-8") == want


PACKAGE_PARENT = Path(propcal.__file__).resolve().parent.parent
# the one range note of a cost231_hata bind at the reference site's 2530 MHz, as the CLI prints it
FREQ_NOTE = "cost231_hata: freq_mhz=2530 outside documented range 150-2000"
# the exact commands that bind cost231_hata and print FREQ_NOTE, once, on stderr; every other one prints nothing there
WARNING_COMMANDS = {
    "calibrate_all.csv", "calibrate_all.json", "infer_cost231_hata.csv", "infer_cost231_hata.json",
    "infer_cost231_hata_falling.csv", "predict_all.csv", "predict_all.json", "predict_all_variants.json",
}


def _fresh_cli(argv, *options, package_parent=PACKAGE_PARENT, cwd=None, env=None):
    """`main(argv)` run in a fresh interpreter with no site-packages, under `-I` unless `env` is given."""
    script = "import sys; sys.path.insert(0, sys.argv[1]); from propcal.cli import main; raise SystemExit(main(sys.argv[2:]))"
    isolation = ("-S",) if env else ("-I", "-S")
    command = [sys.executable, *isolation, *options, "-c", script, str(package_parent), *argv]
    return subprocess.run(command, capture_output=True, cwd=cwd, env=env, timeout=120)


@pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
def test_exact_command_stderr_in_a_fresh_interpreter_byte_for_byte(tmp_path, name):
    (tmp_path / "falling.csv").write_text(FALLING_LOSS_CSV, encoding="utf-8")
    result = _fresh_cli(EXACT_COMMANDS[name], cwd=tmp_path)
    stderr = f"propcal: warning: {FREQ_NOTE}\n".encode() if name in WARNING_COMMANDS else b""
    assert (result.returncode, result.stderr, result.stdout) == (0, stderr, (EXACT_DIR / name).read_bytes())


def test_a_range_warning_reads_the_same_from_a_copy_of_the_package_elsewhere(tmp_path):
    # the line names no path and no source line, so neither where the package lies nor its line numbers reach it
    elsewhere = tmp_path / "elsewhere"
    shutil.copytree(PACKAGE_PARENT / "propcal", elsewhere / "propcal", ignore=shutil.ignore_patterns("__pycache__"))
    argv = EXACT_COMMANDS["calibrate_all.csv"]
    here, there = _fresh_cli(argv), _fresh_cli(argv, package_parent=elsewhere)
    assert (there.returncode, there.stdout, there.stderr) == (here.returncode, here.stdout, here.stderr)
    assert here.stderr == f"propcal: warning: {FREQ_NOTE}\n".encode()


@pytest.mark.parametrize("how", ["-W error", "PYTHONWARNINGS=error"])
def test_a_range_warning_made_an_error_exits_3_with_one_stderr_line(how):
    argv = GOLDEN_COMMANDS["calibrate_all.json"]
    if how == "-W error":
        result = _fresh_cli(argv, "-W", "error")
    else:
        result = _fresh_cli(argv, env={**os.environ, "PYTHONWARNINGS": "error"})
    assert (result.returncode, result.stdout, result.stderr) == (3, b"", f"propcal: error: {FREQ_NOTE}\n".encode())


# README's "Command line" cases, each one line of stderr (after any range warning) and exit 1, 2 or 3; every command
# runs in a fresh interpreter in a directory that holds the files below, so each path is the one the command names
ERROR_INPUTS = {
    "latin1.csv": b"distance_m,rssi_dbm\n400,-61\xff\n",
    "one_distance.csv": b"distance_m,rssi_dbm,pred_cost231_hata\n1000,-60,-100\n1000,-61,-101\n",
    "long_cell.csv": b"distance_m,rssi_dbm\n400," + b"1" * 131_073 + b"\n",
    "nul.csv": b"distance_m,rssi_dbm\n400,-61\x00\n",
    "int401.json": propcal.site_to_json(propcal.REFERENCE_SITE).replace("2530.0", "9" * 401).encode(),
    "int5001.json": propcal.site_to_json(propcal.REFERENCE_SITE).replace("2530.0", "9" * 5001).encode(),
    "nested.json": b"[" * 200_000 + b"]" * 200_000,
    "big_budget.json": json.dumps(
        {**json.loads(propcal.site_to_json(propcal.REFERENCE_SITE)), "tx_power_dbm": 1e308, "tx_gain_dbi": 1e308}
    ).encode(),
    "clash.csv": b"distance_m,rssi_dbm,pred_x,pred_x_corrected\n500,-60,-62,-70\n900,-70,-71,-80\n",
    "comma.csv": b'distance_m,rssi_dbm,"pred_a,b"\n500,-58,-60\n900,-66,-70\n',
}
_INT_LIMIT = "Exceeds the limit ({}) for integer string conversion: value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"
FREQ_WARNING = f"propcal: warning: {FREQ_NOTE}\n"
# name -> (interpreter options, argv, exit code, stderr); a stderr that differs by Python version is a mapping from
# (major, minor) to it, and a version past the last pinned one reads the last pin
ERROR_COMMANDS = {
    "usage_unknown_flag": ((), ("predict", "--model", "fspl", "--distance-m", "1000", "--bogus"), 1,
                           "propcal: error: unrecognized arguments: --bogus\n"),
    "usage_no_command": ((), (), 1, "propcal: error: the following arguments are required: command\n"),
    "compare_site_override": ((), ("compare", *CORPUS, "--freq-mhz", "5"), 1,
                              "propcal: error: unrecognized arguments: --freq-mhz 5\n"),
    "data_missing": ((), ("compare", "--data", "missing.csv"), 2,
                     "propcal: error: [Errno 2] No such file or directory: 'missing.csv'\n"),
    "data_directory": ((), ("compare", "--data", "adir"), 2, "propcal: error: [Errno 21] Is a directory: 'adir'\n"),
    "data_not_utf8": ((), ("compare", "--data", "latin1.csv"), 2,
                      "propcal: error: latin1.csv: not UTF-8 text: invalid start byte at byte 27\n"),
    "site_missing": ((), ("calibrate", *CORPUS, "--site", "missing.json"), 2,
                     "propcal: error: [Errno 2] No such file or directory: 'missing.json'\n"),
    "site_directory": ((), ("calibrate", *CORPUS, "--site", "adir"), 2, "propcal: error: [Errno 21] Is a directory: 'adir'\n"),
    "site_not_utf8": ((), ("calibrate", *CORPUS, "--site", "latin1.csv"), 2,
                      "propcal: error: latin1.csv: not UTF-8 text: invalid start byte at byte 27\n"),
    "out_directory": ((), ("compare", *CORPUS, "--out", "adir"), 2, "propcal: error: [Errno 21] Is a directory: 'adir'\n"),
    "out_in_a_missing_directory": ((), ("compare", *CORPUS, "--out", "missing/x.json"), 2,
                                   "propcal: error: [Errno 2] No such file or directory: 'missing/x.json'\n"),
    "out_empty": ((), ("predict", "--model", "fspl", "--distance-m", "1", "--out", ""), 2,
                  "propcal: error: [Errno 2] No such file or directory: ''\n"),
    "grid_axis_twice": ((), ("infer", "--model", "cost231_hata", *CORPUS, "--grid", "tx_height_m=10,20", "--grid", "tx_height_m=30"), 1,
                        "propcal: error: argument --grid: axis 'tx_height_m' is given more than once\n"),
    "grid_unknown_key": ((), ("infer", "--model", "cost231_hata", *CORPUS, "--grid", "downtilt=1"), 3,
                         "propcal: error: unknown model parameters: ['downtilt']\n"),
    "grid_unknown_terrain": ((), ("infer", "--model", "sui", *CORPUS, "--grid", "terrain=D"), 3,
                             "propcal: error: unknown terrain 'D'\n"),
    "grid_unknown_environment": ((), ("infer", "--model", "cost231_hata", *CORPUS, "--grid", "environment=metro"), 3,
                                 "propcal: error: unknown environment 'metro'\n"),
    "grid_not_a_number": ((), ("infer", "--model", "cost231_hata", *CORPUS, "--grid", "tx_height_m=abc"), 3,
                          "propcal: error: model parameter tx_height_m must be finite, got 'abc'\n"),
    "grid_not_finite": ((), ("infer", "--model", "sui", *CORPUS, "--grid", "tx_gain_linear=inf"), 3,
                        "propcal: error: model parameter tx_gain_linear must be finite, got inf\n"),
    "infer_no_point_scored": ((), ("infer", "--model", "sui", *CORPUS, "--grid", "sui_d0_m=5000"), 3,
                              "propcal: error: no sui grid point can be scored; the first fails:"
                              " sui_path_loss requires distance_m > d0 (5000 m), got 4200 m\n"),
    "infer_no_point_scored_overflow": ((), ("infer", "--model", "sui", *CORPUS, "--sui-shadow", "1e200", "--grid", "terrain=B"), 3,
                                       "propcal: error: no sui grid point can be scored; the first fails:"
                                       " sui series: a sum over its values overflows the float range\n"),
    "infer_one_distance": ((), ("infer", "--model", "cost231_hata", "--data", "one_distance.csv"), 3,
                           "propcal: error: decade slope undefined: every sample lies at the same distance\n"),
    "data_field_limit": ((), ("compare", "--data", "long_cell.csv"), 2,
                         "propcal: error: line 2: field larger than field limit (131072)\n"),
    "data_nul_byte": ((), ("compare", "--data", "nul.csv"), 2, {
        (3, 10): "propcal: error: line 2: line contains NUL\n",
        (3, 11): "propcal: error: row 1, column rssi_dbm: not a number: '-61\\x00'\n",
        (3, 12): "propcal: error: row 1, column rssi_dbm: not a number: '-61\\x00'\n",
        (3, 13): "propcal: error: row 1, column rssi_dbm: not a number: '-61\\x00'\n",
    }),
    "site_integer_too_large": ((), ("calibrate", *CORPUS, "--site", "int401.json"), 2,
                               "propcal: error: site field freq_mhz must fit a float, got an integer too large for one\n"),
    "site_integer_past_the_digit_limit": ((), ("calibrate", *CORPUS, "--site", "int5001.json"), 2, {
        (3, 10): f"propcal: error: invalid site JSON: {_INT_LIMIT.format('4300')}\n",
        (3, 11): f"propcal: error: invalid site JSON: {_INT_LIMIT.format('4300 digits')}\n",
        (3, 12): f"propcal: error: invalid site JSON: {_INT_LIMIT.format('4300 digits')}\n",
        (3, 13): f"propcal: error: invalid site JSON: {_INT_LIMIT.format('4300 digits')}\n",
    }),
    "site_nested_too_deeply": ((), ("calibrate", *CORPUS, "--site", "nested.json"), 2,
                               "propcal: error: invalid site JSON: maximum recursion depth exceeded"
                               " while decoding a JSON array from a unicode string\n"),
    "site_budget_overflow": ((), ("plot", "--quantity", "pl", "--site", "big_budget.json"), 3,
                             "propcal: error: budget_db must be finite, got inf\n"),
    "coefficients_not_finite": ((), ("predict", "--model", "sui", "--distance-m", "500", "--freq-mhz", "1e308"), 3,
                                "propcal: error: sui: the parameters give a non-finite path-loss coefficient\n"),
    "residual_sums_overflow": ((), ("calibrate", *CORPUS, "--model", "sui", "--sui-shadow", "4e306"), 3,
                               "propcal: error: predicted 'sui' series: a sum over its values overflows the float range\n"),
    "path_loss_overflow": ((), ("predict", "--all", "--distance-m", "1e308", "--tx-height", "1e308"), 3,
                           FREQ_WARNING + "propcal: warning: cost231_hata: tx_height_m=1e+308 outside documented range 10-200\n"
                           "propcal: error: sui: path loss at 1e+308 m is not finite (-inf)\n"),
    "plot_corrected_column_clash": ((), ("plot", "--data", "clash.csv"), 2,
                                    "propcal: error: column pred_x_corrected clashes with x_corrected, the corrected series of x\n"),
    "column_name_with_a_comma": ((), ("compare", "--data", "comma.csv"), 2,
                                 "propcal: error: prediction column 'a,b': a name may not hold a comma, a quote or a line break\n"),
    "range_warning_made_an_error": (("-W", "error"), ("calibrate", "--all", *CORPUS), 3, f"propcal: error: {FREQ_NOTE}\n"),
}


@pytest.mark.parametrize("name", sorted(ERROR_COMMANDS))
def test_an_error_command_exits_with_its_code_and_stderr_byte_for_byte(tmp_path, name):
    for file_name, content in ERROR_INPUTS.items():
        (tmp_path / file_name).write_bytes(content)
    (tmp_path / "adir").mkdir()
    options, argv, code, stderr = ERROR_COMMANDS[name]
    if isinstance(stderr, dict):
        stderr = stderr[min(sys.version_info[:2], max(stderr))]
    result = _fresh_cli(argv, *options, cwd=tmp_path)
    assert (result.returncode, result.stderr, result.stdout) == (code, stderr.encode(), b"")
