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
