"""CLI outputs on the bundled corpus against goldens recorded from the
per-point model implementation that the log-distance coefficients replaced.

The comparison is numeric: JSON numbers within 1e-9, fixed-point CSV
cells (one to four decimals) within one unit in their last place, and
every other cell (repr floats, integers, names) within 1e-9 or equal.
"""

import json
import math
from pathlib import Path

import pytest

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

