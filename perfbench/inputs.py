"""Seeded inputs and command cycles for the four workloads.

Each workload is a cycle of CLI commands that one client runs back to
back.  Drive-test files are generated here, before any timing, from the
closed forms in `oracle`; the same seed gives the same bytes.  `build`
returns the plan the worker runs plus what the checks need to know
(injected offsets, hidden parameters), which the program never sees.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import oracle

WORKLOADS = ("survey_100k", "sweep_predict", "infer_grid", "corpus_loop")

SURVEY_ROWS = 100_000
SURVEY_SIGMA_DB = 6.0
SURVEY_DISTANCE_M = (200.0, 5000.0)

SWEEP_START_M = 200
SWEEP_POINTS = 50_000

INFER_ROWS = 300
INFER_DISTANCE_M = (200.0, 3000.0)
# A wrong grid point whose noise-free curve is at least this far (RMS)
# from the hidden one cannot beat it once values are rounded to 0.01 dB.
INFER_MIN_RMS_GAP_DB = 0.02

RSS_WINDOW_DBM = (-150.0, 40.0)

# The CLI's default `infer` grids: transmit heights 10..100 m in 0.5 m
# steps for the Hata models and 1 m steps otherwise.
_FINE_HEIGHTS = [10.0 + 0.5 * i for i in range(181)]
_COARSE_HEIGHTS = [10.0 + 1.0 * i for i in range(91)]
DEFAULT_GRIDS = {
    "cost231_hata": {"tx_height_m": _FINE_HEIGHTS, "environment": ["medium_suburban", "metropolitan"]},
    "extended_cost231": {"tx_height_m": _FINE_HEIGHTS},
    "sui": {"tx_height_m": _COARSE_HEIGHTS, "terrain": ["A", "B", "C"], "xh_denominator_m": [2.0, 2000.0]},
    "ericsson": {"tx_height_m": _COARSE_HEIGHTS},
}

# Correction factors published with the bundled corpus.
PUBLISHED_CF_DB = {
    "cost231_hata": 12.5301,
    "extended_cost231": 7.8451,
    "sui": -22.3657,
    "ericsson": 17.2884,
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _truncated_gauss(rng: random.Random, sigma: float, limit: float = 5.0) -> float:
    while True:
        z = rng.gauss(0.0, 1.0)
        if abs(z) <= limit:
            return sigma * z


def _rss(loss_db: float) -> float:
    value = round(oracle.BUDGET_DB - loss_db, 2)
    lo, hi = RSS_WINDOW_DBM
    if not lo <= value <= hi:
        raise ValueError(f"generated RSS {value} dBm is outside the accepted window")
    return value


def _write(path: Path, lines: list[str]) -> str:
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def survey_csv(seed: int, path: Path, rows: int = SURVEY_ROWS) -> dict:
    """Drive test whose measurements follow one model plus offset and shadowing."""
    rng = _rng("survey_100k", seed)
    truth = rng.choice(oracle.PRED_MODELS)
    offset_db = round(rng.uniform(-8.0, 8.0), 2)
    lines = ["distance_m,rssi_dbm," + ",".join(f"pred_{m}" for m in oracle.PRED_MODELS)]
    for _ in range(rows):
        d = round(_log_uniform(rng, *SURVEY_DISTANCE_M), 1)
        losses = {m: oracle.path_loss(m, d) for m in oracle.PRED_MODELS}
        measured = _rss(losses[truth] - offset_db - _truncated_gauss(rng, SURVEY_SIGMA_DB))
        cells = [f"{d:.1f}", f"{measured:.2f}"] + [f"{_rss(losses[m]):.2f}" for m in oracle.PRED_MODELS]
        lines.append(",".join(cells))
    digest = _write(path, lines)
    return {"truth": truth, "offset_db": offset_db, "sigma_db": SURVEY_SIGMA_DB, "rows": rows, "sha256": digest}


def _grid_points(model_id: str) -> list[dict]:
    grid = DEFAULT_GRIDS[model_id]
    points = [{}]
    for name, axis in grid.items():
        points = [dict(p, **{name: v}) for p in points for v in axis]
    return points


def _curve(model_id: str, params: dict, distances: list[float]) -> list[float]:
    return [oracle.path_loss(model_id, d, **params) for d in distances]


def _separated(model_id: str, hidden: dict, distances: list[float]) -> bool:
    """True when every other default-grid point is far from the hidden curve."""
    target = _curve(model_id, hidden, distances)
    for params in _grid_points(model_id):
        if params == hidden:
            continue
        gap = math.fsum((a - b) ** 2 for a, b in zip(_curve(model_id, params, distances), target))
        if math.sqrt(gap / len(distances)) < INFER_MIN_RMS_GAP_DB:
            return False
    return True


def infer_csv(seed: int, path: Path, rows: int = INFER_ROWS) -> dict:
    """Drive test whose pred_ columns are noise-free curves from hidden grid points."""
    rng = _rng("infer_grid", seed)
    distances = sorted(float(round(_log_uniform(rng, *INFER_DISTANCE_M))) for _ in range(rows))
    hidden: dict[str, dict] = {}
    for model_id in oracle.PRED_MODELS:
        while True:
            params = {name: rng.choice(axis) for name, axis in DEFAULT_GRIDS[model_id].items()}
            if _separated(model_id, params, distances):
                break
        hidden[model_id] = params
    columns = {m: [_rss(x) for x in _curve(m, hidden[m], distances)] for m in oracle.PRED_MODELS}
    lines = ["distance_m,rssi_dbm," + ",".join(f"pred_{m}" for m in oracle.PRED_MODELS)]
    for i, d in enumerate(distances):
        measured = round(columns["extended_cost231"][i] + _truncated_gauss(rng, 3.0), 2)
        cells = [f"{d:.0f}", f"{measured:.2f}"] + [f"{columns[m][i]:.2f}" for m in oracle.PRED_MODELS]
        lines.append(",".join(cells))
    digest = _write(path, lines)
    return {"hidden": hidden, "rows": rows, "sha256": digest}


def _command(kind: str, argv: list[str], units: int) -> dict:
    return {"kind": kind, "argv": argv, "units": units}


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Generate the inputs of one workload under `workdir` and return its plan.

    File arguments in the commands are as given by `workdir`, so a
    relative `workdir` keeps the plan independent of where the checkout is.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "survey_100k":
        data = workdir / "survey.csv"
        meta = survey_csv(seed, data)
        cycle = [
            _command("calibrate", ["calibrate", "--all", "--data", str(data)], meta["rows"]),
            _command("compare", ["compare", "--data", str(data)], meta["rows"]),
        ]
        unit = "rows"
    elif workload == "sweep_predict":
        stop = SWEEP_START_M + SWEEP_POINTS - 1
        spec = f"{SWEEP_START_M}:{stop}:1"
        evals = SWEEP_POINTS * len(oracle.MODEL_IDS)
        cycle = [
            _command("predict_csv", ["predict", "--all", "--distances", spec, "--format", "csv"], evals),
            _command("predict_json", ["predict", "--all", "--distances", spec, "--format", "json"], evals),
        ]
        meta = {"start_m": SWEEP_START_M, "points": SWEEP_POINTS}
        unit = "evals"
    elif workload == "infer_grid":
        data = workdir / "infer.csv"
        meta = infer_csv(seed, data)
        cycle = [
            _command(f"infer_{m}", ["infer", "--model", m, "--data", str(data)], len(_grid_points(m)))
            for m in oracle.PRED_MODELS
        ]
        unit = "grid_points"
    elif workload == "corpus_loop":
        corpus = ["--data", "embedded:reference"]
        cycle = [
            _command("compare", ["compare", *corpus], 1),
            _command("calibrate", ["calibrate", "--all", *corpus], 1),
            _command("plot", ["plot", "--all", "--quantity", "pl"], 1),
            _command("reference", ["reference", "--dump"], 1),
            _command("predict_one", ["predict", "--model", "sui", "--distance-m", "900"], 1),
        ]
        meta = {}
        unit = "commands"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The seed also sets where in its cycle the client starts.
    start = _rng(workload + ":order", seed).randrange(len(cycle))
    cycle = cycle[start:] + cycle[:start]
    return {"workload": workload, "seed": seed, "cycle": cycle, "unit": unit, "meta": meta}
