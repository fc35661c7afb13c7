"""Output checks: each returns None for a right answer or a reason it is wrong.

The expected values come from `oracle` and from what `inputs` injected,
never from propcal itself.  `Checker` also holds the first digest of
each command kind, so a repeated command must print the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math

import inputs
import oracle

# Tolerances: a printed CSV value carries 4 decimals; the identity
# mse_after = mse_before - cf^2 is exact up to float rounding; the
# corpus correction factors use the acceptance tests' tolerance.
VALUE_TOL_DB = 0.01
IDENTITY_REL_TOL = 1e-9
PUBLISHED_CF_TOL_DB = 0.002
CF_STANDARD_ERRORS = 5.0
# Probed indices into the sweep: 200 m, 1 km, 10 km, and the last point.
SWEEP_PROBES = (0, 800, 9800)
# Noise-free pred_ columns are rounded to 0.01 dB, so the true grid
# point fits to within half a step.
INFER_MAX_FIT_MSE_DB2 = 0.005**2
_CLI_PARAM_NAMES = {"xh_denominator_m": "sui_xh_denominator_m"}
# `calibrate --all` on the bundled corpus: each model's mean of measured
# minus predicted RSS over the 45 rows, from `oracle`'s closed forms and
# BUDGET_DB (the tests recompute them).  Only float rounding may differ.
CORPUS_CALIBRATE_CF_DB = {
    "fspl": -28.6746860591497,
    "cost231_hata": 9.06630677181093,
    "extended_cost231": 12.889303247423301,
    "sui": -6.1578277617526735,
    "ericsson": -22.805422592428112,
}
CORPUS_CALIBRATE_CF_TOL_DB = 1e-6


def _report(out: str, model_ids) -> dict:
    report = json.loads(out)
    if sorted(report["models"]) != sorted(model_ids):
        raise AssertionError(f"report models {sorted(report['models'])} != {sorted(model_ids)}")
    for model_id, row in report["models"].items():
        identity = row["mse_before_db2"] - row["cf_db"] ** 2
        if abs(row["mse_after_db2"] - identity) > IDENTITY_REL_TOL * row["mse_before_db2"]:
            raise AssertionError(f"{model_id}: mse_after {row['mse_after_db2']!r} != mse_before - cf^2 {identity!r}")
    return report


def survey_report(out: str, meta: dict, model_ids) -> None:
    report = _report(out, model_ids)
    truth = meta["truth"]
    if report["best_model"] != truth:
        raise AssertionError(f"best_model {report['best_model']!r}, generating model {truth!r}")
    cf = report["models"][truth]["cf_db"]
    tol = CF_STANDARD_ERRORS * meta["sigma_db"] / math.sqrt(meta["rows"]) + 0.005
    if abs(cf - meta["offset_db"]) > tol:
        raise AssertionError(f"{truth}: cf {cf!r} dB, injected offset {meta['offset_db']} dB (tol {tol:.4f})")


def _probe(model_id: str, distance_m: float, value: float) -> None:
    expected = oracle.path_loss(model_id, distance_m)
    if abs(value - expected) > VALUE_TOL_DB:
        raise AssertionError(f"{model_id} at {distance_m:g} m: {value!r} dB, expected {expected:.4f}")


def _sweep_probes(meta: dict) -> list[int]:
    return [i for i in SWEEP_PROBES if i < meta["points"]] + [meta["points"] - 1]


def sweep_csv(out: str, meta: dict) -> None:
    lines = out.splitlines()
    header = "distance_m," + ",".join(f"pl_{m}" for m in oracle.MODEL_IDS)
    if lines[0] != header or len(lines) != meta["points"] + 1:
        raise AssertionError(f"header {lines[0]!r} and {len(lines) - 1} rows")
    for i in _sweep_probes(meta):
        cells = lines[i + 1].split(",")
        d = float(cells[0])
        if d != meta["start_m"] + i:
            raise AssertionError(f"row {i + 1}: distance {d!r}")
        for model_id, cell in zip(oracle.MODEL_IDS, cells[1:]):
            _probe(model_id, d, float(cell))


def sweep_json(out: str, meta: dict) -> None:
    payload = json.loads(out)
    distances = payload["distances_m"]
    columns = payload["path_loss_db"]
    if len(distances) != meta["points"] or list(columns) != list(oracle.MODEL_IDS):
        raise AssertionError(f"{len(distances)} distances, columns {list(columns)}")
    for i in _sweep_probes(meta):
        if distances[i] != meta["start_m"] + i:
            raise AssertionError(f"distance {i}: {distances[i]!r}")
        for model_id in oracle.MODEL_IDS:
            _probe(model_id, distances[i], columns[model_id][i])


def infer(out: str, meta: dict, model_id: str) -> None:
    payload = json.loads(out)
    hidden = meta["hidden"][model_id]
    for name, value in hidden.items():
        got = payload["params"].get(_CLI_PARAM_NAMES.get(name, name))
        if got != value:
            raise AssertionError(f"{model_id}: recovered {name}={got!r}, hidden {value!r}")
    if not payload["fit_mse_db2"] <= INFER_MAX_FIT_MSE_DB2:
        raise AssertionError(f"{model_id}: fit mse {payload['fit_mse_db2']!r} at the hidden point")


def corpus_compare(out: str) -> None:
    report = _report(out, oracle.PRED_MODELS)
    for model_id, published in inputs.PUBLISHED_CF_DB.items():
        cf = report["models"][model_id]["cf_db"]
        if abs(cf - published) > PUBLISHED_CF_TOL_DB:
            raise AssertionError(f"{model_id}: cf {cf!r} dB, published {published}")
    if report["best_model"] != "extended_cost231":
        raise AssertionError(f"best_model {report['best_model']!r}")


def corpus_calibrate(out: str) -> None:
    report = _report(out, oracle.MODEL_IDS)
    for model_id, expected in CORPUS_CALIBRATE_CF_DB.items():
        cf = report["models"][model_id]["cf_db"]
        if abs(cf - expected) > CORPUS_CALIBRATE_CF_TOL_DB:
            raise AssertionError(f"{model_id}: cf {cf!r} dB, closed forms give {expected!r}")


def corpus_plot(out: str) -> None:
    lines = out.splitlines()
    names = ["cost231_hata", "extended_cost231", "sui", "ericsson", "fspl"]
    header = ",".join(["distance_m", "measured_pl_db"] + names + [f"{n}_corrected" for n in names])
    if lines[0] != header or len(lines) != 46:
        raise AssertionError(f"header {lines[0]!r} and {len(lines) - 1} rows")
    # The nearest sample: 400 m at -61 dBm, so 63.8 + 61 dB of path loss.
    if not lines[1].startswith("400,124.80,"):
        raise AssertionError(f"first row {lines[1]!r}")


def corpus_dump(out: str) -> None:
    lines = out.splitlines()
    header = "distance_m,rssi_dbm," + ",".join(f"pred_{m}" for m in oracle.PRED_MODELS)
    if lines[0] != header or len(lines) != 46 or lines[1] != "4200,-73,-97.94,-91.87,-66.86,-100.58":
        raise AssertionError(f"header {lines[0]!r}, {len(lines) - 1} rows, first {lines[1]!r}")


def predict_one(out: str) -> None:
    lines = out.splitlines()
    if lines[0] != "distance_m,pl_sui" or len(lines) != 2:
        raise AssertionError(f"output {out!r}")
    d, value = lines[1].split(",")
    if d != "900":
        raise AssertionError(f"distance {d!r}")
    _probe("sui", 900.0, float(value))


def check_output(kind: str, out: str, meta: dict, workload: str) -> None:
    """Raise AssertionError (or a parse error) when `out` is wrong for `kind`."""
    if workload == "survey_100k":
        survey_report(out, meta, oracle.MODEL_IDS if kind == "calibrate" else oracle.PRED_MODELS)
    elif kind == "predict_csv":
        sweep_csv(out, meta)
    elif kind == "predict_json":
        sweep_json(out, meta)
    elif kind.startswith("infer_"):
        infer(out, meta, kind[len("infer_"):])
    elif kind == "compare":
        corpus_compare(out)
    elif kind == "calibrate":
        corpus_calibrate(out)
    elif kind == "plot":
        corpus_plot(out)
    elif kind == "reference":
        corpus_dump(out)
    elif kind == "predict_one":
        predict_one(out)
    else:
        raise AssertionError(f"no check for command kind {kind!r}")


class Checker:
    """Checks each command's output; repeats must match the first digest."""

    def __init__(self, workload: str, meta: dict) -> None:
        self.workload = workload
        self.meta = meta
        self.digests: dict[str, str] = {}

    def __call__(self, kind: str, code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"{kind}: exit code {code}: {err.strip()[-300:]}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        first = self.digests.get(kind)
        if first is not None:
            return None if digest == first else f"{kind}: output digest {digest} differs from the first run's {first}"
        try:
            check_output(kind, out, self.meta, self.workload)
        except (AssertionError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{kind}: {type(exc).__name__}: {exc}"
        self.digests[kind] = digest
        return None
