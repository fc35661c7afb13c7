"""Model calibration against drive-test data.

The workflow: compute residuals between measured and predicted RSS, take
their mean as a constant correction factor, score each model before and
after applying it (MSE and Pearson r), and rank the corrected models.
A constant offset is the whole method; the correction factor is the
MSE-minimizing constant, and mse_after = mse_before - cf^2 exactly.

All correction factors are computed and applied in RSS space, so a
positive cf means the model over-predicts path loss.  The equivalent
path-loss form is loss - cf.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dataset import PUBLISHED_CALIBRATION
from .errors import DataError, DomainError
from .models import MODEL_IDS, _model_arguments, model_from_params

SELECTION_RULE = "lowest after-correction mse_db2; ties: highest pearson_r, then model id"

# How far a recomputed metric may lie from its published value before
# `published_divergence_notes` reports it
_CF_TOL_DB = 0.002
_MSE_TOL_DB2 = 0.05
_R_TOL = 0.0005


@dataclass(frozen=True)
class ModelMetrics:
    """Accuracy of one prediction series against the measurements."""

    mse_db2: float
    rmse_db: float
    pearson_r: float | None
    n: int


@dataclass(frozen=True)
class ModelCalibration:
    """Correction factor plus metrics before and after applying it."""

    cf_db: float
    before: ModelMetrics
    after: ModelMetrics


@dataclass(frozen=True)
class CalibrationReport:
    """Per-model calibrations, the winning model, and the rule used."""

    models: Mapping[str, ModelCalibration]
    best_model: str
    selection_rule: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        payload: dict[str, object] = {
            "models": {
                model_id: {
                    "cf_db": calib.cf_db,
                    "mse_before_db2": calib.before.mse_db2,
                    "mse_after_db2": calib.after.mse_db2,
                    "rmse_before_db": calib.before.rmse_db,
                    "rmse_after_db": calib.after.rmse_db,
                    "pearson_r": calib.before.pearson_r,
                    "n": calib.before.n,
                }
                for model_id, calib in self.models.items()
            },
            "best_model": self.best_model,
            "selection_rule": self.selection_rule,
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return json.dumps(payload, indent=2) + "\n"


def _aligned(measured: Sequence[float], predicted: Sequence[float]) -> tuple[list[float], list[float]]:
    x = [float(v) for v in measured]
    y = [float(v) for v in predicted]
    if len(x) != len(y):
        raise DataError(f"series are misaligned: {len(x)} measured vs {len(y)} predicted")
    if not x:
        raise DataError("series are empty")
    return x, y


def residuals(measured: Sequence[float], predicted: Sequence[float]) -> list[float]:
    """Per-sample measured - predicted, in input order (dB)."""
    x, y = _aligned(measured, predicted)
    return [xi - yi for xi, yi in zip(x, y)]


def correction_factor(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean residual in dB: the constant that minimizes corrected MSE."""
    r = residuals(measured, predicted)
    return math.fsum(r) / len(r)


def mse(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error between the series, in dB^2."""
    x, y = _aligned(measured, predicted)
    return math.fsum((yi - xi) ** 2 for xi, yi in zip(x, y)) / len(x)


def pearson_r(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Pearson product-moment correlation, mean-centered form.

    Requires at least two samples and nonzero variance in both series.
    Invariant under positive affine transforms of either series.
    """
    x, y = _aligned(measured, predicted)
    n = len(x)
    if n < 2:
        raise DomainError(f"pearson_r requires at least 2 samples, got {n}")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [xi - mean_x for xi in x]
    dy = [yi - mean_y for yi in y]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise DomainError("pearson_r is undefined for a zero-variance series")
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    # the split root serves only when the product underflows to zero
    return sxy / (math.sqrt(sxx * syy) or math.sqrt(sxx) * math.sqrt(syy))


def _finite_series(name: str, values: Sequence[float]) -> list[float]:
    """The series as floats; a NaN or infinity is a DataError naming its place."""
    series = list(map(float, values))
    if not math.isfinite(sum(series)):
        for i, v in enumerate(series, start=1):
            if not math.isfinite(v):
                raise DataError(f"{name} series, value {i}: not a finite number ({v!r})")
    return series


def calibrate(
    measured: Sequence[float],
    predictions: Mapping[str, Sequence[float]],
    *,
    acceptable_mse_db2: float | None = None,
) -> CalibrationReport:
    """Calibrate every prediction series and rank the corrected models.

    Ranking: lowest after-correction MSE, ties broken by highest r, then
    by model id.  Where r is undefined (fewer than two samples, or a
    zero-variance series) it is reported as None, ranks below any r,
    and a note names the model and the reason; cf and both MSEs are
    still reported.  `acceptable_mse_db2`, when given, adds an advisory
    note for each model whose corrected MSE still exceeds it.  Values so
    large that a sum over a series overflows raise `DomainError`.

    Each series is scored in one pass with the same arithmetic as
    `correction_factor`, `mse` and `pearson_r`, and the measured series
    is centred once for all models.
    """
    if not predictions:
        raise DataError("calibrate needs at least one prediction series")
    x = _finite_series("measured", measured)
    n = len(x)
    # An empty series is rejected per model below, in the order the
    # reference functions check it.
    try:
        mean_x = math.fsum(x) / n if n else 0.0
        dx = list(map(operator.sub, x, itertools.repeat(mean_x)))
        sxx = math.fsum(map(operator.mul, dx, dx))
    except OverflowError:
        raise _overflow_error("measured") from None
    models: dict[str, ModelCalibration] = {}
    notes: list[str] = []
    for model_id, predicted in predictions.items():
        y = _finite_series(f"predicted {model_id!r}", predicted)
        if len(y) != n:
            raise DataError(f"series are misaligned: {n} measured vs {len(y)} predicted")
        if not n:
            raise DataError("series are empty")
        try:
            residual = list(map(operator.sub, x, y))
            cf = math.fsum(residual) / n
            error = math.fsum(map(operator.mul, residual, residual)) / n
            # r is invariant under the constant shift, so one value serves both
            r: float | None
            try:
                r = _pearson_centred(dx, sxx, y)
            except DomainError as exc:
                r = None
                notes.append(f"{model_id}: {exc}; reported as null")
            shifted = list(map(operator.sub, map(operator.add, y, itertools.repeat(cf)), x))
            error_after = math.fsum(map(operator.mul, shifted, shifted)) / n
        except OverflowError:
            raise _overflow_error(f"predicted {model_id!r}") from None
        calib = ModelCalibration(
            cf,
            ModelMetrics(error, math.sqrt(error), r, n),
            ModelMetrics(error_after, math.sqrt(error_after), r, n),
        )
        models[model_id] = calib
        if acceptable_mse_db2 is not None and calib.after.mse_db2 > acceptable_mse_db2:
            notes.append(
                f"{model_id}: corrected mse {calib.after.mse_db2:.4f} dB^2 exceeds "
                f"the acceptable threshold {acceptable_mse_db2:g} dB^2"
            )

    def rank(model_id: str) -> tuple[float, float, str]:
        after = models[model_id].after
        return (after.mse_db2, math.inf if after.pearson_r is None else -after.pearson_r, model_id)

    return CalibrationReport(models, min(models, key=rank), SELECTION_RULE, tuple(notes))


def _overflow_error(name: str) -> DomainError:
    return DomainError(f"{name} series: a sum over its values overflows the float range")


def _pearson_centred(dx: list[float], sxx: float, y: list[float]) -> float:
    """`pearson_r` against a measured series already centred as `dx`."""
    n = len(y)
    if n < 2:
        raise DomainError(f"pearson_r requires at least 2 samples, got {n}")
    if sxx == 0.0:
        raise DomainError("pearson_r is undefined for a zero-variance measured series")
    mean_y = math.fsum(y) / n
    dy = list(map(operator.sub, y, itertools.repeat(mean_y)))
    syy = math.fsum(map(operator.mul, dy, dy))
    if syy == 0.0:
        raise DomainError("pearson_r is undefined for a zero-variance predicted series")
    return math.fsum(map(operator.mul, dx, dy)) / (math.sqrt(sxx * syy) or math.sqrt(sxx) * math.sqrt(syy))


def published_divergence_notes(
    report: CalibrationReport,
    published: Mapping[str, Mapping[str, float]] = PUBLISHED_CALIBRATION,
) -> tuple[str, ...]:
    """Compare a recomputed report against published reference metrics.

    Returns one note per metric that disagrees beyond its tolerance.
    When a published after-correction row is internally inconsistent
    (its before-MSE and cf do not satisfy mse_after = mse_before - cf^2
    but the identity value matches the other after cell), the note says
    the two printed cells appear transposed instead of flagging the
    recomputation as wrong.
    """
    notes: list[str] = []
    for model_id, pub in published.items():
        calib = report.models.get(model_id)
        if calib is None:
            continue
        if abs(calib.cf_db - pub["cf_db"]) > _CF_TOL_DB:
            notes.append(
                f"{model_id}: computed cf {calib.cf_db:.4f} dB differs from "
                f"published {pub['cf_db']:g} dB"
            )
        if abs(calib.before.mse_db2 - pub["mse_before_db2"]) > _MSE_TOL_DB2:
            notes.append(
                f"{model_id}: computed before-correction mse {calib.before.mse_db2:.4f} dB^2 "
                f"differs from published {pub['mse_before_db2']:g} dB^2"
            )
        r = calib.before.pearson_r
        if r is not None and abs(r - pub["pearson_r"]) > _R_TOL:
            notes.append(
                f"{model_id}: computed pearson r {r:.4f} differs from "
                f"published {pub['pearson_r']:g}"
            )
        if abs(calib.after.mse_db2 - pub["mse_after_db2"]) > _MSE_TOL_DB2:
            identity = pub["mse_before_db2"] - pub["cf_db"] ** 2
            cf_after = pub.get("cf_after_db", pub["cf_db"])
            if abs(identity - cf_after) <= 0.005:
                notes.append(
                    f"{model_id}: published after-correction cells are internally "
                    f"inconsistent: mse_before - cf^2 = {identity:.4f} dB^2 matches the "
                    f"published after-correction cf cell {cf_after:g}, not the published "
                    f"mse cell {pub['mse_after_db2']:g}; the two cells appear transposed "
                    f"(computed mse_after = {calib.after.mse_db2:.4f} dB^2)"
                )
            else:
                notes.append(
                    f"{model_id}: computed after-correction mse {calib.after.mse_db2:.4f} dB^2 "
                    f"differs from published {pub['mse_after_db2']:g} dB^2"
                )
    return tuple(notes)


def decade_slope(distances_m: Sequence[float], loss_db: Sequence[float]) -> float:
    """Least-squares slope of loss versus log10(distance), dB per decade."""
    x, y = _aligned(distances_m, loss_db)
    for i, d in enumerate(x, start=1):
        if not math.isfinite(d) or d <= 0.0:
            raise DomainError(f"sample {i}: distance must be positive, got {d!r}")
    try:
        fit = statistics.linear_regression([math.log10(d) for d in x], y)
    except statistics.StatisticsError as exc:
        raise DomainError(f"decade slope undefined: {exc}") from None
    return fit.slope


def cost231_tx_height_from_slope(slope_db_per_decade: float) -> float:
    """Transmit height implied by a COST-231 distance slope.

    Inverts slope = 44.9 - 6.55*log10(hb).
    """
    if not math.isfinite(slope_db_per_decade):
        raise DomainError(f"slope must be finite, got {slope_db_per_decade!r}")
    return 10.0 ** ((44.9 - slope_db_per_decade) / 6.55)


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of a grid search for the parameters behind a series."""

    model_id: str
    params: Mapping[str, object]
    fit_mse_db2: float
    decade_slope_db: float
    evaluated: int


def infer_site_parameters(
    distances_m: Sequence[float],
    path_loss_db: Sequence[float],
    model_id: str,
    grid: Mapping[str, Sequence[object]],
    *,
    base: Mapping[str, object] | None = None,
) -> InferenceResult:
    """Recover model parameters that best reproduce a path-loss series.

    Exhaustive search over the cartesian product of `grid`, scored by
    MSE against the series; `base` supplies the fixed parameters.  The
    spaces are tiny, so exhaustiveness and reproducibility beat speed.
    Every key and value of `grid` and `base` is checked once, before the
    search: an unknown key, or a value that is neither a number nor a
    known name, raises as in `model_from_params`.  Combinations that
    violate a model precondition, or whose squared errors overflow, are
    skipped; if all are, the result carries the first combination and
    fit_mse_db2 = inf.
    """
    slope = decade_slope(distances_m, path_loss_db)
    if model_id not in MODEL_IDS:
        raise DomainError(f"unknown model id {model_id!r}")
    if not grid:
        raise DomainError("parameter grid is empty")
    names = list(grid)
    axes = [list(grid[name]) for name in names]
    fixed = dict(base) if base else {}
    _model_arguments(fixed)
    for name, axis in zip(names, axes):
        if not axis:
            raise DomainError(f"parameter grid axis {name!r} is empty")
        for value in axis:
            _model_arguments({name: value})
    distances = [float(d) for d in distances_m]
    target = [float(v) for v in path_loss_db]

    best_params = {**fixed, **{name: axis[0] for name, axis in zip(names, axes)}}
    best_mse = math.inf
    for combo in itertools.product(*axes):
        params = dict(fixed)
        params.update(zip(names, combo))
        try:
            model = model_from_params(model_id, params)
            error = list(map(operator.sub, model.path_loss_series(distances), target))
            fit = math.fsum(map(operator.mul, error, error)) / len(error)
        except (DomainError, OverflowError):
            continue
        if fit < best_mse:
            best_mse = fit
            best_params = params
    return InferenceResult(model_id, best_params, best_mse, slope, math.prod(map(len, axes)))
