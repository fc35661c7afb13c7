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
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from .dataset import PUBLISHED_CALIBRATION
from .errors import DataError, DomainError, finite
from .models import MODEL_IDS, _model_arguments, model_from_params

SELECTION_RULE = "lowest after-correction mse_db2; ties: highest pearson_r, then model id"
_OVERFLOW = "{} series: a sum over its values overflows the float range"

# (field, label, unit, tolerance): each metric `published_divergence_notes`
# checks, and how far it may lie from its published value unreported
_PUBLISHED_CHECKS = (
    ("cf_db", "cf", " dB", 0.002),
    ("mse_before_db2", "before-correction mse", " dB^2", 0.05),
    ("pearson_r", "pearson r", "", 0.0005),
    ("mse_after_db2", "after-correction mse", " dB^2", 0.05),
)


@dataclass(frozen=True)
class ModelCalibration:
    """One model's report row: correction factor, then scores before and after it.

    The field order is the JSON key order and the CSV column order.  r is
    invariant under the constant shift, so one value serves both.
    """

    cf_db: float
    mse_before_db2: float
    mse_after_db2: float
    rmse_before_db: float
    rmse_after_db: float
    pearson_r: float | None
    n: int


@dataclass(frozen=True)
class CalibrationReport:
    """Per-model calibrations, the winning model, and the rule used."""

    models: Mapping[str, ModelCalibration]
    best_model: str
    selection_rule: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        payload: dict[str, object] = {
            "models": {model_id: vars(calib) for model_id, calib in self.models.items()},
            "best_model": self.best_model,
            "selection_rule": self.selection_rule,
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        """One row per model: its id, the `ModelCalibration` fields, and whether it won."""
        lines = [",".join(["model_id", *(f.name for f in fields(ModelCalibration)), "best"])]
        for model_id, calib in self.models.items():
            cells = ("" if value is None else repr(value) for value in vars(calib).values())
            lines.append(",".join([model_id, *cells, "true" if model_id == self.best_model else "false"]))
        return "\n".join(lines) + "\n"


def residuals(measured: Sequence[float], predicted: Sequence[float]) -> list[float]:
    """Per-sample measured - predicted, in input order (dB); an overflowing one raises `DomainError`."""
    x = _finite_series("measured", measured)
    r = list(map(operator.sub, x, _finite_series("predicted", predicted, len(x))))
    if not all(map(math.isfinite, r)):  # not `sum`: finite residuals may still sum past the float range
        raise DomainError(_OVERFLOW.format("predicted"))
    return r


def correction_factor(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean residual in dB: the constant that minimizes corrected MSE."""
    r = residuals(measured, predicted)
    return _fsum("predicted", r) / len(r)


def mse(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error between the series, in dB^2."""
    r = residuals(measured, predicted)
    return _sum_squares("predicted", r) / len(r)


def pearson_r(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Pearson product-moment correlation, mean-centered form.

    Requires at least two samples and nonzero variance in both series;
    the error for a flat series names the measured or the predicted one.
    Invariant under positive affine transforms of either series.
    """
    x = _finite_series("measured", measured)
    y = _finite_series("predicted", predicted, len(x))
    return _pearson_centred(*_centred("measured", x), *_centred("predicted", y))


def _finite_series(name: str, values: Sequence[float], n: int | None = None) -> list[float]:
    """The series as floats; a NaN or infinity, or a length that is 0 or not `n`, is a DataError."""
    series = list(map(float, values))
    if not math.isfinite(sum(series)):
        for i, v in enumerate(series, start=1):
            if not math.isfinite(v):
                raise DataError(f"{name} series, value {i}: not a finite number ({v!r})")
    if n is not None and len(series) != n:
        raise DataError(f"series are misaligned: the {name} series has {len(series)} values, not {n}")
    if not series:
        raise DataError("series are empty")
    return series


def _sum_squares(name: str, values: Sequence[float]) -> float:
    return _fsum(name, map(operator.mul, values, values))


def _fsum(name: str, terms: Iterable[float]) -> float:
    """`math.fsum`; a sum that leaves the float range is a DomainError naming the series."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # ValueError: terms that overflowed both ways, inf + -inf
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(_OVERFLOW.format(name))
    return total


def _centred(name: str, values: list[float]) -> tuple[list[float], float]:
    """Deviations from the mean and their sum of squares, exact for a flat series."""
    mean = _fsum(name, values) / len(values)  # taken even when flat, so that an overflow is reported
    # the ends first: every flat series passes that test, and most others fail it at once
    if values[0] == values[-1] and min(values) == max(values):
        mean = values[0]  # which `fsum / n` can miss by an ulp
    deviations = list(map(operator.sub, values, itertools.repeat(mean)))
    return deviations, _sum_squares(name, deviations)


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
    dx, sxx = _centred("measured", x)
    models: dict[str, ModelCalibration] = {}
    notes: list[str] = []
    for model_id, predicted in predictions.items():
        name = f"predicted {model_id!r}"
        y = _finite_series(name, predicted, n)
        residual = list(map(operator.sub, x, y))
        cf = _fsum(name, residual) / n
        error = _sum_squares(name, residual) / n
        # r is invariant under the constant shift, so one value serves both
        centred_y = _centred(name, y)  # outside the `try`: its overflow is an error, not a note
        r: float | None
        try:
            r = _pearson_centred(dx, sxx, *centred_y)
        except DomainError as exc:
            r = None
            notes.append(f"{model_id}: {exc}; reported as null")
        shifted = list(map(operator.sub, map(operator.add, y, itertools.repeat(cf)), x))
        error_after = _sum_squares(name, shifted) / n
        models[model_id] = ModelCalibration(cf, error, error_after, math.sqrt(error), math.sqrt(error_after), r, n)
        if acceptable_mse_db2 is not None and error_after > acceptable_mse_db2:
            notes.append(
                f"{model_id}: corrected mse {error_after:.4f} dB^2 exceeds "
                f"the acceptable threshold {acceptable_mse_db2:g} dB^2"
            )

    def rank(model_id: str) -> tuple[float, float, str]:
        calib = models[model_id]
        return (calib.mse_after_db2, math.inf if calib.pearson_r is None else -calib.pearson_r, model_id)

    return CalibrationReport(models, min(models, key=rank), SELECTION_RULE, tuple(notes))


def _pearson_centred(dx: list[float], sxx: float, dy: list[float], syy: float) -> float:
    """`pearson_r` of two series already centred by `_centred`."""
    n = len(dy)
    if n < 2:
        raise DomainError(f"pearson_r requires at least 2 samples, got {n}")
    if sxx == 0.0:
        raise DomainError("pearson_r is undefined for a zero-variance measured series")
    if syy == 0.0:
        raise DomainError("pearson_r is undefined for a zero-variance predicted series")
    # the split root serves only when the product underflows to zero
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
        for key, label, unit, tolerance in _PUBLISHED_CHECKS:
            value = getattr(calib, key)
            # `not >` lets a NaN published value pass unreported
            if value is None or not abs(value - pub[key]) > tolerance:
                continue
            if key == "mse_after_db2":
                identity = pub["mse_before_db2"] - pub["cf_db"] ** 2
                cf_after = pub.get("cf_after_db", pub["cf_db"])
                if abs(identity - cf_after) <= 0.005:
                    notes.append(
                        f"{model_id}: published after-correction cells are internally "
                        f"inconsistent: mse_before - cf^2 = {identity:.4f} dB^2 matches the "
                        f"published after-correction cf cell {cf_after:g}, not the published "
                        f"mse cell {pub[key]:g}; the two cells appear transposed "
                        f"(computed mse_after = {value:.4f} dB^2)"
                    )
                    continue
            notes.append(f"{model_id}: computed {label} {value:.4f}{unit} differs from published {pub[key]:g}{unit}")
    return tuple(notes)


def decade_slope(distances_m: Sequence[float], loss_db: Sequence[float]) -> float:
    """Least-squares slope of loss versus log10(distance), dB per decade; a single distance raises DomainError."""
    return _checked_slope(distances_m, loss_db)[2]


def _checked_slope(distances_m: Sequence[float], loss_db: Sequence[float]) -> tuple[list[float], list[float], float]:
    """Both series as checked floats, and their slope from centred `fsum` sums: the same bits on any Python."""
    distances = _finite_series("distance", distances_m)
    loss = _finite_series("loss", loss_db, len(distances))
    for i, d in enumerate(distances, start=1):
        if d <= 0.0:
            raise DomainError(f"sample {i}: distance must be positive, got {d!r}")
    dl, sll = _centred("distance", list(map(math.log10, distances)))
    if sll == 0.0:
        raise DomainError("decade slope undefined: every sample lies at the same distance")
    dy, _ = _centred("loss", loss)  # its sum of squares is taken only to report an overflow
    return distances, loss, math.fsum(map(operator.mul, dl, dy)) / sll


def cost231_tx_height_from_slope(slope_db_per_decade: float) -> float:
    """Transmit height implied by a COST-231 distance slope.

    Inverts slope = 44.9 - 6.55*log10(hb).  A slope whose height over-
    or underflows the float range raises `DomainError` naming the slope.
    """
    slope_db_per_decade = finite("slope_db_per_decade", slope_db_per_decade)
    try:
        height = 10.0 ** ((44.9 - slope_db_per_decade) / 6.55)
    except OverflowError:
        height = math.inf
    if not 0.0 < height < math.inf:
        raise DomainError(f"slope {slope_db_per_decade:g} dB/decade implies a transmit height outside the float range")
    return height


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
    skipped; if all are, `DomainError` names the model and why the first
    one fails, so `fit_mse_db2` is always finite.
    """
    distances, target, slope = _checked_slope(distances_m, path_loss_db)
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

    best_params: dict[str, object] | None = None
    best_mse = math.inf
    first_failure: DomainError | None = None
    for combo in itertools.product(*axes):
        params = dict(fixed)
        params.update(zip(names, combo))
        try:
            model = model_from_params(model_id, params)
            error = list(map(operator.sub, model.path_loss_series(distances), target))
            fit = _sum_squares(model_id, error) / len(error)
        except DomainError as exc:
            first_failure = first_failure or exc
            continue
        if fit < best_mse:
            best_mse = fit
            best_params = params
    if best_params is None:
        raise DomainError(f"no {model_id} grid point can be scored; the first fails: {first_failure}")
    return InferenceResult(model_id, best_params, best_mse, slope, math.prod(map(len, axes)))
