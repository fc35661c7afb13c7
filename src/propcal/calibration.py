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

import functools
import itertools
import json
import math
import numbers
import operator
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields

from .dataset import PUBLISHED_CALIBRATION, _csv_text
from .errors import LEAST_POSITIVE, DataError, DomainError, as_column, as_instance, as_mapping, checked_column, finite, nonnegative
from .models import (
    _MODEL_PARAMS, MODEL_IDS, PathLossModel, _log_km, _make_model_kwargs, _model_arguments, _range_warnings, make_model,
)
from .models import model_from_params  # unused here: the benchmark tracer wraps this name until ROADMAP item 2

SELECTION_RULE = "lowest after-correction mse_db2; ties: highest pearson_r, then model id"
_OVERFLOW = "{} series: a sum over its values overflows the float range"
_EPS = 2.0**-53  # the unit roundoff: a rounded float lies within EPS*|value| of the exact one

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

    def __post_init__(self) -> None:
        scores = ("cf_db", "mse_before_db2", "mse_after_db2", "rmse_before_db", "rmse_after_db")
        for name in scores if self.pearson_r is None else (*scores, "pearson_r"):
            object.__setattr__(self, name, finite(name, getattr(self, name)))  # a float, which JSON writes
        if type(self.n) is not int or self.n < 1:
            raise DomainError(f"n must be a positive int, got {self.n!r}")


@dataclass(frozen=True)
class CalibrationReport:
    """Per-model calibrations, the winning model, and the rule used."""

    models: Mapping[str, ModelCalibration]
    best_model: str
    selection_rule: str
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for model_id, calib in as_mapping("models", self.models, DataError).items():
            as_instance("model id", model_id, str, DataError)
            as_instance(f"models[{model_id!r}]", calib, ModelCalibration, DataError)
        as_instance("best_model", self.best_model, str, DataError)
        as_instance("selection_rule", self.selection_rule, str, DataError)
        if not (isinstance(self.notes, tuple) and all(isinstance(note, str) for note in self.notes)):
            raise DataError(f"notes must be a tuple of str, got {self.notes!r}")

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
        header = ["model_id", *(f.name for f in fields(ModelCalibration)), "best"]
        rows = (
            [model_id, *("" if v is None else repr(v) for v in vars(calib).values()), str(model_id == self.best_model).lower()]
            for model_id, calib in self.models.items()
        )
        return _csv_text(header, rows)


def residuals(measured: Sequence[float], predicted: Sequence[float]) -> list[float]:
    """Per-sample measured - predicted, in input order (dB); an overflowing one raises `DomainError`."""
    x = _finite_series("measured", measured)
    r = map(operator.sub, x, _finite_series("predicted", predicted, len(x)))
    return list(checked_column("residual", r, DomainError, lambda i, v: _OVERFLOW.format("predicted")))


def correction_factor(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean residual in dB: the constant that minimizes corrected MSE.

    Within 4*eps*mean|r_i| + 2**-1074 of the exact mean of the exact residuals r_i, eps = 2**-53.
    """
    r = residuals(measured, predicted)
    return _fsum("predicted", r) / len(r)


def mse(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error between the series, in dB^2, within 6*eps*mse + 2**-1074 of the exact one, eps = 2**-53."""
    r = residuals(measured, predicted)
    return _sum_squares("predicted", r) / len(r)


def pearson_r(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Pearson product-moment correlation, mean-centered form.

    Requires at least two samples and nonzero variance in both series;
    the error for a flat series names the measured or the predicted one.
    Invariant under positive affine transforms of either series.  Within
    4*eps of the exact r of the inputs at any scale, eps = 2**-53.
    """
    x = _finite_series("measured", measured)
    y = _finite_series("predicted", predicted, len(x))
    return _pearson_centred(*_centred("measured", x), *_centred("predicted", y))


def _finite_series(name: str, values: Sequence[float], n: int | None = None) -> tuple[float, ...]:
    """The series as floats; a value that is not a finite real number, or a length of 0 or not `n`, is a DataError."""
    column = f"{name} series"
    series = checked_column(column, values, DataError, lambda i, v: f"{column}, value {i}: not a finite number ({v!r})")
    if n is not None and len(series) != n:
        raise DataError(f"series are misaligned: the {name} series has {len(series)} values, not {n}")
    if not series:
        raise DataError("series are empty")
    return series


def _sum_squares(name: str, values: Sequence[float]) -> float:
    return _fsum(name, map(operator.mul, values, values))


def _fsum(name: str, terms: Iterable[float]) -> float:
    """`math.fsum`; a sum that leaves the float range is a DomainError naming the series.

    A running sum of a list or tuple may overflow where its total does not: the terms are then summed
    scaled by a power of two and the total scaled back.  Terms given as an iterator are squares or absolute
    values, whose running sums only grow.
    """
    try:
        try:
            total = math.fsum(terms)
        except OverflowError:
            if not isinstance(terms, (list, tuple)):
                raise
            k = len(terms).bit_length() + 1  # n terms below 2**(1024 - k) sum to less than 2**1023
            total = math.ldexp(math.fsum(math.ldexp(term, -k) for term in terms), k)
    except (OverflowError, ValueError):  # ValueError: terms that overflowed both ways, inf + -inf
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(_OVERFLOW.format(name))
    return total


def _centred(name: str, values: Sequence[float]) -> tuple[list[float], float, float]:
    """Deviations from the mean, their sum of squares, and the mean; exact for a flat series."""
    mean = _fsum(name, values) / len(values)  # taken even when flat, so that an overflow is reported
    # the ends first: every flat series passes that test, and most others fail it at once
    if values[0] == values[-1] and min(values) == max(values):
        mean = values[0]  # which `fsum / n` can miss by an ulp
    deviations = list(map(operator.sub, values, itertools.repeat(mean)))
    return deviations, _sum_squares(name, deviations), mean


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
    `correction_factor`, `mse` and `pearson_r`, so cf, the before-correction
    MSE and r keep their error bounds, and the measured series is centred
    once for all models.  y + cf is rounded at the scale of the values, so
    the after-correction MSE is within 2*h*sqrt(mse_after) + h**2 +
    6*eps*mse_after + 2**-1074 of the exact one, where eps = 2**-53 and
    h = 8*eps*max(|x_i| + |y_i|) + 2**-1074.
    """
    if not as_mapping("predictions", predictions, DataError):
        raise DataError("calibrate needs at least one prediction series")
    if acceptable_mse_db2 is not None:
        acceptable_mse_db2 = nonnegative("acceptable_mse_db2", acceptable_mse_db2)
    x = _finite_series("measured", measured)
    n = len(x)
    centred_x = _centred("measured", x)
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
            r = _pearson_centred(*centred_x, *centred_y)
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


def _pearson_centred(dx: list[float], sxx: float, mx: float, dy: list[float], syy: float, my: float) -> float:
    """`pearson_r` of two series already centred by `_centred`."""
    n = len(dy)
    if n < 2:
        raise DomainError(f"pearson_r requires at least 2 samples, got {n}")
    for series, deviations in (("measured", dx), ("predicted", dy)):
        if not any(deviations):  # `_centred` leaves a flat series all zeros
            raise DomainError(f"pearson_r is undefined for a zero-variance {series} series")
    # r is the same for series scaled by powers of two.  Where a square may lose bits below the normal float range,
    # the product of the sums leaves it, or a mean's rounding matters (`_near_flat`), rescale and centre again
    if (min(sxx, syy) < n * sys.float_info.min or not sys.float_info.min <= sxx * syy < math.inf
            or _near_flat(sxx, n, mx) or _near_flat(syy, n, my)):
        return _pearson_centred(*_rescaled("measured", dx)[0], *_rescaled("predicted", dy)[0])
    return math.fsum(map(operator.mul, dx, dy)) / math.sqrt(sxx * syy)


def _near_flat(s: float, n: int, mean: float) -> bool:
    """Whether a mean's rounding, at most 2*EPS*|mean|, can move r or a slope over the deviations, whose squares
    sum to `s`, by 8*n*(EPS*mean)**2/s > EPS."""
    return s < 8 * n * _EPS * mean * mean


def _rescaled(name: str, deviations: list[float]) -> tuple[tuple[list[float], float, float], int]:
    """`_centred` of the deviations scaled by 2**-e, which brings the largest into [0.5, 1), and e."""
    e = math.frexp(max(map(abs, deviations)))[1]
    return _centred(name, [math.ldexp(d, -e) for d in deviations]), e


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
    recomputation as wrong.  Each row of a model in `report` must be a
    mapping that holds each metric, and `cf_after_db` may add the
    after-correction cf; each value must be a real number within the
    float range or a NaN, which is never reported.  Anything else raises
    `DataError` naming the row and the key.
    """
    as_instance("report", report, CalibrationReport, DataError)
    notes: list[str] = []
    for model_id, row in as_mapping("published", published, DataError).items():
        calib = report.models.get(model_id)
        if calib is None:
            continue
        pub = _published_row(f"published[{model_id!r}]", row)
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


def _published_row(name: str, row: object) -> dict[str, float]:
    """The published row `name` as floats: each metric `published_divergence_notes` reads, and `cf_after_db` if given."""
    row = as_mapping(name, row, DataError)
    values = {}
    for key in [key for key, *_ in _PUBLISHED_CHECKS] + ["cf_after_db"] * ("cf_after_db" in row):
        if key not in row:
            raise DataError(f"{name}: missing {key!r}")
        value = row[key]
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                values[key] = float(value)
                continue
            except OverflowError:  # an int or a Fraction past the float range
                pass
        raise DataError(f"{name}[{key!r}] must be a real number within the float range, got {value!r}")
    return values


def decade_slope(distances_m: Sequence[float], loss_db: Sequence[float]) -> float:
    """Least-squares slope of loss versus log10(distance), dB per decade; a single distance raises DomainError.

    For the log10 values `math.log10` gives, the error is at most 6*eps*|slope| + 3*eps*sqrt(syy/sll) +
    n*(|dl*dy| + 2**-1074)/sll + 2**-1074, eps = 2**-53: sll and syy are the sums of squared deviations of
    the logs and of the loss, and dl, dy the rounding of each mean, at most 2*eps*|mean| + 2**-1074.  Logs
    so near-flat that their mean's rounding matters are rescaled and centred again, as in `pearson_r`.
    """
    return _checked_slope(distances_m, loss_db)[2]


def _checked_slope(distances_m: Sequence[float], loss_db: Sequence[float]) -> tuple[tuple, tuple, float]:
    """Both series as checked floats, and their slope from centred `fsum` sums: the same bits on any Python."""
    distances = _finite_series("distance", distances_m)
    loss = _finite_series("loss", loss_db, len(distances))
    checked_column("distance", distances, DomainError, "sample {}: distance must be positive, got {!r}".format, LEAST_POSITIVE)
    dl, sll, ml = _centred("distance", list(map(math.log10, distances)))
    if sll == 0.0:
        raise DomainError("decade slope undefined: every sample lies at the same distance")
    if _near_flat(sll, len(dl), ml):  # the slope over deviations scaled by 2**-e is 2**e times as large
        (dl, sll, _), e = _rescaled("distance", dl)
        sll = math.ldexp(sll, e)
    dy = _centred("loss", loss)[0]  # its sum of squares is taken only to report an overflow
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

    Searches the cartesian product of `grid`, scored by MSE against the
    series; `base` supplies the fixed parameters.  Every key and value of
    `grid` and `base` is checked once, before the search: an unknown key,
    or a value that is neither a number nor a known name, raises as in
    `model_from_params`.  Combinations that violate a model precondition,
    or whose squared errors overflow, are skipped; if all are,
    `DomainError` names the model and why the first one fails, so
    `fit_mse_db2` is always finite.

    The result is the one that scoring every point sample by sample gives:
    the lowest fit, ties to the first point in product order.  Each point
    is screened in O(1) instead.  With L_i = log10(d_i) - 3 and t_i the
    target, its squared error is the quadratic form Q of (c0, c1, c2, -1)
    over sums of L_i**k (k <= 4), L_i**k * t_i (k <= 2) and t_i**2, and
    its fit lies within B = 32*eps*T/n of Q/n, where eps = 2**-53 and T is
    the form's sum of |coefficient| * (sum of absolute values) over its
    terms.  B covers the rounding of the form and that of scoring sample
    by sample, given that each coefficient and target is 0 or of magnitude
    in [1e-60, 1e100].  A point outside that, or with a SUI d0 not below
    every distance, is scored sample by sample, in order.  Only points
    whose lower bound is at most the lowest upper bound so far are kept,
    and only those are scored sample by sample at the end.  A screened
    point raises each of its range notes once; a point scored sample by
    sample raises them per sample.
    """
    distances, target, slope = _checked_slope(distances_m, path_loss_db)
    if model_id not in MODEL_IDS:
        raise DomainError(f"unknown model id {model_id!r}")
    if not as_mapping("grid", grid, DomainError):
        raise DomainError("parameter grid is empty")
    names = list(grid)
    axes = [as_column(f"parameter grid axis {name!r}", grid[name], DomainError) for name in names]
    fixed = {} if base is None else dict(as_mapping("base", base, DomainError))
    placed = _model_arguments(fixed)
    places, checked_axes = [], []  # per axis: the place `_model_arguments` gives its key, and its values checked
    for name, axis in zip(names, axes):
        if not axis:
            raise DomainError(f"parameter grid axis {name!r} is empty")
        places.append(_MODEL_PARAMS.get(name, (name, None))[:2])  # an unknown key passes with None values alone
        checked = (_model_arguments({name: value}).get(places[-1]) for value in axis)
        # by position, each value its check changed: an axis of floats is its own checked axis, with no copy
        changed = {i: c for i, (value, c) in enumerate(zip(axis, checked)) if c is not value}
        checked_axes.append(tuple(changed.get(i, value) for i, value in enumerate(axis)) if changed else axis)
    # an axis that sets a `make_model` argument, with no None to remove it, is put into each point's arguments; the
    # values of the others, with the base, give the rest, each SUI and Ericsson object among them built once
    plain = [field is None and None not in axis for (_, field), axis in zip(places, checked_axes)]
    targets = [target for (target, _), own in zip(places, plain) if own]
    others = [not own for own in plain]

    # bounded, or an axis of a million SUI d0 values would keep a million; a call that raises keeps nothing
    @functools.lru_cache(maxsize=1024)
    def arguments(values: tuple) -> dict[str, object]:
        return _make_model_kwargs({**placed, **dict(zip(itertools.compress(places, others), values))})

    log_km = _log_km(distances)
    sums = _screen_sums(log_km, target) if _screenable(*target) else None
    nearest = min(distances)
    ceiling = math.inf  # the lowest upper bound on a fit so far
    kept: list[tuple[float, int, PathLossModel, float | None]] = []  # low, index in product order, model, fit if known
    first_failure: DomainError | None = None
    for index, combo in enumerate(itertools.product(*checked_axes)):
        try:
            kwargs = arguments(tuple(itertools.compress(combo, others)))
            model = make_model(model_id, **dict(kwargs, **dict(zip(targets, itertools.compress(combo, plain)))))
            screened = sums is not None and model.min_distance_m < nearest and _screenable(model.c0, model.c1, model.c2)
            fit = None if screened else _fit(model, distances, log_km, target)
        except DomainError as exc:
            first_failure = first_failure or exc
            continue
        low, high = _fit_bounds(model, sums) if fit is None else (fit, fit)
        if low <= ceiling:
            kept.append((low, index, model, fit))
            if high < ceiling:
                ceiling = high
                kept = [point for point in kept if point[0] <= ceiling]
    if not kept:
        raise DomainError(f"no {model_id} grid point can be scored; the first fails: {first_failure}")
    fits = ((_fit(model, distances, log_km, target) if fit is None else fit, index) for _, index, model, fit in kept)
    best_mse, best = min(fits, key=operator.itemgetter(0))  # the first of equal fits: product order
    best_params = dict(fixed)
    best_params.update(zip(names, next(itertools.islice(itertools.product(*axes), best, None))))
    return InferenceResult(model_id, best_params, best_mse, slope, math.prod(map(len, axes)))


def _screenable(*values: float) -> bool:
    """Whether each value is 0 or of a magnitude at which no product in `_fit_bounds` or `_fit` leaves the normal range."""
    return all(v == 0.0 or 1e-60 <= abs(v) <= 1e100 for v in values)


def _fit(model: PathLossModel, distances: Sequence[float], log_km: Sequence[float], target: Sequence[float]) -> float:
    """The model's mean squared error against the target, sample by sample: the fit `infer_site_parameters` reports."""
    error = list(map(operator.sub, model._losses(distances, log_km), target))  # `distances` is checked once, by the caller
    return _sum_squares(model.model_id, error) / len(error)


def _screen_sums(l1: list[float], target: Sequence[float]) -> tuple[list[float], list[float]]:
    """The sum each term of the quadratic form takes over L = `_log_km` of the distances, signed and of absolute
    values, in the order `_fit_bounds` uses."""
    l2 = list(map(operator.mul, l1, l1))
    pairs = ((l2, l1), (l2, l2), (l1, target), (l2, target), (target, target))
    l3, l4, l1t, l2t, tt = (list(map(operator.mul, a, b)) for a, b in pairs)
    s1, s2, s3, s4, s0t, s1t, s2t, stt = (_fsum("loss", column) for column in (l1, l2, l3, l4, target, l1t, l2t, tt))
    a1, a3, a0t, a1t, a2t = (_fsum("loss", map(abs, column)) for column in (l1, l3, target, l1t, l2t))
    n = float(len(target))
    return [n, s1, s2, s2, s3, s4, s0t, s1t, s2t, stt], [n, a1, s2, s2, a3, s4, a0t, a1t, a2t, stt]


def _fit_bounds(model: PathLossModel, sums: tuple[list[float], list[float]]) -> tuple[float, float]:
    """Bounds on `_fit` of a model with screenable coefficients, from `_screen_sums`; raises its range notes once each.

    Why B holds, no product leaving the normal range: the exact E = sum e_i**2 and sum m_i**2, where
    m_i = |c0| + |c1*L_i| + |c2*L_i**2|, are both at most T.  A sum of products over the series lies within 4*eps of
    its sum of absolute values, and a term of the form within 6*eps of |coefficient| * that sum, so Q lies within
    8*eps*T of E.  Sample by sample, e_i comes out as e_i*(1 + d) + r_i, |d| <= eps, |r_i| <= 5*eps*m_i; squaring,
    summing and dividing round 3 times more, so n*fit lies within 5*eps*E + 10*eps*sqrt(E*T) + 25*eps**2*T, at most
    15.01*eps*T, of E.  That leaves over 8*eps*T of B*n for the rounding of Q/n and of B.
    """
    _range_warnings(model.range_notes)
    c0, c1, c2 = model.c0, model.c1, model.c2
    signed, absolute = sums
    weights = (c0 * c0, 2 * c0 * c1, 2 * c0 * c2, c1 * c1, 2 * c1 * c2, c2 * c2, -2 * c0, -2 * c1, -2 * c2, 1.0)
    form, n = math.fsum(map(operator.mul, weights, signed)), signed[0]
    radius = 32 * _EPS * math.fsum(map(operator.mul, map(abs, weights), absolute)) / n
    return form / n - radius, form / n + radius
