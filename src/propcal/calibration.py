"""Model calibration against drive-test data.

The workflow: compute residuals between measured and predicted RSS, take
their mean as a constant correction factor, score each model before and
after applying it (MSE and Pearson r), and rank the corrected models.
A constant offset is the whole method; the correction factor is the
MSE-minimizing constant, and mse_after = mse_before - cf^2 in exact
arithmetic; a report row checks cf^2 <= mse_before within rounding.

All correction factors are computed and applied in RSS space, so a
positive cf means the model over-predicts path loss.  The equivalent
path-loss form is loss - cf.

`calibrate` scores the columns it is given sample by sample.  The CLI's
`calibrate` scores freshly bound models from one set of centred moment
sums instead (`_calibrate_models`): each model is a quadratic in
log10(d_km), so its metrics follow in O(1).  The CLI's `compare` scores
its columns from centred sums too, as the degree-1 case
(`_calibrate_columns`), and `infer` screens its grid from the same sums
(`_screen`), a point's fit being the mse_before of the negated target.
Each route states its error bound; where the bound needs what the sums
do not show, a row is scored sample by sample, to the bit.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields

from .dataset import PUBLISHED_CALIBRATION, DriveTestTable, _csv_text
from .errors import LEAST_POSITIVE, DataError, DomainError, _Floats, as_column, as_instance, as_mapping, checked_column, checked_fields, finite, nonnegative
from .models import _MODEL_PARAMS, MODEL_IDS, PathLossModel, _log_km, _make_model_kwargs, _model_arguments, _range_warnings, make_model
from .models import model_from_params  # unused here: the benchmark tracer wraps this name until ROADMAP item 3

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

    The field order is the JSON key order and the CSV column order.  Each RMSE is derived, the root of its MSE.
    r is invariant under the constant shift, so one value serves both.

    A mean's square cannot exceed the mean square: with mean|r_i|**2 <= mse, the bounds of `correction_factor` and
    `mse`, taken from the same residuals r_i, put cf_db*cf_db, rounded, at most about 15*eps*mse_before_db2 +
    3.5*2**-1074 above mse_before_db2, eps = 2**-53.  A row past 32*eps*mse_before_db2 + 16*2**-1074, which also
    covers the eps**2 terms and the check's own rounding, raises `DomainError`.  The other side, mse_after_db2 <=
    mse_before_db2 - cf_db**2 + bound, is unchecked: `calibrate`'s after-MSE bound needs max(|x_i| + |y_i|).
    """

    cf_db: float
    mse_before_db2: float
    mse_after_db2: float
    rmse_before_db: float = field(init=False)
    rmse_after_db: float = field(init=False)
    pearson_r: float | None
    n: int

    def __post_init__(self) -> None:
        checked_fields(self, finite, "cf_db")
        checked_fields(self, nonnegative, "mse_before_db2", "mse_after_db2")
        if self.pearson_r is not None:
            checked_fields(self, finite, "pearson_r")
            if not -1.0 <= self.pearson_r <= 1.0:
                raise DomainError(f"pearson_r must lie in [-1, 1], got {self.pearson_r!r}")
        object.__setattr__(self, "rmse_before_db", math.sqrt(self.mse_before_db2))
        object.__setattr__(self, "rmse_after_db", math.sqrt(self.mse_after_db2))
        if type(self.n) is not int or self.n < 1:
            raise DomainError(f"n must be a positive int, got {self.n!r}")
        if self.cf_db * self.cf_db > self.mse_before_db2 * (1.0 + 32 * _EPS) + 16 * LEAST_POSITIVE:
            raise DomainError(f"cf_db**2 exceeds mse_before_db2 beyond rounding, got cf_db {self.cf_db!r} and "
                              f"mse_before_db2 {self.mse_before_db2!r}")


# a report row's JSON keys and CSV columns, in the field order of `ModelCalibration`
_ROW_FIELDS = tuple(f.name for f in fields(ModelCalibration))


@dataclass(frozen=True)
class CalibrationReport:
    """Per-model calibrations, in a dict of the report's own, and the winner by `SELECTION_RULE`, ranked when built."""

    models: Mapping[str, ModelCalibration]
    best_model: str = field(init=False)
    selection_rule: str = field(default=SELECTION_RULE, init=False)
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        models = dict(as_mapping("models", self.models, DataError))
        for model_id, calib in models.items():
            as_instance("model id", model_id, str, DataError)
            as_instance(f"models[{model_id!r}]", calib, ModelCalibration, DataError)
        if not (isinstance(self.notes, tuple) and all(isinstance(note, str) for note in self.notes)):
            raise DataError(f"notes must be a tuple of str, got {self.notes!r}")
        if not models:
            raise DataError("a calibration report needs at least one model")
        object.__setattr__(self, "models", models)
        # `SELECTION_RULE`: the lowest after-correction MSE, then the highest r, a None r below any, then the id
        ranks = ((c.mse_after_db2, math.inf if c.pearson_r is None else -c.pearson_r, k) for k, c in models.items())
        object.__setattr__(self, "best_model", min(ranks)[2])

    def to_json(self) -> str:
        payload: dict[str, object] = {
            "models": {model_id: {name: getattr(calib, name) for name in _ROW_FIELDS} for model_id, calib in self.models.items()},
            "best_model": self.best_model,
            "selection_rule": self.selection_rule,
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        """One row per model: its id, the `ModelCalibration` fields, and whether it won."""
        rows = (
            [model_id, *("" if v is None else repr(v) for v in operator.attrgetter(*_ROW_FIELDS)(calib)),
             str(model_id == self.best_model).lower()]
            for model_id, calib in self.models.items()
        )
        return _csv_text(["model_id", *_ROW_FIELDS, "best"], rows)


def correction_factor(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean residual in dB: the constant that minimizes corrected MSE.

    Within 4*eps*mean|r_i| + 2**-1074 of the exact mean of the exact residuals r_i, eps = 2**-53.
    """
    r = _residuals(measured, predicted)
    return _fsum("predicted", r) / len(r)


def mse(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error between the series, in dB^2, within 6*eps*mse + 2**-1074 of the exact one, eps = 2**-53."""
    r = _residuals(measured, predicted)
    return _sum_squares("predicted", r) / len(r)


def _residuals(measured: Sequence[float], predicted: Sequence[float]) -> list[float]:
    """measured - predicted at each sample of the two `_finite_series`; a difference that overflows to an infinity
    makes the caller's sum raise `DomainError`."""
    x = _finite_series("measured", measured)
    return list(map(operator.sub, x, _finite_series("predicted", predicted, len(x))))


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
    # the ends first: every flat series passes that test, and most others fail it at once; then one scan in C, in
    # which -0.0 == 0.0 leaves a series of signed zeros flat
    if values[0] == values[-1] and values.count(values[0]) == len(values):
        mean = values[0]  # which `fsum / n` can miss by an ulp
    deviations = list(map(operator.sub, values, itertools.repeat(mean)))
    return deviations, _sum_squares(name, deviations), mean


def calibrate(
    measured: Sequence[float],
    predictions: Mapping[str, Sequence[float]],
    *,
    acceptable_mse_db2: float | None = None,
) -> CalibrationReport:
    """Calibrate every prediction series; the report ranks the corrected models.

    Ranking (`SELECTION_RULE`): lowest after-correction MSE, ties broken by
    highest r, then by model id.  Where r is undefined (fewer than two
    samples, or a zero-variance series) it is reported as None, ranks below
    any r, and a note names the model and the reason; cf and both MSEs are
    still reported.  `acceptable_mse_db2`, when given, adds an advisory
    note for each model whose corrected MSE still exceeds it.  Values so
    large that a sum over a series overflows raise `DomainError`.

    Each series is scored in one pass with the same arithmetic as
    `correction_factor`, `mse` and `pearson_r`, so cf, the before-correction
    MSE and r keep their error bounds, and the measured series is centred
    once for all models.  Each model's scoring lists are freed once their
    sums are taken, so one model's lists are held at a time, whatever the
    number of series.  y + cf is rounded at the scale of the values, so
    the after-correction MSE is within 2*h*sqrt(mse_after) + h**2 +
    6*eps*mse_after + 2**-1074 of the exact one, where eps = 2**-53 and
    h = 8*eps*max(|x_i| + |y_i|) + 2**-1074.
    """
    if not as_mapping("predictions", predictions, DataError):
        raise DataError("calibrate needs at least one prediction series")
    if acceptable_mse_db2 is not None:
        acceptable_mse_db2 = nonnegative("acceptable_mse_db2", acceptable_mse_db2)
    x = _finite_series("measured", measured)
    centred_x = _centred("measured", x)
    scores = (_scored(model_id, x, centred_x, predicted) for model_id, predicted in predictions.items())
    return _report(scores, len(x), acceptable_mse_db2)


def _scored(model_id: str, x: Sequence[float], centred_x: tuple, predicted: Sequence[float]) -> tuple:
    """One prediction series scored sample by sample against `x`, centred by `_centred`: the model id, cf, the MSE
    before and after it, and r or the `DomainError` that says why r is undefined."""
    name = f"predicted {model_id!r}"
    n = len(x)
    y = _finite_series(name, predicted, n)
    residual = list(map(operator.sub, x, y))
    cf = _fsum(name, residual) / n
    error = _sum_squares(name, residual) / n
    del residual
    # r is invariant under the constant shift, so one value serves both
    centred_y = _centred(name, y)  # outside the `try`: its overflow is an error, not a note
    r: float | DomainError
    try:
        r = _pearson_centred(*centred_x, *centred_y)
    except DomainError as exc:
        r = exc
    del centred_y
    shifted = list(map(operator.sub, map(operator.add, y, itertools.repeat(cf)), x))
    return model_id, cf, error, _sum_squares(name, shifted) / n, r


def _report(scores: Iterable[tuple], n: int, acceptable_mse_db2: float | None) -> CalibrationReport:
    """The report of scores as `_scored` gives them, taken in order: a row each, and the notes in model order."""
    models: dict[str, ModelCalibration] = {}
    notes: list[str] = []
    for model_id, cf, error, error_after, r in scores:
        if isinstance(r, DomainError):
            notes.append(f"{model_id}: {r}; reported as null")
            r = None
        models[model_id] = ModelCalibration(cf, error, error_after, r, n)
        if acceptable_mse_db2 is not None and error_after > acceptable_mse_db2:
            notes.append(
                f"{model_id}: corrected mse {error_after:.4f} dB^2 exceeds "
                f"the acceptable threshold {acceptable_mse_db2:g} dB^2"
            )
    return CalibrationReport(models, tuple(notes))


def _calibrate_models(
    measured: Sequence[float],
    distances_m: Sequence[float],
    models: Sequence[PathLossModel],
    budget_db: float,
    *,
    acceptable_mse_db2: float | None = None,
) -> CalibrationReport:
    """`calibrate` of each bound model's predicted RSS, budget_db - loss, at distances checked by `_checked_distances`.

    What it raises, warns and notes is what evaluating the models in turn
    and then scoring the columns with `calibrate` would: SUI's d0 check and
    the range notes, once per distance, model by model, then each model's
    scores, errors and notes in model order.  The scores come from moments.
    A model's residual is x_i - budget_db + c0 + c1*L_i + c2*L_i**2, with
    L = `_log_km` of the distances, so cf, both MSEs and r of every model
    follow in O(1) from the means of x, L and L**2 and the six sums of
    products of their deviations from those means: 9 `math.fsum` passes
    for all models together (centred first, after Chan, Golub & LeVeque,
    Am. Stat. 37(3), 1983; summed exactly rounded, after Shewchuk,
    Discrete Comput. Geom. 18, 1997).

    With eps = 2**-53, t = 2**-1074 and s = 1 + |c1| + |c2|, against the
    exact metrics of x and of the exact prediction budget_db - c0 - c1*L_i
    - c2*L_i**2 over these floats:
      cf is within dcf = 2*eps*|cf| + 8*eps*m + 4*s*t,
      mse_after within da = 128*eps*(Wx + Wy) + 2*s*s*t,
      mse_before within 2*|cf|*dcf + dcf**2 + da + 4*eps*mse_before,
      r within 16*eps*(sqrt(Wx/vx) + sqrt(Wy/vy) + k + 1) + 16*s*s*t*(1 + 1/vx + 1/vy),
    where m is the mean of |x_i| + |c1*L_i| + |c2|*L_i**2, Wx the mean of
    x_i**2, Wy the mean of (|c1*L_i| + |c2|*L_i**2)**2, vx and vy the
    variances of x and of the prediction, and k the mean of (|c1*a_i| +
    |c2*b_i|)**2 over vy, a and b the deviations of L and L**2.

    Why: a mean rounds within 2.01*eps of its value and L**2 within eps,
    so each float deviation of x, L and L**2, weighted by 1, c1 and c2,
    lies within g_i = 4.02*eps*(m_i + m) + s*t of the exact one.  The
    quadratic form in the sums is the sum of squares of the residuals'
    deviations r_i, |r_i| <= m_i + m.  With W the mean of m_i**2, at most
    2*(Wx + Wy), n*mse_after is off by at most sum 2*|r_i|*g_i + g_i**2,
    32.2*eps*n*W, plus the form's rounding, 4.03*eps times the sum of its
    terms' absolute values, 16.1*eps*n*W, plus that of the sum and the
    division, 8.1*eps*n*W: 112.8*eps*n*(Wx + Wy), the t-terms bounded by
    eps*r_i**2 + s*s*t.  r is the cosine of the angle between the two
    deviation vectors: the g_i turn each by at most pi/2 times their size
    relative to it, 6.4*eps*sqrt(Wx/vx) and 9.5*eps*sqrt(Wy/vy), and the
    sums of r round within (4.1*k + 8.1)*eps.

    A model is scored sample by sample, as `calibrate` scores a column,
    where those bounds need what the sums do not show: a coefficient or
    the budget neither 0 nor of magnitude in [1e-60, 1e100] (`_screenable`);
    or, where r is defined, a measured series that `_pearson_centred`
    would rescale, or a prediction whose sum of squared deviations Syy is
    below 2**-40 of n*(budget**2 + c0**2 + 2*mean(c1**2*L**2 + c2**2*L**4)),
    so that its floats could round flat, or below 2**-9 of
    c1**2*Sll + c2**2*Sqq, the sums for L and L**2, so that k could exceed
    2**10.  A prediction that is certainly flat (every L the same, or
    c1 = c2 = 0) gets the null r of a flat series, as it would there.
    """
    x = _finite_series("measured", measured)
    n = len(x)
    centred_x = _centred("measured", x)
    log_km = _log_km(distances_m)
    sums, means = _moment_sums(centred_x, log_km)
    r_scorable = _r_scorable(n, *centred_x)
    scores: list = []  # per model, in order: its scores, or the call that scores its RSS column sample by sample
    for model in models:
        score = _moment_score(model.model_id, model.c0, model.c1, model.c2, budget_db, n, sums, means, r_scorable)
        if score is None:  # a float minus a float is a float, so `_Floats` skips the type gate
            rss = _Floats([budget_db - loss for loss in model._losses(distances_m, log_km)])
            score = functools.partial(_scored, model.model_id, x, centred_x, rss)
        else:
            model._admit(distances_m)
        scores.append(score)
    return _report((score() if callable(score) else score for score in scores), n, acceptable_mse_db2)


def _calibrate_columns(table: DriveTestTable, *, acceptable_mse_db2: float | None = None) -> CalibrationReport:
    """`calibrate` of the table's prediction columns, scored from centred sums: the CLI's `compare`.

    A column y is the prediction of c0 = c2 = 0, c1 = -1 and a budget of 0 over L = y, the sums and mean of L**2
    given as 0, so `_calibrate_models`' bound holds with s = 2, m = mean(|x| + |y|), Wy = mean(y**2) and k = 1, and r
    is `pearson_r`'s, to the bit.  The table's RSS window keeps every sum far from the float range.  A column is
    scored sample by sample, as `calibrate` scores it, where `_pearson_centred` would rescale it (a flat or near-flat
    column, or one whose squared deviations sum below n*2**-1022) and where `_moment_score` returns None.
    """
    x = table.measured_rss_dbm
    n = len(x)
    centred_x = dx, sxx, mx = _centred("measured", x)
    r_scorable = _r_scorable(n, *centred_x)
    scores = []
    for model_id, y in table.predictions.items():
        dy, syy, my = _centred(f"predicted {model_id!r}", y)
        sums = (sxx, syy, 0.0, math.fsum(map(operator.mul, dx, dy)), 0.0, 0.0)
        del dy  # one column's deviations at a time
        flat = syy < n * sys.float_info.min or _near_flat(syy, n, my)
        score = None if flat else _moment_score(model_id, 0.0, -1.0, 0.0, 0.0, n, sums, (mx, my, 0.0), r_scorable)
        scores.append(score or _scored(model_id, x, centred_x, y))
    return _report(scores, n, acceptable_mse_db2)


def _r_scorable(n: int, dx: list[float], sxx: float, mx: float) -> bool | DomainError:
    """r's `DomainError` if r is undefined whatever the prediction, else whether `_pearson_centred` keeps x's sums."""
    return _r_undefined(n, not any(dx), False) or not (sxx < n * sys.float_info.min or _near_flat(sxx, n, mx))


def _moment_score(
    model_id: str, c0: float, c1: float, c2: float, budget: float, n: int, sums: tuple, means: tuple,
    r_scorable: bool | DomainError,
) -> tuple | None:
    """`_scored`'s scores of budget - c0 - c1*L - c2*L**2 from `_moment_sums`, or None outside `_calibrate_models`'
    bound.  `r_scorable` is the `DomainError` of an r that is undefined whatever the prediction, else whether the
    measured series' sums serve r: True where `_pearson_centred` would not rescale them."""
    if not _screenable(c0, c1, c2, budget):
        return None
    cf, error, error_after = _moment_fit(c0, c1, c2, budget, n, sums, means)
    (sxx, sll, sqq, sxl, sxq, slq), mq = sums, means[2]
    # every prediction is the same float where the distances share one L, or no term varies with L
    r = r_scorable if isinstance(r_scorable, DomainError) else _r_undefined(n, False, sll == 0.0 or c1 == c2 == 0.0)
    if r is None:
        a1, a2 = c1 * c1, c2 * c2
        syy = math.fsum((a1 * sll, a2 * sqq, 2 * c1 * c2 * slq))
        # a quarter of a bound on the mean square of |budget| + |c0| + |c1*L| + |c2|*L**2
        level = budget * budget + c0 * c0 + 2 * (a1 * mq + a2 * (sqq / n + mq * mq))
        if not (r_scorable and syy * 2**9 >= a1 * sll + a2 * sqq and syy * 2**40 >= n * level
                and sys.float_info.min <= sxx * syy < math.inf):
            return None
        # negated before the sum, so that a zero r is the 0.0 that `_pearson_centred` gives, not -0.0
        r = max(-1.0, min(1.0, math.fsum((-c1 * sxl, -c2 * sxq)) / math.sqrt(sxx * syy)))
    return model_id, cf, error, error_after, r


def _moment_sums(centred_x: tuple[list[float], float, float], log_km: list[float]) -> tuple[tuple, tuple]:
    """The centred sums of squares of x, L and L**2, then of the products x*L, x*L**2 and L*L**2, and the means of x,
    L and L**2: what `_moment_fit` takes, from x centred by `_centred` and L = `_log_km` of the distances."""
    dx, sxx, mx = centred_x
    dl, sll, ml = _centred("distance", log_km)
    dq, sqq, mq = _centred("distance", list(map(operator.mul, log_km, log_km)))
    products = (math.fsum(map(operator.mul, a, b)) for a, b in ((dx, dl), (dx, dq), (dl, dq)))
    return (sxx, sll, sqq, *products), (mx, ml, mq)


def _moment_fit(c0: float, c1: float, c2: float, budget: float, n: int, sums: tuple, means: tuple) -> tuple:
    """cf, mse_before and mse_after of the prediction budget - c0 - c1*L - c2*L**2 from `_moment_sums`, as
    `_calibrate_models` bounds them."""
    (sxx, sll, sqq, sxl, sxq, slq), (mx, ml, mq) = sums, means
    cf = math.fsum((mx, -budget, c0, c1 * ml, c2 * mq))
    after = max(0.0, math.fsum((sxx, c1 * c1 * sll, c2 * c2 * sqq, 2 * c1 * sxl, 2 * c2 * sxq, 2 * c1 * c2 * slq)) / n)
    return cf, cf * cf + after, after


def _pearson_centred(dx: list[float], sxx: float, mx: float, dy: list[float], syy: float, my: float) -> float:
    """`pearson_r` of two series already centred by `_centred`."""
    n = len(dy)
    undefined = _r_undefined(n, not any(dx), not any(dy))  # `_centred` leaves a flat series all zeros
    if undefined is not None:
        raise undefined
    # r is the same for series scaled by powers of two.  Where a square may lose bits below the normal float range,
    # the product of the sums leaves it, or a mean's rounding matters (`_near_flat`), rescale and centre again
    if (min(sxx, syy) < n * sys.float_info.min or not sys.float_info.min <= sxx * syy < math.inf
            or _near_flat(sxx, n, mx) or _near_flat(syy, n, my)):
        return _pearson_centred(*_rescaled("measured", dx)[0], *_rescaled("predicted", dy)[0])
    # rounding can take |r| of an exactly linear pair past 1; the clamp only moves r toward the exact value
    return max(-1.0, min(1.0, math.fsum(map(operator.mul, dx, dy)) / math.sqrt(sxx * syy)))


def _r_undefined(n: int, flat_measured: bool, flat_predicted: bool) -> DomainError | None:
    """The `DomainError` that says why r is undefined, or None: fewer than 2 samples first, then a flat series."""
    if n < 2:
        return DomainError(f"pearson_r requires at least 2 samples, got {n}")
    for series, flat in (("measured", flat_measured), ("predicted", flat_predicted)):
        if flat:
            return DomainError(f"pearson_r is undefined for a zero-variance {series} series")
    return None


def _near_flat(s: float, n: int, mean: float) -> bool:
    """Whether a mean's rounding, at most 2*EPS*|mean|, can move r or a slope over the deviations, whose squares
    sum to `s`, by 8*n*(EPS*mean)**2/s > EPS."""
    return s < 8 * n * _EPS * mean * mean


def _rescaled(name: str, deviations: list[float]) -> tuple[tuple[list[float], float, float], int]:
    """`_centred` of the deviations scaled by 2**-e, which brings the largest into [0.5, 1), and e."""
    e = math.frexp(max(map(abs, deviations)))[1]
    return _centred(name, [math.ldexp(d, -e) for d in deviations]), e


def published_divergence_notes(report: CalibrationReport) -> tuple[str, ...]:
    """Compare a recomputed report against `PUBLISHED_CALIBRATION`, the metrics published with the reference corpus.

    Returns one note per metric of a model in both that disagrees beyond
    its tolerance.  When a published after-correction row is internally
    inconsistent (its before-MSE and cf do not satisfy mse_after =
    mse_before - cf^2 but the identity value matches the other after
    cell), the note says the two printed cells appear transposed instead
    of flagging the recomputation as wrong.
    """
    as_instance("report", report, CalibrationReport, DataError)
    notes: list[str] = []
    for model_id, pub in PUBLISHED_CALIBRATION.items():
        calib = report.models.get(model_id)
        if calib is None:
            continue
        for key, label, unit, tolerance in _PUBLISHED_CHECKS:
            value = getattr(calib, key)
            if value is None or abs(value - pub[key]) <= tolerance:
                continue
            if key == "mse_after_db2":
                identity = pub["mse_before_db2"] - pub["cf_db"] ** 2
                if abs(identity - pub["cf_after_db"]) <= 0.005:
                    notes.append(
                        f"{model_id}: published after-correction cells are internally "
                        f"inconsistent: mse_before - cf^2 = {identity:.4f} dB^2 matches the "
                        f"published after-correction cf cell {pub['cf_after_db']:g}, not the published "
                        f"mse cell {pub[key]:g}; the two cells appear transposed "
                        f"(computed mse_after = {value:.4f} dB^2)"
                    )
                    continue
            notes.append(f"{model_id}: computed {label} {value:.4f}{unit} differs from published {pub[key]:g}{unit}")
    return tuple(notes)


def decade_slope(distances_m: Sequence[float], loss_db: Sequence[float]) -> float:
    """Least-squares slope of loss versus log10(distance), dB per decade; a single distance raises DomainError.

    For the log10 values `math.log10` gives, the error is at most 6*eps*|slope| + 3*eps*sqrt(syy/sll) +
    n*(|dl*dy| + 2**-1074)/sll + 2**-1074, eps = 2**-53: sll and syy are the sums of squared deviations of
    the logs and of the loss, and dl, dy the rounding of each mean, at most 2*eps*|mean| + 2**-1074.  Logs
    so near-flat that their mean's rounding matters are rescaled and centred again, as in `pearson_r`.
    """
    return _checked_slope(distances_m, loss_db)[4]


def _checked_slope(
    distances_m: Sequence[float], loss_db: Sequence[float]
) -> tuple[tuple, list[float], tuple, tuple[list[float], float, float], float]:
    """Both series as checked floats, with the log10 of each distance between them, then the loss centred by
    `_centred` and their slope from centred `fsum` sums: the same bits on any Python."""
    distances = _finite_series("distance", distances_m)
    loss = _finite_series("loss", loss_db, len(distances))
    checked_column("distance", distances, DomainError, "sample {}: distance must be positive, got {!r}".format, LEAST_POSITIVE)
    logs = list(map(math.log10, distances))
    dl, sll, ml = _centred("distance", logs)
    if sll == 0.0:
        raise DomainError("decade slope undefined: every sample lies at the same distance")
    if _near_flat(sll, len(dl), ml):  # the slope over deviations scaled by 2**-e is 2**e times as large
        (dl, sll, _), e = _rescaled("distance", dl)
        sll = math.ldexp(sll, e)
    centred_loss = _centred("loss", loss)
    return distances, logs, loss, centred_loss, math.fsum(map(operator.mul, dl, centred_loss[0])) / sll


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

    def __post_init__(self) -> None:
        as_instance("model_id", self.model_id, str, DomainError)
        object.__setattr__(self, "params", dict(as_mapping("params", self.params, DomainError)))
        checked_fields(self, nonnegative, "fit_mse_db2")
        checked_fields(self, finite, "decade_slope_db")
        if type(self.evaluated) is not int or self.evaluated < 1:
            raise DomainError(f"evaluated must be a positive int, got {self.evaluated!r}")


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
    is screened in O(1) instead (`_screen`); a point it does not cover,
    with a target or coefficient that `_screenable` rejects or a SUI d0
    not below every distance, is scored sample by sample, in order.  Only
    points whose lower bound is at most the lowest upper bound so far are
    kept, and only those are scored sample by sample at the end.  A
    screened point raises each of its range notes once; a point scored
    sample by sample raises them per sample.
    """
    distances, logs, target, centred_target, slope = _checked_slope(distances_m, path_loss_db)
    if model_id not in MODEL_IDS:
        raise DomainError(f"unknown model id {model_id!r}")
    if not as_mapping("grid", grid, DomainError):
        raise DomainError("parameter grid is empty")
    names = list(grid)
    axes = [as_column(f"parameter grid axis {name!r}", grid[name], DomainError) for name in names]
    fixed = {} if base is None else dict(as_mapping("base", base, DomainError))
    checked_base = _model_arguments(fixed)
    checked_axes = []
    for name, axis in zip(names, axes):
        if not axis:
            raise DomainError(f"parameter grid axis {name!r} is empty")
        checked = (_model_arguments({name: value})[name] for value in axis)
        # by position, each value its check changed: an axis of floats is its own checked axis, with no copy
        changed = {i: c for i, (value, c) in enumerate(zip(axis, checked)) if c is not value}
        checked_axes.append(tuple(changed.get(i, value) for i, value in enumerate(axis)) if changed else axis)
    # an axis that sets a `make_model` argument, with no None to remove it, is put into each point's arguments; the
    # values of the others, with the base, give the rest, each SUI and Ericsson object among them built once
    plain = [_MODEL_PARAMS[name][1] is None and None not in axis for name, axis in zip(names, checked_axes)]
    targets = list(itertools.compress(names, plain))
    others = [not own for own in plain]

    # bounded, or an axis of a million SUI d0 values would keep a million; a call that raises keeps nothing
    @functools.lru_cache(maxsize=1024)
    def arguments(values: tuple) -> dict[str, object]:
        return _make_model_kwargs({**checked_base, **dict(zip(itertools.compress(names, others), values))})

    log_km = [v - 3.0 for v in logs]  # `_log_km` of the distances, from the logs the slope took
    interval = _screen(log_km, centred_target) if _screenable(*target) else None
    nearest = min(distances)
    ceiling = math.inf  # the lowest upper bound on a fit so far
    kept: list[tuple[float, int, PathLossModel, float | None]] = []  # low, index in product order, model, fit if known
    first_failure: DomainError | None = None
    for index, combo in enumerate(itertools.product(*checked_axes)):
        try:
            kwargs = arguments(tuple(itertools.compress(combo, others)))
            model = make_model(model_id, **dict(kwargs, **dict(zip(targets, itertools.compress(combo, plain)))))
            screened = interval and model.min_distance_m < nearest and _screenable(model.c0, model.c1, model.c2)
            fit = None if screened else _fit(model, distances, log_km, target)
        except DomainError as exc:
            first_failure = first_failure or exc
            continue
        low, high = interval(model) if fit is None else (fit, fit)
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


def _screen(
    log_km: list[float], centred_target: tuple[list[float], float, float]
) -> Callable[[PathLossModel], tuple[float, float]]:
    """Bounds on `_fit` against the target p, given centred by `_centred`, of each model c0 + c1*L + c2*L**2, L =
    `_log_km` of the distances; a call raises the model's range notes once.  Over x = -p and a budget of 0 the residual
    is the loss minus p, so the fit is the mse_before that `_calibrate_models` computes from `_moment_sums` and bounds.
    For `_screenable` p and coefficients, `_fit` lies within 256*eps*W + 2**-400 of it, with eps, t, s, m, Wx and Wy as
    there and W = mean(p**2) + 3*(c0**2 + c1**2*mean(L**2) + c2**2*mean(L**4)), at least mean(p**2 + m_i**2), m_i = |c0|
    + |c1*L_i| + |c2|*L_i**2.  So the exact fit F is at most 2*W, |cf| at most sqrt(F), m at most sqrt(2*W) and Wx + Wy
    at most W, and the stated bound below 177.1*eps*W + 9*s*s*t, as 2*sqrt(W) <= 1 + W.  `_fit` squares each error off
    by eps of itself plus 5*eps*m_i and rounds 3 times more, so it lies within 5.1*eps*F + 10.1*eps*sqrt(F*W) +
    26*eps**2*W, at most 24.5*eps*W, of F.  2**-400 exceeds 9*s*s*t, and the rest of 256*eps*W covers the rounding of W,
    its means taken from the sums as s/n + mean**2, and of the interval.
    """
    n = len(centred_target[0])
    # the sums of x = -p are p's with the x products and mean negated: every rounding is sign-symmetric, so each is
    # the float that centring -p gives, up to the sign of a zero
    (sxx, sll, sqq, spl, spq, slq), (mp, ml, mq) = _moment_sums(centred_target, log_km)
    sums, means = (sxx, sll, sqq, -spl, -spq, slq), (-mp, ml, mq)
    wx, wl, wq = (total / n + mean * mean for total, mean in zip(sums, means))  # of p**2, L**2 and L**4

    def interval(model: PathLossModel) -> tuple[float, float]:
        _range_warnings(model.range_notes)
        c0, c1, c2 = model.c0, model.c1, model.c2
        before = _moment_fit(c0, c1, c2, 0.0, n, sums, means)[1]
        radius = 256 * _EPS * (wx + 3 * (c0 * c0 + c1 * c1 * wl + c2 * c2 * wq)) + 2**-400
        return before - radius, before + radius

    return interval


def _screenable(*values: float) -> bool:
    """Whether each value is 0 or of a magnitude at which no product in `_fit` or `_moment_score` leaves the normal
    range: where `_calibrate_models`' bound, and with it `infer_site_parameters`' screen, holds."""
    return all(v == 0.0 or 1e-60 <= abs(v) <= 1e100 for v in values)


def _fit(model: PathLossModel, distances: Sequence[float], log_km: Sequence[float], target: Sequence[float]) -> float:
    """The model's mean squared error against the target, sample by sample: the fit `infer_site_parameters` reports."""
    error = list(map(operator.sub, model._losses(distances, log_km), target))  # `distances` is checked once, by the caller
    return _sum_squares(model.model_id, error) / len(error)
