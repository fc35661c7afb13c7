"""`infer_site_parameters` against a search that scores every grid point sample by sample.

The search screens each grid point from the centred moment sums that the
CLI's `calibrate` and `compare` score from, with one stated bound, and
scores sample by sample only the points that can still win.  These tests
check that it returns what scoring every point returns, to the bit; that
each screened interval holds both the fit scored sample by sample and the
exact fit of `exact.py`, and covers the moment route's stated bound; that
a point the bound does not cover is scored sample by sample, in product
order; that a drive test or the corpus scores one point sample by sample
per command; and that memory does not grow with the grid.  Each point
binds from the base and axis values checked once; the search must return
what binding every point through `model_from_params` returns, with no
value checked twice.
"""

import collections
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import exact
from propcal import (
    METROPOLITAN, MODEL_IDS, TERRAIN_A, DomainError, Environment, EricssonParams, InferenceResult, SuiParams, TerrainCategory,
    calibration, decade_slope, infer_site_parameters, model_from_params, models,
)
from propcal.calibration import _centred, _fit, _moment_fit, _moment_sums, _screen, _screenable
from propcal.cli import _default_grid, main
from propcal.models import PathLossModel, _log_km

pytestmark = pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")

SEARCH = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
BASE = {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0}
# duplicates tie exactly; heights 1e-14 apart give coefficients a few units in the last place apart, whose fits
# differ by less than the screen's bounds can tell
HEIGHTS = (10.0, *(30.0 * (1.0 + k * 1e-14) for k in range(-3, 4)), 30.000001, 47.5, 100.0)
# axes besides the height; a model that ignores one ties exactly along it, and "A" binds as TERRAIN_A does
AXES = {
    "environment": ["medium_suburban", "metropolitan"],
    "terrain": ["A", TERRAIN_A, "C"],
    "sui_d0_m": [1.0, 100.0, 5000.0],  # a d0 at or above the nearest distance fails
    "ericsson_a1": [30.2, 1e50, 1e200, 1e300],  # squared errors past the float range fail
    "rx_height_m": [1.5, 3.0],
}


def every_point(distances, loss, model_id, grid):
    """The params and fit of the first lowest fit over every grid point, scored sample by sample, and the first failure."""
    best, best_fit, first_failure = None, math.inf, None
    for combo in itertools.product(*grid.values()):
        params = {**BASE, **dict(zip(grid, combo))}
        try:
            losses = model_from_params(model_id, params).path_loss_series(distances)
            errors = [value - target for value, target in zip(losses, loss)]
            try:
                fit = math.fsum(e * e for e in errors) / len(errors)
            except (OverflowError, ValueError):
                fit = math.inf
            if not math.isfinite(fit):
                raise DomainError(f"{model_id} series: a sum over its values overflows the float range")
        except DomainError as exc:
            first_failure = first_failure or exc
            continue
        if fit < best_fit:
            best, best_fit = params, fit
    return best, best_fit, first_failure


@st.composite
def distance_series(draw):
    """Distances in meters: spread over a drive test, or a few units in the last place apart."""
    n = draw(st.integers(2, 25))
    if draw(st.booleans()):
        return [draw(st.floats(150.0, 20000.0)) for _ in range(n)]
    centre = draw(st.floats(150.0, 20000.0))
    steps = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n, unique=True))
    return [centre + step * math.ulp(centre) for step in steps]


@st.composite
def searches(draw):
    """A model, a grid with ties and failing points, distances, and targets near a grid point or far from any."""
    model_id = draw(st.sampled_from(MODEL_IDS))
    grid = {"tx_height_m": draw(st.lists(st.sampled_from(HEIGHTS), min_size=1, max_size=8))}
    extra = draw(st.sampled_from([None, *AXES]))
    if extra is not None:
        grid[extra] = draw(st.lists(st.sampled_from(AXES[extra]), min_size=1, max_size=3))
    distances = draw(distance_series())
    kind = draw(st.sampled_from(("exact", "noisy", "flat", "huge", "tiny")))
    n = len(distances)
    if kind in ("exact", "noisy"):
        hidden = {**BASE, "tx_height_m": draw(st.sampled_from(HEIGHTS))}
        loss = model_from_params(model_id, hidden).path_loss_series(distances)
        if kind == "noisy":
            loss = [value + draw(st.floats(-3.0, 3.0)) for value in loss]
    elif kind == "flat":
        loss = [draw(st.floats(60.0, 180.0))] * n
    elif kind == "huge":  # beyond the magnitudes the screen bounds: every point is scored sample by sample
        loss = [draw(st.floats(0.5, 1.0)) * 1e200 for _ in range(n)]
    else:
        loss = [draw(st.sampled_from((0.0, 1e-70, 140.0))) for _ in range(n)]
    return distances, loss, model_id, grid


@SEARCH
@given(searches())
def test_the_search_returns_what_scoring_every_point_returns(case):
    distances, loss, model_id, grid = case
    best, fit, failure = every_point(distances, loss, model_id, grid)
    try:
        decade_slope(distances, loss)  # the search reports it, and it fails first: a single distance, or an overflow
    except DomainError as exc:
        failure, best = exc, None
    else:
        failure = f"no {model_id} grid point can be scored; the first fails: {failure}"
    if best is None:
        with pytest.raises(DomainError) as info:
            infer_site_parameters(distances, loss, model_id, grid, base=BASE)
        assert str(info.value) == str(failure)
        return
    result = infer_site_parameters(distances, loss, model_id, grid, base=BASE)
    assert list(result.params.items()) == list(best.items())
    assert result.fit_mse_db2.hex() == fit.hex()
    assert result.evaluated == math.prod(map(len, grid.values()))


def magnitudes(low, high):
    """0, or a float of either sign with magnitude in [low, high]."""
    exponents = st.integers(math.frexp(low)[1], math.frexp(high)[1] - 1)
    value = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), exponents)
    signed = st.builds(lambda v, sign: sign * v, value, st.sampled_from((1.0, -1.0)))
    return st.one_of(st.just(0.0), signed.filter(lambda v: low <= abs(v) <= high))


@st.composite
def screened_points(draw):
    """Coefficients and targets inside the magnitudes the screen bounds, the targets often within ulps of the model."""
    c0, c1, c2 = (draw(magnitudes(1e-60, 1e100)) for _ in range(3))
    model = PathLossModel("m", c0, c1, c2)
    n = draw(st.integers(1, 20))
    wide = draw(st.booleans())
    distances = [10.0 ** draw(st.floats(-300.0, 300.0) if wide else st.floats(1.0, 5.0)) for _ in range(n)]
    loss = [value + draw(st.integers(-4, 4)) * math.ulp(value) for value in model._losses(distances)]
    if draw(st.booleans()) or not _screenable(*loss):
        loss = [draw(magnitudes(1e-60, 1e100)) for _ in range(n)]
    return model, distances, loss


@SEARCH
@given(screened_points())
def test_each_screened_interval_holds_the_exact_fit_and_the_fit_scored_sample_by_sample(case):
    model, distances, loss = case
    log_km = _log_km(distances)
    low, high = _screen(log_km, loss)(model)
    assert low <= _fit(model, distances, log_km, loss) <= high
    # the fit is the mse_before of x = -loss against the prediction of a budget of 0, whose residual is loss - target
    measured = [-value for value in loss]
    exact_fit = exact.mse(measured, exact.model_prediction(log_km, model.c0, model.c1, model.c2, 0.0))
    assert Fraction(low) <= exact_fit <= Fraction(high)
    # the interval is centred on the moment route's mse_before, which lies within its stated bound of the exact fit,
    # and it covers that bound
    sums, means = _moment_sums(_centred("loss", measured), log_km)
    before = Fraction(_moment_fit(model.c0, model.c1, model.c2, 0.0, len(loss), sums, means)[1])
    bound = exact.moment_bounds(measured, log_km, model.c0, model.c1, model.c2, 0.0)[1]
    assert abs(before - exact_fit) <= bound
    assert Fraction(low) <= before - bound and before + bound <= Fraction(high)


def _drive_test(model_id, seed=1, rows=300):
    """A seeded drive test: log-uniform distances, the loss of a hidden height plus Gaussian noise."""
    rng = random.Random(seed)
    distances = sorted(10.0 ** rng.uniform(math.log10(200.0), 4.0) for _ in range(rows))
    hidden = model_from_params(model_id, {**BASE, "tx_height_m": 37.0})
    return distances, [value + rng.gauss(0.0, 4.0) for value in hidden.path_loss_series(distances)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model_id", ["cost231_hata", "extended_cost231", "sui", "ericsson"])
def test_a_drive_test_scores_one_grid_point_sample_by_sample(model_id, seed, monkeypatch):
    distances, loss = _drive_test(model_id, seed)
    scored = []
    losses = PathLossModel._losses
    monkeypatch.setattr(PathLossModel, "_losses", lambda model, *args: scored.append(model) or losses(model, *args))
    result = infer_site_parameters(distances, loss, model_id, _default_grid(model_id), base=BASE)
    assert len(scored) == 1
    assert result.evaluated == math.prod(map(len, _default_grid(model_id).values()))


@pytest.mark.parametrize("model_id", ["cost231_hata", "extended_cost231", "sui", "ericsson"])
def test_infer_on_the_corpus_scores_one_grid_point_sample_by_sample(model_id):
    with mock.patch.object(calibration, "_fit", wraps=calibration._fit) as fit:
        assert main(["infer", "--model", model_id, "--data", "embedded:reference"]) == 0
    assert fit.call_count == 1


def _fit_calls(distances, loss, model_id, grid):
    """The search's result, and the coefficients of each model it scored sample by sample, in call order."""
    with mock.patch.object(calibration, "_fit", wraps=calibration._fit) as fit:
        result = infer_site_parameters(distances, loss, model_id, grid, base=BASE)
    return result, [(call.args[0].c0, call.args[0].c1, call.args[0].c2) for call in fit.call_args_list]


def _coefficients(model_id, grid):
    """The coefficients of each grid point's model, in product order."""
    points = itertools.product(*grid.values())
    bound = (model_from_params(model_id, {**BASE, **dict(zip(grid, combo))}) for combo in points)
    return [(model.c0, model.c1, model.c2) for model in bound]


@pytest.mark.parametrize("target", [1e-70, 2e100], ids=["tiny", "huge"])
def test_a_target_the_screen_does_not_cover_sends_every_point_to_be_scored_sample_by_sample(target):
    grid = {"tx_height_m": [30.0, 40.0, 50.0], "environment": ["medium_suburban", "metropolitan"]}
    loss = model_from_params("cost231_hata", BASE).path_loss_series(BIND_DISTANCES)
    loss[3] = target
    result, scored = _fit_calls(BIND_DISTANCES, loss, "cost231_hata", grid)
    assert scored == _coefficients("cost231_hata", grid)
    best, fit, _ = every_point(BIND_DISTANCES, loss, "cost231_hata", grid)
    assert list(result.params.items()) == list(best.items())
    assert result.fit_mse_db2.hex() == fit.hex()


@pytest.mark.parametrize("model_id, grid, fallback", [
    ("ericsson", {"tx_height_m": [30.0, 40.0], "ericsson_a1": [30.2, 1e120, 25.0]}, [1, 4]),  # c0 above 1e100
    ("sui", {"tx_height_m": [30.0, 40.0], "sui_d0_m": [100.0, 200.0, 5000.0]}, [1, 2, 4, 5]),  # d0 not below 200 m
], ids=["coefficient", "sui_d0"])
def test_a_point_the_screen_does_not_cover_is_scored_sample_by_sample_in_product_order(model_id, grid, fallback):
    hidden = model_from_params(model_id, {**BASE, "tx_height_m": 37.0})
    loss = [value + 0.5 for value in hidden.path_loss_series(BIND_DISTANCES)]
    result, scored = _fit_calls(BIND_DISTANCES, loss, model_id, grid)
    points = _coefficients(model_id, grid)
    # each such point in product order, then the one screened point that can still win
    assert scored[:len(fallback)] == [points[i] for i in fallback] and len(scored) == len(fallback) + 1
    best, fit, _ = every_point(BIND_DISTANCES, loss, model_id, grid)
    assert list(result.params.items()) == list(best.items())
    assert result.fit_mse_db2.hex() == fit.hex()


def test_memory_does_not_grow_with_the_grid():
    distances, loss = _drive_test("ericsson", rows=60)

    def peak(points):
        grid = {"tx_height_m": [10.0 + 90.0 * i / (points - 1) for i in range(points)]}
        tracemalloc.start()
        try:
            infer_site_parameters(distances, loss, "ericsson", grid, base=BASE)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2_001), peak(20_001)
    # the search copies each axis, 8 bytes a point; a point kept to the end would cost hundreds
    assert large - small < 16 * (20_001 - 2_001)


# -- binding each grid point from the base and axis values checked once ----------------------------------------

# the values each key takes: numbers as floats, ints and Fractions, names as str and as objects (one equal to a
# named one but not it), and None, which removes the key; some SUI values fail at the bind (a d0 not above 0, an
# xh denominator not 2 or 2000) or at the first distance (a d0 not below it)
BIND_VALUES = {
    "freq_mhz": [2530.0, 1800, Fraction(9001, 5)],
    "tx_height_m": [10.0, 30, 47.5, Fraction(95, 2), None],
    "rx_height_m": [1.5, 3, Fraction(5, 2)],
    "environment": ["medium_suburban", "metropolitan", METROPOLITAN, Environment("metropolitan", 3.0), None],
    "terrain": ["A", "C", TERRAIN_A, TerrainCategory("C", 3.6, 0.005, 20.0), None],
    "sui_d0_m": [100.0, 50, Fraction(1, 2), 0, -5.0, 5000.0, None],
    "sui_shadow_db": [0.0, 2, None],
    "sui_xh_denominator_m": [2.0, 2000, 20.0, None],
    "ericsson_a1": [30.2, 25, Fraction(61, 2), None],
    "tx_gain_linear": [1.0, 2, None],
    "rx_gain_variant": ["medium_city", "large_city", None],
}
BIND_DISTANCES = [200.0 * 1.25**k for k in range(16)]


def reference_search(distances, loss, model_id, grid, base):
    """The search with every point bound through `model_from_params` and scored sample by sample."""
    slope = decade_slope(distances, loss)
    log_km = _log_km(distances)
    best, first_failure = None, None
    for combo in itertools.product(*grid.values()):
        params = dict(base)
        params.update(zip(grid, combo))
        try:
            fit = _fit(model_from_params(model_id, params), distances, log_km, loss)
        except DomainError as exc:
            first_failure = first_failure or exc
            continue
        if best is None or fit < best[0]:
            best = (fit, params)
    if best is None:
        raise DomainError(f"no {model_id} grid point can be scored; the first fails: {first_failure}")
    return InferenceResult(model_id, best[1], best[0], slope, math.prod(map(len, grid.values())))


@st.composite
def bind_searches(draw):
    """A model, a base and a grid over `BIND_VALUES` with duplicates, axes that override base keys and points that
    fail, and a target near one model's loss."""
    model_id = draw(st.sampled_from(MODEL_IDS))
    keys = st.sampled_from(sorted(BIND_VALUES))
    base = {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0}
    for key in draw(st.lists(keys, max_size=3)):
        base[key] = draw(st.sampled_from(BIND_VALUES[key]))
    grid = {key: draw(st.lists(st.sampled_from(BIND_VALUES[key]), min_size=1, max_size=4))
            for key in draw(st.lists(keys, min_size=1, max_size=3, unique=True))}
    hidden = model_from_params(model_id, {"freq_mhz": 2530.0, "tx_height_m": draw(st.sampled_from(HEIGHTS)), "rx_height_m": 3.0})
    loss = [value + draw(st.sampled_from((0.0, 0.5, -1.0))) for value in hidden.path_loss_series(BIND_DISTANCES)]
    return loss, model_id, grid, base


@SEARCH
@given(bind_searches())
@example(([130.0] * 16, "sui", {"sui_d0_m": [0, -5.0, 5000.0]}, {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0}))
def test_the_search_binds_each_point_as_model_from_params_does(case):
    loss, model_id, grid, base = case
    try:
        expected = reference_search(BIND_DISTANCES, loss, model_id, grid, base)
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            infer_site_parameters(BIND_DISTANCES, loss, model_id, grid, base=base)
        assert str(info.value) == str(exc)
        return
    result = infer_site_parameters(BIND_DISTANCES, loss, model_id, grid, base=base)
    assert result == expected
    assert repr(result) == repr(expected)  # the same types and bits: 30 stays an int, "A" a name


# the default SUI grid: one check for the base and one per axis value (1 + 96), one bind per point, one SuiParams per
# (terrain, xh denominator) pair; an Ericsson grid: 1 + 7 checks, 12 points, one EricssonParams per (a1, a3) pair
WORK = {
    "sui": (_default_grid("sui"), {"checks": 97, "binds": 546, "sui_params": 6}),
    "ericsson": (
        {"tx_height_m": [30.0, 40.0, 50.0], "ericsson_a1": [25.0, 30.2], "ericsson_a3": [0.1, None]},
        {"checks": 8, "binds": 12, "ericsson_params": 4},
    ),
}


@pytest.mark.parametrize("model_id", sorted(WORK))
def test_the_search_checks_each_value_once_and_binds_each_point_once(model_id, monkeypatch):
    distances, loss = _drive_test(model_id)
    grid, expected = WORK[model_id]
    counts = collections.Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return call

    checks = counted("checks", models._model_arguments)
    monkeypatch.setattr(models, "_model_arguments", checks)
    monkeypatch.setattr(calibration, "_model_arguments", checks)
    binds = counted("binds", models.make_model)
    monkeypatch.setattr(models, "make_model", binds)
    monkeypatch.setattr(calibration, "make_model", binds, raising=False)
    monkeypatch.setattr(SuiParams, "__post_init__", counted("sui_params", SuiParams.__post_init__))
    monkeypatch.setattr(EricssonParams, "__post_init__", counted("ericsson_params", EricssonParams.__post_init__))
    infer_site_parameters(distances, loss, model_id, grid, base=BASE)
    assert counts == collections.Counter(expected)


@pytest.mark.parametrize("bind, key", [
    (lambda distances, loss: model_from_params("ericsson", {**BASE, "bogus": None}), "bogus"),
    (lambda distances, loss: infer_site_parameters(
        distances, loss, "ericsson", {"bogus": [None], "tx_height_m": [30.0, 40.0]}, base=BASE), "bogus"),
    (lambda distances, loss: infer_site_parameters(
        distances, loss, "ericsson", {"tx_height_m": [30.0, 40.0]}, base={**BASE, "nonsense": None}), "nonsense"),
], ids=["model_from_params", "grid", "base"])
def test_an_unknown_key_raises_even_with_a_none_value(bind, key):
    distances, loss = _drive_test("ericsson")
    with pytest.raises(DomainError) as info:
        bind(distances, loss)
    assert str(info.value) == f"unknown model parameters: [{key!r}]"
