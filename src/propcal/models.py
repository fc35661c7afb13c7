"""Empirical path-loss models for cellular and fixed-wireless planning.

Implemented predictors, all returning loss in dB:

* free-space loss, optionally folding in the transmit gain
* COST-231 Hata for medium-suburban and metropolitan clutter
* extended COST-231 Hata, returned with its component breakdown
* SUI terrain-class model with frequency and receiver-height corrections
* Ericsson log-distance regression model

Each formula is written once: `make_model` binds it to log-distance
coefficients, and the closed forms evaluate the model it binds.
Public entry points take distances in meters and frequencies in MHz and
convert internally where a formula wants km or GHz (mixed-unit bugs are
the dominant failure mode in this domain).  All functions are pure and
deterministic; shadowing is an explicit parameter, never sampled.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import KW_ONLY, dataclass, replace

from .errors import LEAST_POSITIVE, DomainError, as_instance, as_mapping, checked_column, finite, nonnegative, positive

LIGHT_SPEED_M_PER_S = 299_792_458.0

MODEL_IDS = ("fspl", "cost231_hata", "extended_cost231", "sui", "ericsson")

# Documented validity ranges for COST-231 Hata; evaluation outside them
# warns instead of raising because 2.5 GHz planning routinely stretches it.
COST231_FREQ_RANGE_MHZ = (150.0, 2000.0)
COST231_TX_HEIGHT_RANGE_M = (10.0, 200.0)
COST231_RX_HEIGHT_RANGE_M = (1.0, 10.0)


class ModelRangeWarning(UserWarning):
    """Inputs lie outside a model's documented validity range."""


def _cost231_range_notes(freq_mhz: float, tx_height_m: float, rx_height_m: float) -> tuple[str, ...]:
    """One message per COST-231 Hata input outside its documented range."""
    checks = (
        ("freq_mhz", freq_mhz, COST231_FREQ_RANGE_MHZ),
        ("tx_height_m", tx_height_m, COST231_TX_HEIGHT_RANGE_M),
        ("rx_height_m", rx_height_m, COST231_RX_HEIGHT_RANGE_M),
    )
    return tuple(
        f"cost231_hata: {name}={value:g} outside documented range {lo:g}-{hi:g}"
        for name, value, (lo, hi) in checks
        if not lo <= value <= hi
    )


def _non_finite_error(model_id: str) -> DomainError:
    return DomainError(f"{model_id}: the parameters give a non-finite path-loss coefficient")


@dataclass(frozen=True)
class Environment:
    """Clutter class for COST-231 Hata: a name plus its constant in dB."""

    name: str
    clutter_db: float

    def __post_init__(self) -> None:
        as_instance("name", self.name, str, DomainError)
        finite("clutter_db", self.clutter_db)


MEDIUM_SUBURBAN = Environment("medium_suburban", 0.0)
METROPOLITAN = Environment("metropolitan", 3.0)
ENVIRONMENTS: Mapping[str, Environment] = {
    MEDIUM_SUBURBAN.name: MEDIUM_SUBURBAN,
    METROPOLITAN.name: METROPOLITAN,
}


@dataclass(frozen=True)
class TerrainCategory:
    """SUI terrain class with its path-loss exponent constants.

    `a` is dimensionless, `b` is per meter of transmit height, `c` is in
    meters; together they set the exponent a - b*hb + c/hb.
    """

    name: str
    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        as_instance("name", self.name, str, DomainError)
        for field in ("a", "b", "c"):
            finite(field, getattr(self, field))


TERRAIN_A = TerrainCategory("A", 4.6, 0.0075, 12.6)
TERRAIN_B = TerrainCategory("B", 4.0, 0.0065, 17.1)
TERRAIN_C = TerrainCategory("C", 3.6, 0.005, 20.0)
TERRAINS: Mapping[str, TerrainCategory] = {
    "A": TERRAIN_A,
    "B": TERRAIN_B,
    "C": TERRAIN_C,
}


@dataclass(frozen=True)
class SuiParams:
    """Tunables of the SUI model besides frequency, heights and distance.

    `xh_denominator_m` normalizes the receiver height inside the height
    correction.  The physically sensible value is 2 m; 2000 m is kept as
    a compatibility mode because published forms of the correction vary
    (for a 3 m receiver it produces an implausible +30 dB).
    """

    terrain: TerrainCategory = TERRAIN_B
    d0_m: float = 100.0
    shadow_db: float = 0.0
    xh_denominator_m: float = 2.0

    def __post_init__(self) -> None:
        as_instance("terrain", self.terrain, TerrainCategory, DomainError)
        positive("d0_m", self.d0_m)
        nonnegative("shadow_db", self.shadow_db)
        if self.xh_denominator_m not in (2.0, 2000.0):
            raise DomainError(
                f"xh_denominator_m must be 2 or 2000, got {self.xh_denominator_m!r}"
            )


@dataclass(frozen=True)
class EricssonParams:
    """Regression coefficients of the Ericsson model.

    Defaults are the conventional urban set; their distance slope at a
    40 m transmitter (30.36 dB/decade) matches drive-test practice.
    """

    a0: float = 36.2
    a1: float = 30.2
    a2: float = -12.0
    a3: float = 0.1

    def __post_init__(self) -> None:
        for field in ("a0", "a1", "a2", "a3"):
            finite(field, getattr(self, field))


ERICSSON_URBAN = EricssonParams()


@dataclass(frozen=True)
class ExtendedCost231Loss:
    """Extended COST-231 Hata result with its component breakdown.

    total = free_space + basic_median - tx_height_gain - rx_height_gain
    """

    free_space_db: float
    basic_median_db: float
    tx_height_gain_db: float
    rx_height_gain_db: float

    def __post_init__(self) -> None:
        a, b, c, d = self.free_space_db, self.basic_median_db, self.tx_height_gain_db, self.rx_height_gain_db
        # four floats with a finite sum, as every bind gives, are finite; anything else is checked field by field
        if not (type(a) is type(b) is type(c) is type(d) is float and math.isfinite(a + b + c + d)):
            for field in ("free_space_db", "basic_median_db", "tx_height_gain_db", "rx_height_gain_db"):
                finite(field, getattr(self, field))

    @property
    def total_db(self) -> float:
        return (
            self.free_space_db
            + self.basic_median_db
            - self.tx_height_gain_db
            - self.rx_height_gain_db
        )


def fspl(freq_mhz: float, distance_km: float, tx_gain_linear: float = 1.0) -> float:
    """Free-space path loss in dB.

    32.45 - 10*log10(Gt) + 20*log10(f_MHz) + 20*log10(d_km); with a unit
    transmit gain the classic constant-plus-two-log form is recovered.
    """
    model = make_model("fspl", freq_mhz, tx_gain_linear=tx_gain_linear)
    distance_m = positive("distance_km", distance_km) * 1000.0
    if distance_m == math.inf:
        raise DomainError(f"distance_km {distance_km!r} is too large to convert to meters")
    return model._losses((distance_m,))[0]


def mobile_station_correction(rx_height_m: float) -> float:
    """Receiver-antenna correction a(hr) in dB, large-city form.

    3.2*(log10(11.75*hr))^2 - 4.97; close to zero at the usual 1.5 m.
    """
    return _defined("mobile_station_correction", _rx_height_term, positive("rx_height_m", rx_height_m)) - 4.97


def _rx_height_term(hr: float) -> float:
    """3.2*(log10(11.75*hr))^2: a(hr) without its constant, and the receiver term of the Ericsson model."""
    return 3.2 * math.log10(11.75 * hr) ** 2


def cost231_hata(
    freq_mhz: float,
    tx_height_m: float,
    rx_height_m: float,
    distance_m: float,
    environment: Environment = MEDIUM_SUBURBAN,
) -> float:
    """COST-231 Hata path loss in dB.

    46.3 + 33.9*log10(f) - 13.82*log10(hb) - a(hr)
         + (44.9 - 6.55*log10(hb))*log10(d_km) + clutter

    Documented ranges (violations warn rather than raise): frequency
    150-2000 MHz, transmit height 10-200 m, receiver height 1-10 m.
    """
    model = make_model("cost231_hata", freq_mhz, tx_height_m, rx_height_m, environment=environment)
    return model.path_loss_db(distance_m)


def extended_cost231(
    freq_mhz: float,
    tx_height_m: float,
    rx_height_m: float,
    distance_m: float,
    rx_gain_variant: str = "medium_city",
) -> ExtendedCost231Loss:
    """Extended COST-231 Hata loss with component breakdown.

    Components (d in km, f in GHz):

      free_space     = 92.4 + 20*log10(d) + 20*log10(f)
      basic_median   = 20.41 + 9.83*log10(d) + 7.894*log10(f)
                        + 9.56*(log10 f)^2
      tx_height_gain = log10(hb/200) * (13.958 + 5.8*(log10 d)^2)
      rx_height_gain = (42.57 + 13.7*log10 f) * (log10 hr - 0.585)
                       (medium_city) or 0.759*hr - 1.862 (large_city)
    """
    return _defined(
        "extended_cost231", _extended_cost231, positive("freq_mhz", freq_mhz), positive("tx_height_m", tx_height_m),
        positive("rx_height_m", rx_height_m), positive("distance_m", distance_m), rx_gain_variant,
    )


def _extended_cost231(
    freq_mhz: float, tx_height_m: float, rx_height_m: float, distance_m: float, rx_gain_variant: str
) -> ExtendedCost231Loss:
    freq_ghz = freq_mhz / 1000.0
    distance_km = distance_m / 1000.0
    log_f = math.log10(freq_ghz)
    log_d = math.log10(distance_km)
    if rx_gain_variant == "large_city":
        rx_gain = 0.759 * rx_height_m - 1.862
    elif rx_gain_variant == "medium_city":
        rx_gain = (42.57 + 13.7 * log_f) * (math.log10(rx_height_m) - 0.585)
    else:
        raise DomainError(f"unknown rx_gain_variant {rx_gain_variant!r}")
    free_space = 92.4 + 20.0 * log_d + 20.0 * log_f
    basic_median = 20.41 + 9.83 * log_d + 7.894 * log_f + 9.56 * log_f**2
    tx_gain = math.log10(tx_height_m / 200.0) * (13.958 + 5.8 * log_d**2)
    return ExtendedCost231Loss(free_space, basic_median, tx_gain, rx_gain)


def sui_gamma(tx_height_m: float, terrain: TerrainCategory) -> float:
    """SUI path-loss exponent: a - b*hb + c/hb for the terrain class."""
    as_instance("terrain", terrain, TerrainCategory, DomainError)
    return _defined("sui_gamma", _sui_gamma, positive("tx_height_m", tx_height_m), terrain)


def _sui_gamma(tx_height_m: float, terrain: TerrainCategory) -> float:
    return terrain.a - terrain.b * tx_height_m + terrain.c / tx_height_m


def sui_corrections(
    freq_mhz: float, rx_height_m: float, params: SuiParams
) -> tuple[float, float]:
    """SUI frequency and receiver-height corrections (Xf, Xh) in dB.

    Xf = 6.0*log10(f/2000).  Xh = -10.8*log10(hr/D) for terrains A and B
    and -20*log10(hr/D) for terrain C, with D = params.xh_denominator_m.
    """
    as_instance("params", params, SuiParams, DomainError)
    freq_mhz = positive("freq_mhz", freq_mhz)
    return _defined("sui_corrections", _sui_corrections, freq_mhz, positive("rx_height_m", rx_height_m), params)


def _sui_corrections(freq_mhz: float, rx_height_m: float, params: SuiParams) -> tuple[float, float]:
    xf = 6.0 * math.log10(freq_mhz / 2000.0)
    coeff = -20.0 if params.terrain.name == "C" else -10.8
    xh = coeff * math.log10(rx_height_m / params.xh_denominator_m)
    return xf, xh


def sui_path_loss(
    freq_mhz: float,
    tx_height_m: float,
    rx_height_m: float,
    distance_m: float,
    params: SuiParams = SuiParams(),
) -> float:
    """SUI path loss in dB, defined only for distances beyond d0.

    A + 10*gamma*log10(d/d0) + Xf + Xh + s, where A is the free-space
    loss at the reference distance, 20*log10(4*pi*d0/lambda).
    """
    model = make_model("sui", freq_mhz, tx_height_m, rx_height_m, sui_params=params)
    return model.path_loss_db(distance_m)


def ericsson_frequency_term(freq_mhz: float) -> float:
    """Frequency-dependent term of the Ericsson model, g(f) in dB.

    44.49*log10(f) - 4.78*(log10 f)^2.
    """
    return _defined("ericsson_frequency_term", _ericsson_frequency_term, positive("freq_mhz", freq_mhz))


def _ericsson_frequency_term(freq_mhz: float) -> float:
    log_f = math.log10(freq_mhz)
    return 44.49 * log_f - 4.78 * log_f**2


def ericsson_path_loss(
    freq_mhz: float,
    tx_height_m: float,
    rx_height_m: float,
    distance_m: float,
    params: EricssonParams = ERICSSON_URBAN,
) -> float:
    """Ericsson model path loss in dB (distance term in km).

    a0 + a1*log10(d) + a2*log10(hb) + a3*log10(hb)*log10(d)
       - 3.2*(log10(11.75*hr))^2 + g(f)
    """
    model = make_model("ericsson", freq_mhz, tx_height_m, rx_height_m, ericsson_params=params)
    return model.path_loss_db(distance_m)


@dataclass(frozen=True, slots=True)
class PathLossModel:
    """A named predictor mapping distance in meters to path loss in dB.

    Once its site is fixed, every model here is a polynomial of degree
    at most 2 in L = log10(d_km):

        loss = c0 + c1*L + c2*L**2,   defined for d > min_distance_m

    `make_model` computes the coefficients once.  `min_distance_m` is
    SUI's reference distance d0 and 0 for the other models; c2 is
    nonzero only for extended COST-231 Hata.  A correction is a shift of
    c0.  `range_notes` are the documented-range violations found at bind
    time: every evaluated distance raises each of them once as a
    `ModelRangeWarning`.  `name` defaults to `model_id`.  A coefficient
    that is not a finite real number, a `min_distance_m` that is not a
    finite number at or above 0, or `range_notes` that are not a tuple
    of str raise `DomainError`.  Instances are frozen: `corrected`
    returns a new model.
    """

    model_id: str
    c0: float
    c1: float
    c2: float = 0.0
    _: KW_ONLY
    min_distance_m: float = 0.0
    range_notes: tuple[str, ...] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        c0, c1, c2, low, notes = self.c0, self.c1, self.c2, self.min_distance_m, self.range_notes
        # four floats with a finite sum are finite; anything else is checked field by field
        if not (type(c0) is type(c1) is type(c2) is type(low) is float and math.isfinite(c0 + c1 + c2 + low)
                and low >= 0.0):
            for label, value in (("c0", c0), ("c1", c1), ("c2", c2)):
                if isinstance(value, float) and not math.isfinite(value):
                    raise _non_finite_error(self.model_id)
                finite(f"{self.model_id} coefficient {label}", value)
            nonnegative("min_distance_m", low)
        if notes != ():  # no range notes, as most binds give, need no join
            try:
                "".join(notes if isinstance(notes, tuple) else None)  # only a tuple of str joins
            except TypeError:
                raise DomainError(f"range_notes must be a tuple of str, got {notes!r}") from None
        if self.name is None:
            object.__setattr__(self, "name", self.model_id)

    def path_loss_db(self, distance_m: float) -> float:
        return self._losses((positive("distance_m", distance_m),))[0]

    def path_loss_series(self, distances_m: Sequence[float]) -> list[float]:
        """Path loss in dB at each distance, the column checked once.

        Distances must be positive finite numbers, then above `min_distance_m`;
        the first in order that is not raises `DomainError`, as does the
        first distance whose loss overflows to a non-finite value.
        """
        return self._losses(_checked_distances(distances_m))

    def _losses(self, distances_m: Sequence[float], log_km: Sequence[float] | None = None) -> list[float]:
        """`path_loss_series` of distances already checked to be positive floats, as by `_checked_distances`;
        `log_km` is their `_log_km`, given by a caller that evaluates several models at the same distances."""
        bound = self.min_distance_m
        if bound and distances_m and min(distances_m) <= bound:
            d = next(d for d in distances_m if d <= bound)
            raise DomainError(f"sui_path_loss requires distance_m > d0 ({bound:g} m), got {d:g} m")
        if self.range_notes:
            _range_warnings(self.range_notes, len(distances_m))
        c0, c1, c2 = self.c0, self.c1, self.c2
        losses = [c0 + (c1 + c2 * L) * L for L in (_log_km(distances_m) if log_km is None else log_km)]
        if not math.isfinite(sum(losses)):
            for d, loss in zip(distances_m, losses):
                if not math.isfinite(loss):
                    raise DomainError(f"{self.name}: path loss at {d:g} m is not finite ({loss!r})")
        return losses

    def corrected(self, cf_db: float) -> "PathLossModel":
        """New model whose path loss is this one's minus cf_db."""
        return replace(self, c0=self.c0 - finite("cf_db", cf_db), name=f"{self.name}_corrected")


def _range_warnings(notes: tuple[str, ...], times: int = 1) -> None:
    """Raise each range note `times` times as a `ModelRangeWarning`; every range warning comes from this function."""
    for _ in range(times):
        for note in notes:
            warnings.warn(note, ModelRangeWarning)


def _log_km(distances_m: Iterable[float]) -> list[float]:
    """L = log10(d_km) at each distance in meters: the variable every bound model is a polynomial in."""
    log10 = math.log10
    return [log10(d) - 3.0 for d in distances_m]


def _checked_distances(distances_m: Iterable[object]) -> tuple[float, ...]:
    """`distances_m` as floats; the first that is not a positive finite number raises `DomainError`."""
    message = "distance {}: distance_m must be a positive finite number, got {!r}"
    return checked_column("distances_m", distances_m, DomainError, message.format, LEAST_POSITIVE)


def _defined(name: str, compute: Callable[..., object], *args: object, **kwargs: object) -> object:
    """`compute(*args, **kwargs)` under the one rule for a model's arithmetic.

    Where an intermediate over- or underflows into a division by zero or
    a log10(0), or a float result is not finite, `DomainError` names
    `name`: the model for `make_model`, the function for a helper.
    """
    try:
        result = compute(*args, **kwargs)
    except DomainError:
        raise
    except (ArithmeticError, ValueError):
        raise _non_finite_error(name) from None
    if isinstance(result, float) and not math.isfinite(result):
        raise _non_finite_error(name)
    return result


def make_model(
    model_id: str,
    freq_mhz: float,
    tx_height_m: float | None = None,
    rx_height_m: float | None = None,
    *,
    environment: Environment = MEDIUM_SUBURBAN,
    sui_params: SuiParams | None = None,
    ericsson_params: EricssonParams | None = None,
    tx_gain_linear: float = 1.0,
    rx_gain_variant: str = "medium_city",
) -> PathLossModel:
    """Bind a model id and its parameters into log-distance coefficients.

    Heights are ignored by `fspl` and required by every other model.
    This is where each model's formula is written, as its coefficients
    in L = log10(d_km) (Hata 1980, COST 231 ch. 4, Erceg et al. 1999 for
    SUI); the closed forms above evaluate the model bound here, except
    that extended COST-231 Hata takes c0 from `extended_cost231` at 1 km,
    where every log10(d) term vanishes.  Parameters so extreme that a
    coefficient is not finite raise `DomainError` naming the model.
    """
    return _defined(  # type: ignore[return-value]
        model_id, _bind, model_id, freq_mhz, tx_height_m, rx_height_m,
        environment, sui_params, ericsson_params, tx_gain_linear, rx_gain_variant,
    )


def _bind(
    model_id: str, freq_mhz: float, tx_height_m: float | None, rx_height_m: float | None, environment: Environment,
    sui_params: SuiParams | None, ericsson_params: EricssonParams | None, tx_gain_linear: float, rx_gain_variant: str,
) -> PathLossModel:
    """The body of `make_model`, which runs it under `_defined`: each argument checked once, then each term's formula."""
    freq_mhz = positive("freq_mhz", freq_mhz)
    as_instance("environment", environment, Environment, DomainError)
    if sui_params is not None:
        as_instance("sui_params", sui_params, SuiParams, DomainError)
    if ericsson_params is not None:
        as_instance("ericsson_params", ericsson_params, EricssonParams, DomainError)
    if model_id == "fspl":
        gt = positive("tx_gain_linear", tx_gain_linear)
        c0 = 32.45 - 10.0 * math.log10(gt) + 20.0 * math.log10(freq_mhz)
        return PathLossModel(model_id, c0, 20.0)

    if model_id not in MODEL_IDS:
        raise DomainError(f"unknown model id {model_id!r}")
    hb = positive("tx_height_m", tx_height_m)
    hr = positive("rx_height_m", rx_height_m)
    log_hb = math.log10(hb)

    if model_id == "cost231_hata":
        c0 = (
            46.3
            + 33.9 * math.log10(freq_mhz)
            - 13.82 * log_hb
            - (_rx_height_term(hr) - 4.97)
            + environment.clutter_db
        )
        return PathLossModel(
            model_id,
            c0,
            44.9 - 6.55 * log_hb,
            range_notes=_cost231_range_notes(freq_mhz, hb, hr),
        )
    if model_id == "extended_cost231":
        c0 = _extended_cost231(freq_mhz, hb, hr, 1000.0, rx_gain_variant).total_db
        return PathLossModel(model_id, c0, 20.0 + 9.83, -5.8 * math.log10(hb / 200.0))
    if model_id == "sui":
        sui_p = sui_params if sui_params is not None else SuiParams()
        wavelength_m = LIGHT_SPEED_M_PER_S / (freq_mhz * 1e6)
        intercept = 20.0 * math.log10(4.0 * math.pi * sui_p.d0_m / wavelength_m)
        xf, xh = _sui_corrections(freq_mhz, hr, sui_p)
        c1 = 10.0 * _sui_gamma(hb, sui_p.terrain)
        c0 = intercept + xf + xh + sui_p.shadow_db - c1 * (math.log10(sui_p.d0_m) - 3.0)
        return PathLossModel(model_id, c0, c1, min_distance_m=sui_p.d0_m)
    eric_p = ericsson_params if ericsson_params is not None else ERICSSON_URBAN
    c0 = eric_p.a0 + eric_p.a2 * log_hb - _rx_height_term(hr) + _ericsson_frequency_term(freq_mhz)
    return PathLossModel(model_id, c0, eric_p.a1 + eric_p.a3 * log_hb)


# Each `model_from_params` key: the `make_model` argument it fills, or, for a SUI or Ericsson key, that argument
# with its type and the field the key sets; and, for a key that takes a name, the type it also accepts as it is
# and the names with what each stands for, or None for a key that takes a finite number
_MODEL_PARAMS: Mapping[str, tuple] = {
    **{key: (key, None, None) for key in ("freq_mhz", "tx_height_m", "rx_height_m", "tx_gain_linear")},
    "environment": ("environment", None, (Environment, ENVIRONMENTS)),
    "rx_gain_variant": ("rx_gain_variant", None, ((), {"medium_city": "medium_city", "large_city": "large_city"})),
    "terrain": (("sui_params", SuiParams), "terrain", (TerrainCategory, TERRAINS)),
    **{f"sui_{field}": (("sui_params", SuiParams), field, None) for field in ("d0_m", "shadow_db", "xh_denominator_m")},
    **{f"ericsson_{field}": (("ericsson_params", EricssonParams), field, None) for field in ("a0", "a1", "a2", "a3")},
}


def _model_arguments(params: Mapping[str, object]) -> dict[tuple, object]:
    """`params` checked, each value under the place `_MODEL_PARAMS` gives its key, a None value counting as absent:
    (the `make_model` argument, None), or (the SUI or Ericsson argument with its type, the field the key sets).

    An unknown key, a value that is not a finite number where one is
    due, or an unknown name raises `DomainError` naming the key.
    """
    placed: dict[tuple, object] = {}
    for key, value in params.items():
        if value is None:
            continue
        entry = _MODEL_PARAMS.get(key)
        if entry is None:
            raise DomainError(f"unknown model parameters: [{key!r}]")
        target, field, named = entry
        if named is None:  # no model takes a non-finite number, and it would reach the report
            value = finite(f"model parameter {key}", value)
        elif not isinstance(value, named[0]):
            if not (isinstance(value, str) and value in named[1]):
                raise DomainError(f"unknown {key} {value!r}")
            value = named[1][value]
        placed[target, field] = value
    return placed


def _make_model_kwargs(placed: Mapping[tuple, object]) -> dict[str, object]:
    """`make_model`'s keyword arguments from values placed as `_model_arguments` places them, a None counting as
    absent: each SUI and Ericsson object built from its fields."""
    kwargs: dict[str, object] = {"freq_mhz": None}  # a missing one fails `make_model`'s check
    fields: dict[tuple, dict[str, object]] = {}
    for (target, field), value in placed.items():
        if value is None:
            continue
        if field is None:
            kwargs[target] = value
        else:
            fields.setdefault(target, {})[field] = value
    for (argument, kind), values in fields.items():
        kwargs[argument] = kind(**values)
    return kwargs


def model_from_params(model_id: str, params: Mapping[str, object]) -> PathLossModel:
    """Build a model from a flat parameter mapping.

    The dynamic twin of `make_model`, used by grid search and the CLI.
    Accepted keys: freq_mhz, tx_height_m, rx_height_m, environment,
    terrain, sui_d0_m, sui_shadow_db, sui_xh_denominator_m,
    ericsson_a0..ericsson_a3, tx_gain_linear, rx_gain_variant.
    Environment and terrain accept either the objects or their names.
    """
    return make_model(model_id, **_make_model_kwargs(_model_arguments(as_mapping("params", params, DomainError))))  # type: ignore[arg-type]
