"""Closed-form path-loss equations, written out independently of propcal.

The benchmark generates its inputs and checks the program's outputs with
these formulas, so a refactor of `propcal.models` cannot change what the
benchmark feeds the program or what it accepts as a right answer.
Distances are meters, frequencies MHz, losses dB.
"""

from __future__ import annotations

import math

LIGHT_SPEED_M_PER_S = 299_792_458.0

# The reference site of the bundled corpus (the CLI's `--site table3`).
FREQ_MHZ = 2530.0
TX_HEIGHT_M = 40.0
RX_HEIGHT_M = 3.0
BUDGET_DB = 30.0 + 20.0 + 18.0 - 1.2 - 3.0

MODEL_IDS = ("fspl", "cost231_hata", "extended_cost231", "sui", "ericsson")
# Models that carry a pred_<model> column in the bundled corpus.
PRED_MODELS = ("cost231_hata", "extended_cost231", "sui", "ericsson")

CLUTTER_DB = {"medium_suburban": 0.0, "metropolitan": 3.0}
# SUI terrain constants (a, b per meter, c in meters).
TERRAINS = {"A": (4.6, 0.0075, 12.6), "B": (4.0, 0.0065, 17.1), "C": (3.6, 0.005, 20.0)}


def fspl(distance_m: float, freq_mhz: float = FREQ_MHZ, tx_gain_linear: float = 1.0) -> float:
    return (
        32.45
        - 10.0 * math.log10(tx_gain_linear)
        + 20.0 * math.log10(freq_mhz)
        + 20.0 * math.log10(distance_m / 1000.0)
    )


def _a_hr(rx_height_m: float) -> float:
    return 3.2 * math.log10(11.75 * rx_height_m) ** 2 - 4.97


def cost231_hata(
    distance_m: float,
    freq_mhz: float = FREQ_MHZ,
    tx_height_m: float = TX_HEIGHT_M,
    rx_height_m: float = RX_HEIGHT_M,
    environment: str = "medium_suburban",
) -> float:
    log_hb = math.log10(tx_height_m)
    return (
        46.3
        + 33.9 * math.log10(freq_mhz)
        - 13.82 * log_hb
        - _a_hr(rx_height_m)
        + (44.9 - 6.55 * log_hb) * math.log10(distance_m / 1000.0)
        + CLUTTER_DB[environment]
    )


def extended_cost231(
    distance_m: float,
    freq_mhz: float = FREQ_MHZ,
    tx_height_m: float = TX_HEIGHT_M,
    rx_height_m: float = RX_HEIGHT_M,
) -> float:
    log_f = math.log10(freq_mhz / 1000.0)
    log_d = math.log10(distance_m / 1000.0)
    free_space = 92.4 + 20.0 * log_d + 20.0 * log_f
    basic_median = 20.41 + 9.83 * log_d + 7.894 * log_f + 9.56 * log_f**2
    tx_gain = math.log10(tx_height_m / 200.0) * (13.958 + 5.8 * log_d**2)
    rx_gain = (42.57 + 13.7 * log_f) * (math.log10(rx_height_m) - 0.585)
    return free_space + basic_median - tx_gain - rx_gain


def sui(
    distance_m: float,
    freq_mhz: float = FREQ_MHZ,
    tx_height_m: float = TX_HEIGHT_M,
    rx_height_m: float = RX_HEIGHT_M,
    terrain: str = "B",
    xh_denominator_m: float = 2.0,
    d0_m: float = 100.0,
    shadow_db: float = 0.0,
) -> float:
    a, b, c = TERRAINS[terrain]
    wavelength_m = LIGHT_SPEED_M_PER_S / (freq_mhz * 1e6)
    intercept = 20.0 * math.log10(4.0 * math.pi * d0_m / wavelength_m)
    gamma = a - b * tx_height_m + c / tx_height_m
    xf = 6.0 * math.log10(freq_mhz / 2000.0)
    xh = (-20.0 if terrain == "C" else -10.8) * math.log10(rx_height_m / xh_denominator_m)
    return intercept + 10.0 * gamma * math.log10(distance_m / d0_m) + xf + xh + shadow_db


def ericsson(
    distance_m: float,
    freq_mhz: float = FREQ_MHZ,
    tx_height_m: float = TX_HEIGHT_M,
    rx_height_m: float = RX_HEIGHT_M,
) -> float:
    a0, a1, a2, a3 = 36.2, 30.2, -12.0, 0.1
    log_d = math.log10(distance_m / 1000.0)
    log_hb = math.log10(tx_height_m)
    log_f = math.log10(freq_mhz)
    return (
        a0
        + a1 * log_d
        + a2 * log_hb
        + a3 * log_hb * log_d
        - 3.2 * math.log10(11.75 * rx_height_m) ** 2
        + 44.49 * log_f
        - 4.78 * log_f**2
    )


_FUNCTIONS = {
    "fspl": fspl,
    "cost231_hata": cost231_hata,
    "extended_cost231": extended_cost231,
    "sui": sui,
    "ericsson": ericsson,
}


def path_loss(model_id: str, distance_m: float, **params: object) -> float:
    """Path loss of `model_id` at the reference site, with `params` overriding it."""
    return _FUNCTIONS[model_id](distance_m, **params)
