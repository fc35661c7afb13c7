"""The five path-loss models, written out from their published equations.

The model suites check propcal's bound models and its public closed forms
against these functions, so a change to `propcal.models` is measured
against formulas it does not share.  This module imports nothing from
propcal, and pytest does not collect it.  Distances are meters,
frequencies MHz, heights meters, losses dB.
"""

import math

LIGHT_SPEED_M_PER_S = 299_792_458.0

CLUTTER_DB = {"medium_suburban": 0.0, "metropolitan": 3.0}
# SUI terrain constants: a, b per meter of transmit height, c in meters.
TERRAINS = {"A": (4.6, 0.0075, 12.6), "B": (4.0, 0.0065, 17.1), "C": (3.6, 0.005, 20.0)}


def fspl(distance_m, freq_mhz, tx_gain_linear=1.0):
    """32.45 - 10 log Gt + 20 log f_MHz + 20 log d_km."""
    return (
        32.45
        - 10.0 * math.log10(tx_gain_linear)
        + 20.0 * math.log10(freq_mhz)
        + 20.0 * math.log10(distance_m / 1000.0)
    )


def cost231_hata(distance_m, freq_mhz, tx_height_m, rx_height_m, environment="medium_suburban"):
    """COST-231 Hata with the large-city mobile correction a(hr)."""
    log_hb = math.log10(tx_height_m)
    a_hr = 3.2 * math.log10(11.75 * rx_height_m) ** 2 - 4.97
    return (
        46.3
        + 33.9 * math.log10(freq_mhz)
        - 13.82 * log_hb
        - a_hr
        + (44.9 - 6.55 * log_hb) * math.log10(distance_m / 1000.0)
        + CLUTTER_DB[environment]
    )


def extended_cost231(distance_m, freq_mhz, tx_height_m, rx_height_m, rx_gain_variant="medium_city"):
    """Free space + basic median - transmit and receive height gains (d in km, f in GHz)."""
    log_f = math.log10(freq_mhz / 1000.0)
    log_d = math.log10(distance_m / 1000.0)
    free_space = 92.4 + 20.0 * log_d + 20.0 * log_f
    basic_median = 20.41 + 9.83 * log_d + 7.894 * log_f + 9.56 * log_f**2
    tx_gain = math.log10(tx_height_m / 200.0) * (13.958 + 5.8 * log_d**2)
    if rx_gain_variant == "large_city":
        rx_gain = 0.759 * rx_height_m - 1.862
    else:
        rx_gain = (42.57 + 13.7 * log_f) * (math.log10(rx_height_m) - 0.585)
    return free_space + basic_median - tx_gain - rx_gain


def sui(distance_m, freq_mhz, tx_height_m, rx_height_m, terrain="B", d0_m=100.0, shadow_db=0.0,
        xh_denominator_m=2.0):
    """Free-space loss at d0, then 10*gamma dB per decade, plus Xf, Xh and the shadow term."""
    a, b, c = TERRAINS[terrain]
    wavelength_m = LIGHT_SPEED_M_PER_S / (freq_mhz * 1e6)
    intercept = 20.0 * math.log10(4.0 * math.pi * d0_m / wavelength_m)
    gamma = a - b * tx_height_m + c / tx_height_m
    xf = 6.0 * math.log10(freq_mhz / 2000.0)
    xh = (-20.0 if terrain == "C" else -10.8) * math.log10(rx_height_m / xh_denominator_m)
    return intercept + 10.0 * gamma * math.log10(distance_m / d0_m) + xf + xh + shadow_db


def ericsson(distance_m, freq_mhz, tx_height_m, rx_height_m, a0=36.2, a1=30.2, a2=-12.0, a3=0.1):
    """Ericsson regression with its frequency term g(f); distance in km."""
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
