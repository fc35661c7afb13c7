"""Site configuration and the link budget tying path loss to RSS.

received = tx_power + tx_gain + rx_gain - path_loss - feeder - polarization

Everything except path loss is a per-site constant, so the conversion in
both directions is an affine shift.  That shift is what lets calibration
work in received-signal space while the models predict loss.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .errors import DataError, as_instance, checked_column, finite, nonnegative, positive


@dataclass(frozen=True)
class SiteConfig:
    """Transmit-site parameters, all in dB/dBm/meters/MHz; each, and their budget_db, checked once."""

    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    feeder_loss_db: float
    polarization_loss_db: float
    freq_mhz: float
    tx_height_m: float
    rx_height_m: float

    def __post_init__(self) -> None:
        # each kept as the float its check gives, which `site_to_json` can write
        for name in ("tx_power_dbm", "tx_gain_dbi", "rx_gain_dbi"):
            object.__setattr__(self, name, finite(name, getattr(self, name)))
        for name in ("feeder_loss_db", "polarization_loss_db"):
            object.__setattr__(self, name, nonnegative(name, getattr(self, name)))
        for name in ("freq_mhz", "tx_height_m", "rx_height_m"):
            object.__setattr__(self, name, positive(name, getattr(self, name)))
        finite("budget_db", self.budget_db)

    @property
    def budget_db(self) -> float:
        """Constant part of the link budget: gains minus fixed losses."""
        return (
            self.tx_power_dbm
            + self.tx_gain_dbi
            + self.rx_gain_dbi
            - self.feeder_loss_db
            - self.polarization_loss_db
        )


# 2.5 GHz band site used throughout the bundled reference dataset.
REFERENCE_SITE = SiteConfig(
    tx_power_dbm=30.0,
    tx_gain_dbi=20.0,
    rx_gain_dbi=18.0,
    feeder_loss_db=1.2,
    polarization_loss_db=3.0,
    freq_mhz=2530.0,
    tx_height_m=40.0,
    rx_height_m=3.0,
)


def predict_rss(site: SiteConfig, path_loss_db: float) -> float:
    """Received signal strength in dBm for a given path loss."""
    return as_instance("site", site, SiteConfig, DataError).budget_db - finite("path_loss_db", path_loss_db)


def path_loss_from_rss(site: SiteConfig, rss_dbm: float) -> float:
    """Invert the budget: path loss in dB implied by a measured RSS."""
    return as_instance("site", site, SiteConfig, DataError).budget_db - finite("rss_dbm", rss_dbm)


def site_to_json(site: SiteConfig) -> str:
    """Serialize a site to JSON with stable key order."""
    return json.dumps(asdict(as_instance("site", site, SiteConfig, DataError)), indent=2) + "\n"


def site_from_json(text: str) -> SiteConfig:
    """Parse a site from JSON; unknown or missing fields are rejected."""
    as_instance("text", text, str, DataError)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer past the digit limit, or deep nesting
        raise DataError(f"invalid site JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError("site JSON must be an object")
    names = [f.name for f in fields(SiteConfig)]
    unknown = set(raw) - set(names)
    if unknown:
        raise DataError(f"unknown site fields: {sorted(unknown)}")
    missing = set(names) - set(raw)
    if missing:
        raise DataError(f"missing site fields: {sorted(missing)}")

    def bad_field(i: int, value: object) -> str:  # only an int too large for a float is a number here
        rule = "fit a float, got an integer too large for one" if type(value) is int else f"be a number, got {value!r}"
        return f"site field {names[i - 1]} must {rule}"

    return SiteConfig(*checked_column("site", (raw[name] for name in names), DataError, bad_field))
