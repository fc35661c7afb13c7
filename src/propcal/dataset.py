"""Drive-test data: parsing, validation, and the bundled reference corpus.

A drive test is a sequence of (distance, measured RSS) samples, optionally
carrying per-model predicted RSS columns.  The on-disk format is CSV with
header ``distance_m,rssi_dbm`` followed by zero or more ``pred_<model>``
columns.  All values are validated on construction so downstream code can
assume clean, aligned series.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import LEAST_POSITIVE, DataError, as_column, as_instance, as_mapping, checked_column
from .link_budget import SiteConfig

# Plausibility window for any RSS value, measured or predicted.  Real
# receivers bottom out near -120 dBm; the margin below that catches unit
# mistakes (path loss in an RSS column) without rejecting weak signals.
RSS_MIN_DBM = -150.0
RSS_MAX_DBM = 40.0

CSV_HEADER = ("distance_m", "rssi_dbm")
PREDICTION_PREFIX = "pred_"


@dataclass(frozen=True)
class DriveTestSample:
    """One measurement: distance from the transmitter and received power, checked as a table row is."""

    distance_m: float
    measured_rss_dbm: float

    def __post_init__(self) -> None:
        checked_column("distance_m", (self.distance_m,), DataError, "distance_m must be positive, got {1!r}".format,
                       LEAST_POSITIVE)
        message = f"measured_rss_dbm: RSS {{1!r}} outside [{RSS_MIN_DBM:g}, {RSS_MAX_DBM:g}] dBm"
        checked_column("measured_rss_dbm", (self.measured_rss_dbm,), DataError, message.format, RSS_MIN_DBM, RSS_MAX_DBM)


@dataclass(frozen=True)
class DriveTestTable:
    """Validated, aligned drive-test columns.

    `distances_m` and `measured_rss_dbm` hold one value per sample;
    `predictions` maps each model name to a same-length predicted RSS column,
    in a dict the table owns.  Every value is checked once, on construction.
    """

    distances_m: tuple[float, ...]
    measured_rss_dbm: tuple[float, ...]
    predictions: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        distances = as_column("distance_m", self.distances_m, DataError)
        measured = as_column("rssi_dbm", self.measured_rss_dbm, DataError)
        if not distances:
            raise DataError("drive test has no samples")
        if len(measured) != len(distances):
            raise DataError(f"rssi_dbm column has {len(measured)} values for {len(distances)} samples")
        def bad_distance(row: int, value: object) -> str:
            _rss_column("rssi_dbm", measured[: row - 1])  # rows in order: a bad RSS in an earlier row comes first
            return f"row {row}: distance_m must be positive, got {value!r}"

        object.__setattr__(self, "distances_m", checked_column("distance_m", distances, DataError, bad_distance, LEAST_POSITIVE))
        object.__setattr__(self, "measured_rss_dbm", _rss_column("rssi_dbm", measured))
        predictions = as_mapping("predictions", self.predictions, DataError)
        predictions = {name: _prediction_column(name, values, len(distances)) for name, values in predictions.items()}
        object.__setattr__(self, "predictions", predictions)

    def __len__(self) -> int:
        return len(self.distances_m)

    @property
    def samples(self) -> tuple[DriveTestSample, ...]:
        """The rows as samples, built on each access."""
        return tuple(map(DriveTestSample, self.distances_m, self.measured_rss_dbm))


def _rss_column(column: str, values: Iterable[object]) -> tuple[float, ...]:
    """`values` as RSS in dBm inside the plausibility window; the first bad one is named by row and `column`."""
    message = f"row {{}}, column {column}: RSS {{!r}} outside [{RSS_MIN_DBM:g}, {RSS_MAX_DBM:g}] dBm"
    return checked_column(column, values, DataError, message.format, RSS_MIN_DBM, RSS_MAX_DBM)


def _prediction_column(name: str, values: Iterable[object], rows: int) -> tuple[float, ...]:
    if not isinstance(name, str):
        raise DataError(f"prediction column name must be a string, got {name!r}")
    if any(char in name for char in ',"\r\n'):  # `_csv_text` writes names unquoted
        raise DataError(f"prediction column {name!r}: a name may not hold a comma, a quote or a line break")
    values = as_column(f"prediction column {name!r}", values, DataError)
    if len(values) != rows:
        raise DataError(f"prediction column {name!r} has {len(values)} values for {rows} samples")
    return _rss_column(f"{PREDICTION_PREFIX}{name}", values)


def _is_blank(row: Sequence[str]) -> bool:
    """Whether a row holds no cell but whitespace: such rows are skipped."""
    return not (row and (row[0].strip() or any(cell.strip() for cell in row)))


def _checked_header(row: Sequence[str]) -> list[str]:
    """The header's cells, stripped; a header that is not ``distance_m,rssi_dbm[,pred_<model>...]`` raises."""
    header = [cell.strip() for cell in row]
    if tuple(header[:2]) != CSV_HEADER:
        raise DataError(
            f"line 1: header must start {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    for cell in header[2:]:
        if not cell.startswith(PREDICTION_PREFIX) or len(cell) == len(PREDICTION_PREFIX):
            raise DataError(f"line 1: prediction column must be named {PREDICTION_PREFIX}<model>, got {cell!r}")
    if len(set(header)) != len(header):  # only the prediction columns can repeat
        raise DataError("line 1: duplicate prediction columns")
    return header


def _plain_cells(text: str) -> tuple[list[str], list[float]] | None:
    """`_csv_cells` of text that splitting on "\\n" and "," reads as `csv.reader` does, and None for other text.

    That is text with no quote, no NUL, no "\\r" outside a "\\r\\n" and no
    line longer than the csv field size limit, whose first line is the
    header and whose data lines each hold a number in every cell of the
    header's width.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")  # not `splitlines`, which also ends a line at "\x0c", "\x85", "\u2028" and others
    if not lines[-1]:
        lines.pop()
    limit = csv.field_size_limit()
    if not lines or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    header_row = lines[0].split(",")
    if _is_blank(header_row):
        return None
    header = _checked_header(header_row)
    del lines[0]
    if set(map(str.count, lines, itertools.repeat(","))) != {len(header) - 1}:
        return None  # a ragged, blank or whitespace-only line, or no data line
    cells = ",".join(lines).split(",")  # one flat list: a list per row would cost its own allocation and GC passes
    del lines
    try:
        return header, list(map(float, cells))
    except ValueError:  # a bad cell, or a line of only commas
        return None


def _csv_cells(text: str) -> tuple[list[str], list[float]]:
    """The header and every data cell as a float, read by `csv.reader`; the first bad line, row or cell raises."""
    reader = csv.reader(io.StringIO(text, newline=""))  # "\r", "\n" and "\r\n" each end a line, as in a file
    try:
        rows = [row for row in reader if not _is_blank(row)]
    except csv.Error as exc:  # a cell past the field size limit, or a NUL byte before Python 3.11
        raise DataError(f"line {reader.line_num}: {exc}") from None
    del reader  # its StringIO holds a copy of `text`, four bytes a character
    if not rows:
        raise DataError("empty drive-test CSV")
    header = _checked_header(rows[0])
    del rows[0]
    width = len(header)
    cells: list[float] = []
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"row {i}: expected {width} cells, got {len(row)}")
        for name, cell in zip(header, row):
            try:
                cells.append(float(cell))
            except ValueError:
                raise DataError(f"row {i}, column {name}: not a number: {cell.strip()!r}") from None
    return header, cells


def parse_drive_test_csv(text: str) -> DriveTestTable:
    """Parse drive-test CSV text into a validated table.

    The header must start ``distance_m,rssi_dbm``; any further columns
    must be named ``pred_<model>``.  Blank lines are skipped.  Quoted
    cells follow RFC 4180, as `csv.reader` reads them.  Errors carry
    1-based row and column positions.
    """
    as_instance("text", text, str, DataError)
    header, cells = _plain_cells(text) or _csv_cells(text)
    width = len(header)
    columns = [tuple(cells[k::width]) for k in range(width)]
    pred_names = [name[len(PREDICTION_PREFIX):] for name in header[2:]]
    return DriveTestTable(columns[0], columns[1], dict(zip(pred_names, columns[2:])))


def _format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _csv_text(header: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    """The one CSV layout: "," between cells, none quoted (hence `_prediction_column`'s name rule), "\\n" after each line."""
    return "\n".join(map(",".join, itertools.chain((header,), rows))) + "\n"


def serialize_drive_test_csv(table: DriveTestTable) -> str:
    """Render a table back to CSV text; parse/serialize round-trips."""
    as_instance("table", table, DriveTestTable, DataError)
    header = CSV_HEADER + tuple(f"{PREDICTION_PREFIX}{n}" for n in table.predictions)
    columns = (table.distances_m, table.measured_rss_dbm, *table.predictions.values())
    return _csv_text(header, zip(*(map(_format_value, column) for column in columns)))


def with_prediction(table: DriveTestTable, name: str, values: Sequence[float]) -> DriveTestTable:
    """New table with one prediction column added or replaced.

    Only the new column is validated, by the rule of the table's own
    columns; the rest were checked when `table` was built.
    """
    as_instance("table", table, DriveTestTable, DataError)
    column = _prediction_column(name, values, len(table))
    extended = copy.copy(table)
    object.__setattr__(extended, "predictions", {**table.predictions, name: column})
    return extended


# Reference drive test: 45 samples from a 2.5 GHz macro cell, with the
# predicted RSS of four models as recorded alongside the measurements.
# Columns: distance_m, measured, cost231_hata, extended_cost231, sui,
# ericsson (all RSS in dBm).
_REFERENCE_ROWS = (
    (4200, -73, -97.94, -91.87, -66.86, -100.58),
    (4000, -83, -97.21, -91.14, -65.98, -99.93),
    (3900, -87, -96.84, -90.76, -65.52, -99.60),
    (3800, -92, -96.45, -90.37, -65.05, -99.26),
    (3600, -81, -95.64, -89.56, -64.07, -98.55),
    (3600, -87, -95.64, -89.56, -64.07, -98.55),
    (3500, -79, -95.22, -89.14, -63.56, -98.17),
    (3500, -78, -95.22, -89.14, -63.56, -98.17),
    (3500, -80, -95.22, -89.14, -63.56, -98.17),
    (3300, -77, -94.34, -88.27, -62.50, -97.40),
    (3200, -75, -93.88, -87.81, -61.94, -96.99),
    (3000, -75, -92.92, -86.86, -60.77, -96.14),
    (2800, -73, -91.89, -85.86, -59.52, -95.23),
    (2700, -74, -91.34, -85.33, -58.87, -94.75),
    (2700, -72, -91.34, -85.33, -58.87, -94.75),
    (2000, -71, -86.86, -81.06, -53.43, -90.80),
    (1900, -70, -86.09, -80.34, -52.51, -90.12),
    (1800, -68, -85.28, -79.59, -51.53, -89.41),
    (1600, -67, -83.52, -77.97, -49.39, -87.85),
    (1500, -67, -82.56, -77.09, -48.23, -87.00),
    (1400, -65, -81.53, -76.15, -46.98, -86.09),
    (1300, -69, -80.42, -75.16, -45.64, -85.12),
    (1200, -70, -79.22, -74.10, -44.19, -84.06),
    (1200, -65, -79.22, -74.10, -44.19, -84.06),
    (1100, -64, -77.92, -72.95, -42.61, -82.91),
    (900, -65, -74.93, -70.35, -38.98, -80.27),
    (800, -63, -73.17, -68.86, -36.85, -78.71),
    (800, -63, -73.17, -68.86, -36.85, -78.71),
    (700, -60, -71.17, -67.18, -34.43, -76.95),
    (700, -62, -71.17, -67.18, -34.43, -76.95),
    (600, -55, -68.87, -65.29, -31.64, -74.92),
    (570, -61, -68.10, -64.67, -30.71, -74.24),
    (560, -57, -67.84, -64.45, -30.39, -74.01),
    (550, -59, -67.57, -64.24, -30.07, -73.77),
    (530, -57, -67.01, -63.79, -29.40, -73.28),
    (520, -52, -66.73, -63.56, -29.05, -73.03),
    (500, -61, -66.14, -63.10, -28.34, -72.52),
    (500, -58, -66.14, -63.10, -28.34, -72.52),
    (500, -62, -66.14, -63.10, -28.34, -72.52),
    (470, -51, -65.22, -62.36, -27.22, -71.70),
    (450, -59, -64.57, -61.85, -26.44, -71.13),
    (420, -62, -63.54, -61.05, -25.19, -70.22),
    (420, -51, -63.54, -61.05, -25.19, -70.22),
    (415, -50, -63.36, -60.91, -24.97, -70.06),
    (400, -61, -62.81, -60.48, -24.30, -69.57),
)

_REFERENCE_PREDICTION_NAMES = ("cost231_hata", "extended_cost231", "sui", "ericsson")

# Calibration results published alongside the reference corpus, for
# cross-checking a recomputation.  mse values are in dB^2.  cf_after_db
# is the correction reported next to the after-correction error; with an
# additive correction it should equal cf_db, and for three of the four
# models it does.
PUBLISHED_CALIBRATION = {
    "cost231_hata": {
        "cf_db": 12.5301,
        "mse_before_db2": 181.9705,
        "pearson_r": 0.9188,
        "mse_after_db2": 24.952,
        "cf_after_db": 12.5301,
    },
    "extended_cost231": {
        "cf_db": 7.8451,
        "mse_before_db2": 79.7012,
        "pearson_r": 0.9217,
        "mse_after_db2": 6.254,
        "cf_after_db": 18.1554,
    },
    "sui": {
        "cf_db": -22.3657,
        "mse_before_db2": 547.5657,
        "pearson_r": 0.9188,
        "mse_after_db2": 47.3428,
        "cf_after_db": -22.3657,
    },
    "ericsson": {
        "cf_db": 17.2884,
        "mse_before_db2": 317.2153,
        "pearson_r": 0.9188,
        "mse_after_db2": 18.3261,
        "cf_after_db": 17.2884,
    },
}


def reference_dataset() -> DriveTestTable:
    """The bundled 45-sample reference drive test with model predictions, built afresh on each call."""
    distances, measured, *predicted = (tuple(map(float, col)) for col in zip(*_REFERENCE_ROWS))
    return DriveTestTable(distances, measured, dict(zip(_REFERENCE_PREDICTION_NAMES, predicted)))


def emit_plot_series(
    table: DriveTestTable,
    site: SiteConfig,
    *,
    quantity: str = "rss",
    columns: Iterable[str] | None = None,
) -> str:
    """Distance-sorted CSV of measured and predicted series for plotting.

    `quantity` selects the y axis: "rss" emits the values as stored,
    "pl" converts every RSS through the site budget to path loss in dB.
    `columns` restricts and orders the prediction columns; default is
    all of them in table order.  Values are rounded to 0.01 dB.
    """
    as_instance("table", table, DriveTestTable, DataError)
    as_instance("site", site, SiteConfig, DataError)
    if quantity not in ("rss", "pl"):
        raise DataError(f"quantity must be 'rss' or 'pl', got {quantity!r}")
    names = list(table.predictions) if columns is None else list(as_column("columns", columns, DataError, "names"))
    for name in names:
        if not (isinstance(name, str) and name in table.predictions):
            raise DataError(f"unknown prediction column {name!r}")

    distances = table.distances_m
    series = [table.measured_rss_dbm] + [table.predictions[n] for n in names]
    if quantity == "pl":
        budget = site.budget_db
        series = [[budget - rss for rss in column] for column in series]
    order = sorted(range(len(table)), key=distances.__getitem__)
    measured_label = "measured_rss_dbm" if quantity == "rss" else "measured_pl_db"
    cells = [list(map(_format_value, distances))] + [list(map("{:.2f}".format, column)) for column in series]
    return _csv_text(["distance_m", measured_label] + names, zip(*(map(column.__getitem__, order) for column in cells)))
