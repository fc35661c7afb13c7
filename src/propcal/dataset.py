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
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import LEAST_POSITIVE, DataError, DomainError, _Floats, as_column, as_instance, as_mapping, checked_column
from .link_budget import SiteConfig

# Plausibility window for any RSS value that is input, measured or predicted.
# Real receivers bottom out near -120 dBm; the margin below that catches unit
# mistakes (path loss in an RSS column) without rejecting weak signals.  A
# column that propcal derives, such as `plot`'s corrected series, is not an
# input and is only checked to be finite.
RSS_MIN_DBM = -150.0
RSS_MAX_DBM = 40.0

CSV_HEADER = ("distance_m", "rssi_dbm")
PREDICTION_PREFIX = "pred_"

# About how many characters of data lines `_plain_cells` converts, and `_csv_cells` reads, at a time: one slice's
# line and cell strings are all either holds beside the columns it builds
_SLICE_CHARS = 1 << 16
# a line end, as `io.StringIO(text, newline="")` reads one
_LINE_END = re.compile(r"\r\n?|\n")


@dataclass(frozen=True)
class DriveTestTable:
    """Validated, aligned drive-test columns.

    `distances_m` and `measured_rss_dbm` hold one value per sample; `predictions` maps each model name to a
    same-length predicted RSS column, in a dict the table owns.  Every value is checked once, on construction:
    a parsed table's columns are `errors._Floats`, which carry that check into `calibrate`; a caller's become tuples.
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
    def samples(self) -> tuple[tuple[float, float], ...]:
        """The rows as (distance_m, measured_rss_dbm) pairs of the checked column floats, built on each access."""
        return tuple(zip(self.distances_m, self.measured_rss_dbm))


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


def _plain_cells(text: str) -> tuple[list[str], list[_Floats]] | None:
    """`_csv_cells` of text that splitting on "\\n" and "," reads as `csv.reader` does, and None for other text.

    That is text with no quote, no NUL, no "\\r" outside a "\\r\\n" and no
    line longer than the csv field size limit, whose first line is the
    header and which has at least one data line, each holding a number in
    every cell of the header's width.

    The data lines are converted a slice of about `_SLICE_CHARS` characters
    at a time, each cut after a "\\n", so that the cells of one slice are
    all that is held beside the columns.  A slice that fails a check sends
    the whole text to `_csv_cells`, which then raises what it would have
    raised for it.  The header is checked only once every slice has
    passed: `csv.reader` reports a line past the field size limit before
    `_csv_cells` reads the header.
    """
    if '"' in text or "\0" in text:
        return None
    # every "\r" ends a "\r\n" or the text goes to `_csv_cells`; each slice then drops its own "\r"s, with no copy
    # of the whole text
    crlf = "\r" in text
    if crlf and text.count("\r") != text.count("\r\n"):
        return None
    limit = csv.field_size_limit()
    end = text.find("\n")  # not `splitlines`, which also ends a line at "\x0c", "\x85", "\u2028" and others
    header = text[:end].replace("\r", "") if crlf else text[:end]
    header_row = header.split(",")
    if end < 0 or len(header) > limit or _is_blank(header_row):
        return None  # no data line, a header past the field size limit, or a blank first line
    width = len(header_row)
    columns: list[list[float]] = [[] for _ in range(width)]
    stop = len(text) - text.endswith("\n")  # a last "\n" ends the last line and starts none
    while True:
        start = end + 1
        end = text.find("\n", start + _SLICE_CHARS, stop)
        cut = stop if end < 0 else end
        lines = (text[start:cut].replace("\r", "") if crlf else text[start:cut]).split("\n")
        if cut - start > limit and max(map(len, lines)) > limit:
            return None
        if set(map(str.count, lines, itertools.repeat(","))) != {width - 1}:
            return None  # a ragged, blank or whitespace-only line, or no data line
        cells = ",".join(lines).split(",")  # one flat list: a list per row would cost its own allocation and GC passes
        try:
            for k, column in enumerate(columns):
                column.extend(map(float, cells[k::width]))
        except ValueError:  # a bad cell, or a line of only commas
            return None
        if end < 0:
            break
    return _checked_header(header_row), [_Floats(column) for column in columns]


def _csv_cells(text: str) -> tuple[list[str], list[_Floats]]:
    """The header and its columns of floats, read by `csv.reader`; the first bad line, row or cell raises.

    The reader gets the text a slice of about `_SLICE_CHARS` characters at a
    time, each cut after a line end, and each row goes into the columns as
    it is read: a `StringIO` of the whole text would hold four bytes a
    character, and a list of every row several times the table.  A bad
    header, row or cell is raised once the reader is done, so that a line
    `csv.reader` rejects further on is reported first.
    """
    def slices() -> Iterator[io.StringIO]:
        start = 0
        while start < len(text):
            end = _LINE_END.search(text, start + _SLICE_CHARS)
            stop = len(text) if end is None else end.end()
            yield io.StringIO(text[start:stop], newline="")  # "\r", "\n" and "\r\n" each end a line, as in a file
            start = stop

    reader = csv.reader(itertools.chain.from_iterable(slices()))
    try:
        try:
            return _converted(itertools.filterfalse(_is_blank, reader))
        except DataError:
            for _ in reader:  # the rest of the text: a line that `csv.reader` rejects there is reported first
                pass
            raise
    except csv.Error as exc:  # a cell past the field size limit, or a NUL byte before Python 3.11
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _converted(rows: Iterator[list[str]]) -> tuple[list[str], list[_Floats]]:
    """The first row as the checked header, and the columns of floats of the rest; the first bad row or cell raises."""
    header = next(rows, None)
    if header is None:
        raise DataError("empty drive-test CSV")
    header = _checked_header(header)
    width = len(header)
    columns: list[list[float]] = [[] for _ in header]
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"row {i}: expected {width} cells, got {len(row)}")
        for name, column, cell in zip(header, columns, row):
            try:
                column.append(float(cell))
            except ValueError:
                raise DataError(f"row {i}, column {name}: not a number: {cell.strip()!r}") from None
    return header, [_Floats(column) for column in columns]


def parse_drive_test_csv(text: str) -> DriveTestTable:
    """Parse drive-test CSV text into a validated table.

    The header must start ``distance_m,rssi_dbm``; any further columns
    must be named ``pred_<model>``.  Blank lines are skipped.  Quoted
    cells follow RFC 4180, as `csv.reader` reads them.  Errors carry
    1-based row and column positions.
    """
    as_instance("text", text, str, DataError)
    header, columns = _plain_cells(text) or _csv_cells(text)  # `_Floats` columns: `checked_column` skips the type gate
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
    return _with_column(table, name, _prediction_column(name, values, len(table)))


def _with_derived(table: DriveTestTable, name: str, values: Sequence[float]) -> DriveTestTable:
    """`with_prediction` for a column that propcal derived, such as a model's RSS or a corrected series: the RSS
    window checks input columns, so each value need only be finite, or `DomainError` names its row."""
    message = f"row {{}}, column {PREDICTION_PREFIX}{name}: RSS {{!r}} is not finite".format
    return _with_column(table, name, checked_column(f"{PREDICTION_PREFIX}{name}", values, DomainError, message))


def _with_column(table: DriveTestTable, name: str, column: tuple[float, ...]) -> DriveTestTable:
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


def emit_plot_series(table: DriveTestTable, site: SiteConfig, *, quantity: str = "rss") -> str:
    """Distance-sorted CSV of the measured series and every prediction column, in table order, for plotting.

    `quantity` selects the y axis: "rss" emits the values as stored,
    "pl" converts every RSS through the site budget to path loss in dB.
    Values are rounded to 0.01 dB.
    """
    as_instance("table", table, DriveTestTable, DataError)
    as_instance("site", site, SiteConfig, DataError)
    if quantity not in ("rss", "pl"):
        raise DataError(f"quantity must be 'rss' or 'pl', got {quantity!r}")

    distances = table.distances_m
    series = [table.measured_rss_dbm, *table.predictions.values()]
    if quantity == "pl":
        budget = site.budget_db
        series = [[budget - rss for rss in column] for column in series]
    order = sorted(range(len(table)), key=distances.__getitem__)
    measured_label = "measured_rss_dbm" if quantity == "rss" else "measured_pl_db"
    cells = [list(map(_format_value, distances))] + [list(map("{:.2f}".format, column)) for column in series]
    return _csv_text(["distance_m", measured_label, *table.predictions], zip(*(map(column.__getitem__, order) for column in cells)))
