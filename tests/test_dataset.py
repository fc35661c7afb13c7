"""Unit tests for drive-test parsing, the reference corpus, and plot series."""

import csv
import io
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propcal import (
    DataError,
    DomainError,
    DriveTestTable,
    REFERENCE_SITE,
    emit_plot_series,
    parse_drive_test_csv,
    reference_dataset,
    serialize_drive_test_csv,
    with_prediction,
)
from propcal import dataset
from propcal.dataset import RSS_MAX_DBM, RSS_MIN_DBM


class TestReferenceDataset:
    def test_row_count(self):
        assert len(reference_dataset()) == 45

    def test_first_and_last_rows(self):
        table = reference_dataset()
        assert table.samples[0] == (4200.0, -73.0)
        assert table.samples[-1] == (400.0, -61.0)
        first = tuple(table.predictions[name][0] for name in table.predictions)
        last = tuple(table.predictions[name][-1] for name in table.predictions)
        assert first == (-97.94, -91.87, -66.86, -100.58)
        assert last == (-62.81, -60.48, -24.3, -69.57)

    def test_duplicate_distances_preserved(self):
        table = reference_dataset()
        at_3500 = [rss for d, rss in table.samples if d == 3500.0]
        assert at_3500 == [-79.0, -78.0, -80.0]

    def test_measured_extremes(self):
        table = reference_dataset()
        strongest = max(table.samples, key=lambda row: row[1])
        weakest = min(table.samples, key=lambda row: row[1])
        assert strongest == (415.0, -50.0)
        assert weakest == (3800.0, -92.0)

    def test_prediction_columns(self):
        table = reference_dataset()
        assert list(table.predictions) == ["cost231_hata", "extended_cost231", "sui", "ericsson"]
        assert all(len(col) == 45 for col in table.predictions.values())

    def test_stable_across_calls(self):
        a, b = reference_dataset(), reference_dataset()
        assert a.samples == b.samples
        assert a.predictions == b.predictions

    def test_mutating_one_result_leaves_the_next_intact(self):
        reference_dataset().predictions.clear()
        assert list(reference_dataset().predictions) == ["cost231_hata", "extended_cost231", "sui", "ericsson"]


class TestParsing:
    def test_single_row(self):
        table = parse_drive_test_csv("distance_m,rssi_dbm\n4200,-73\n")
        assert table.samples == ((4200.0, -73.0),)
        assert not table.predictions

    def test_prediction_column(self):
        table = parse_drive_test_csv("distance_m,rssi_dbm,pred_sui\n400,-61,-24.3\n")
        assert table.predictions["sui"] == (-24.3,)

    def test_blank_lines_skipped(self):
        table = parse_drive_test_csv("distance_m,rssi_dbm\n\n500,-58\n\n400,-61\n")
        assert len(table) == 2

    def test_duplicate_distances_accepted(self):
        table = parse_drive_test_csv("distance_m,rssi_dbm\n3500,-79\n3500,-78\n")
        assert len(table) == 2

    def test_empty_text(self):
        with pytest.raises(DataError, match="empty"):
            parse_drive_test_csv("")

    def test_bad_header_names_line(self):
        with pytest.raises(DataError, match="line 1"):
            parse_drive_test_csv("distance_km,rssi_dbm\n1,-70\n")

    def test_bad_prediction_header(self):
        with pytest.raises(DataError, match="pred_"):
            parse_drive_test_csv("distance_m,rssi_dbm,sui\n400,-61,-24.3\n")
        with pytest.raises(DataError, match="duplicate"):
            parse_drive_test_csv("distance_m,rssi_dbm,pred_sui,pred_sui\n400,-61,-24.3,-24.3\n")

    def test_non_numeric_cell_names_row_and_column(self):
        with pytest.raises(DataError, match=r"row 2, column rssi_dbm"):
            parse_drive_test_csv("distance_m,rssi_dbm\n500,-58\n400,n/a\n")

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(DataError, match="row 1"):
            parse_drive_test_csv("distance_m,rssi_dbm\n-5,-70\n")

    def test_out_of_window_rss_rejected(self):
        with pytest.raises(DataError, match="row 1, column rssi_dbm"):
            parse_drive_test_csv("distance_m,rssi_dbm\n500,-200\n")
        with pytest.raises(DataError, match="pred_sui"):
            parse_drive_test_csv("distance_m,rssi_dbm,pred_sui\n500,-58,90\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(DataError, match="row 2"):
            parse_drive_test_csv("distance_m,rssi_dbm\n500,-58\n400\n")

    def test_a_lone_cr_ends_a_line(self):
        assert parse_drive_test_csv("distance_m,rssi_dbm\r1,-70\n") == parse_drive_test_csv("distance_m,rssi_dbm\n1,-70\n")

    def test_a_cell_past_the_csv_field_size_limit_names_its_line(self):
        with pytest.raises(DataError, match=r"^line 2: field larger than field limit \(131072\)$"):
            parse_drive_test_csv("distance_m,rssi_dbm\n1," + "7" * 140_000 + "\n")

    def test_a_nul_byte_is_a_data_error(self):
        # before Python 3.11 the csv module rejects the line; from 3.11 the cell holds the NUL and is not a number
        with pytest.raises(DataError, match=r"^(line 2: line contains NUL|row 1, column rssi_dbm: not a number: '-61\\x00')$"):
            parse_drive_test_csv("distance_m,rssi_dbm\n400,-61\x00\n")

    @pytest.mark.parametrize(
        ("text", "kind"), [(b"distance_m,rssi_dbm\n400,-61\n", "bytes"), (None, "NoneType"), ([1.0], "list")]
    )
    def test_an_argument_that_is_not_text_is_a_data_error(self, text, kind):
        with pytest.raises(DataError, match=f"^text must be a str, got {kind}$"):
            parse_drive_test_csv(text)


class TestRoundtrip:
    def test_reference_corpus_roundtrips_exactly(self):
        table = reference_dataset()
        again = parse_drive_test_csv(serialize_drive_test_csv(table))
        assert again.samples == table.samples
        assert again.predictions == table.predictions

    def test_fractional_values_roundtrip(self):
        text = "distance_m,rssi_dbm,pred_fspl\n415.5,-50.25,-63.333333333333336\n"
        table = parse_drive_test_csv(text)
        assert serialize_drive_test_csv(table) == text

    @pytest.mark.parametrize(("table", "kind"), [("distance_m,rssi_dbm\n400,-61\n", "str"), (None, "NoneType")])
    def test_serializing_what_is_not_a_table_is_a_data_error(self, table, kind):
        with pytest.raises(DataError, match=f"^table must be a DriveTestTable, got {kind}$"):
            serialize_drive_test_csv(table)


class TestTableValidation:
    def test_misaligned_prediction_rejected(self):
        with pytest.raises(DataError, match="sui"):
            DriveTestTable((500.0, 400.0), (-58.0, -61.0), {"sui": (-28.34,)})

    def test_empty_table_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            DriveTestTable((), ())

    def test_misaligned_measured_column_rejected(self):
        with pytest.raises(DataError, match="rssi_dbm column has 1 values for 2 samples"):
            DriveTestTable((500.0, 400.0), (-58.0,))

    def test_bad_value_named_by_row_order(self):
        # rows come first, then prediction columns, as the row-wise check did
        with pytest.raises(DataError, match=r"^row 2: distance_m"):
            DriveTestTable((500.0, -1.0, 300.0), (-58.0, -61.0, -500.0), {"a": (99.0, -60.0, -60.0)})
        with pytest.raises(DataError, match=r"^row 1, column pred_a"):
            DriveTestTable((500.0, 400.0), (-58.0, -61.0), {"a": (99.0, -60.0)})

    def test_overflowing_column_sum_is_not_an_error(self):
        table = DriveTestTable((1e308, 1e308), (-58.0, -61.0))
        assert table.distances_m == (1e308, 1e308)

    def test_samples_is_a_view_of_the_columns(self):
        table = DriveTestTable([500.0, 400.0], [-58.0, -61.0])
        assert table.distances_m == (500.0, 400.0)
        assert table.samples == ((500.0, -58.0), (400.0, -61.0))
        assert all(type(value) is float for row in table.samples for value in row)

    def test_with_prediction_adds_column(self):
        table = parse_drive_test_csv("distance_m,rssi_dbm\n500,-58\n")
        table = with_prediction(table, "fspl", [-30.5])
        assert table.predictions["fspl"] == (-30.5,)

    def test_the_table_keeps_its_own_prediction_columns(self):
        predictions = {"x": [-70.0]}
        table = DriveTestTable((1.0,), (-70.0,), predictions)
        predictions["y"] = [999.0]
        predictions["x"].append(-71.0)
        assert table.predictions == {"x": (-70.0,)}
        assert type(table.predictions["x"]) is tuple

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"], ids=["comma", "quote", "cr", "lf"])
    def test_a_column_name_csv_output_cannot_carry_is_rejected(self, name):
        message = f"^prediction column {re.escape(repr(name))}: a name may not hold a comma, a quote or a line break$"
        with pytest.raises(DataError, match=message):
            DriveTestTable((500.0,), (-58.0,), {name: (-60.0,)})
        with pytest.raises(DataError, match=message):
            with_prediction(reference_dataset(), name, reference_dataset().measured_rss_dbm)

    def test_a_quoted_header_cell_holding_a_comma_is_rejected(self):
        with pytest.raises(DataError, match="prediction column 'a,b': a name may not hold a comma"):
            parse_drive_test_csv('distance_m,rssi_dbm,"pred_a,b"\n500,-58,-60\n')

    def test_with_prediction_checks_the_new_column(self):
        table = parse_drive_test_csv("distance_m,rssi_dbm,pred_sui\n500,-58,-30\n400,-61,-28\n")
        with pytest.raises(DataError, match=r"row 2, column pred_fspl: RSS nan"):
            with_prediction(table, "fspl", [-30.5, math.nan])
        with pytest.raises(DataError, match="'fspl' has 1 values for 2 samples"):
            with_prediction(table, "fspl", [-30.5])
        replaced = with_prediction(table, "sui", [-31.0, -29.0])
        assert replaced.predictions == {"sui": (-31.0, -29.0)}
        assert table.predictions == {"sui": (-30.0, -28.0)}


class TestPlotSeries:
    def test_sorted_by_distance(self):
        text = emit_plot_series(reference_dataset(), REFERENCE_SITE)
        rows = text.strip().splitlines()
        distances = [float(line.split(",")[0]) for line in rows[1:]]
        assert distances == sorted(distances)
        assert rows[0].startswith("distance_m,measured_rss_dbm,")

    def test_path_loss_mode_uses_budget(self):
        # measured PL at d=4200 is budget 63.8 plus 73 dB
        text = emit_plot_series(reference_dataset(), REFERENCE_SITE, quantity="pl")
        last = text.strip().splitlines()[-1].split(",")
        assert last[0] == "4200"
        assert float(last[1]) == pytest.approx(136.8, abs=1e-9)

    def test_no_columns_gives_two_fields(self):
        table = parse_drive_test_csv("distance_m,rssi_dbm\n500,-58\n400,-61\n")
        text = emit_plot_series(table, REFERENCE_SITE)
        assert text.splitlines()[0] == "distance_m,measured_rss_dbm"
        assert text.splitlines()[1] == "400,-61.00"

    def test_column_selection_and_order(self):
        # a selection is a table that holds those columns; they are emitted in its order, not the reference's
        table = reference_dataset()
        chosen = DriveTestTable(table.distances_m, table.measured_rss_dbm, {n: table.predictions[n] for n in ["ericsson", "sui"]})
        lines = emit_plot_series(chosen, REFERENCE_SITE).splitlines()
        assert lines[0] == "distance_m,measured_rss_dbm,ericsson,sui"
        full = [line.split(",") for line in emit_plot_series(table, REFERENCE_SITE).splitlines()]
        assert [line.split(",") for line in lines] == [[row[0], row[1], row[5], row[4]] for row in full]

    def test_bad_quantity_rejected(self):
        with pytest.raises(DataError, match="quantity"):
            emit_plot_series(reference_dataset(), REFERENCE_SITE, quantity="throughput")


# -- generated tables ---------------------------------------------------------

distances = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
rss_values = st.floats(RSS_MIN_DBM, RSS_MAX_DBM)
column_names = st.lists(
    st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8), max_size=4, unique=True
)


@st.composite
def tables(draw) -> DriveTestTable:
    rows = draw(st.integers(1, 12))

    def column(values):
        return tuple(draw(st.lists(values, min_size=rows, max_size=rows)))

    predictions = {name: column(rss_values) for name in draw(column_names)}
    return DriveTestTable(column(distances), column(rss_values), predictions)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_parse_inverts_serialize(table):
    text = serialize_drive_test_csv(table)
    again = parse_drive_test_csv(text)
    assert again == table
    assert serialize_drive_test_csv(again) == text
    quoted = "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in text.splitlines())
    assert parse_drive_test_csv(quoted) == table


def _rowwise_reference(text: str) -> None:
    """The row-at-a-time parse and validation the columnar table replaced.

    Raises the DataError for the first bad cell it meets: every row's
    width and numbers in order, then each row's distance and measured
    RSS, then each prediction column top to bottom.
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(cell.strip() for cell in row)]
    header = [cell.strip() for cell in rows[0]]
    columns: list[list[float]] = [[] for _ in header]
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        for name, cell, values in zip(header, row, columns):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"row {i}, column {name}: not a number: {cell.strip()!r}") from None

    if not columns[0]:
        raise DataError("drive test has no samples")

    def check_rss(value, row, name):
        if not math.isfinite(value) or not RSS_MIN_DBM <= value <= RSS_MAX_DBM:
            raise DataError(f"row {row}, column {name}: RSS {value!r} outside [-150, 40] dBm")

    for i, (d, rss) in enumerate(zip(columns[0], columns[1]), start=1):
        if not math.isfinite(d) or d <= 0.0:
            raise DataError(f"row {i}: distance_m must be positive, got {d!r}")
        check_rss(rss, i, "rssi_dbm")
    for name, values in zip(header[2:], columns[2:]):
        for i, value in enumerate(values, start=1):
            check_rss(value, i, name)


BAD_CELLS = ("n/a", "1.5.2", "", "nan", "-5", "0", "-200", "90", "inf", "width+", "width-")


def _bad_cell_applies(kind: str, column: int) -> bool:
    if kind in ("-5", "0"):
        return column == 0
    if kind in ("-200", "90"):
        return column > 0
    return True


def _expected_error(kind: str, row: int, column: str, width: int) -> str:
    if kind == "width+":
        return f"row {row}: expected {width} cells, got {width + 1}"
    if kind == "width-":
        return f"row {row}: expected {width} cells, got {width - 1}"
    if kind in ("n/a", "1.5.2", ""):
        return f"row {row}, column {column}: not a number: {kind!r}"
    value = float(kind)
    if column == "distance_m":
        return f"row {row}: distance_m must be positive, got {value!r}"
    return f"row {row}, column {column}: RSS {value!r} outside [-150, 40] dBm"


@st.composite
def injections(draw, count):
    """A valid table's CSV lines as cells, and `count` bad cells to put in them."""
    table = draw(tables())
    lines = [line.split(",") for line in serialize_drive_test_csv(table).splitlines()]
    width = len(lines[0])
    cells = [width] * len(lines)  # each row's cells as `_inject` applies "width+" and "width-" in the order drawn
    chosen = []
    for _ in range(count):
        row = draw(st.integers(1, len(table)))
        column = draw(st.integers(0, width - 1))
        # a "width-" only on a row with a cell left to remove; a row with none left is blank and skipped
        kinds = [k for k in BAD_CELLS if _bad_cell_applies(k, column) and (k != "width-" or cells[row])]
        kind = draw(st.sampled_from(kinds))
        cells[row] += {"width+": 1, "width-": -1}.get(kind, 0)
        chosen.append((row, column, kind))
    return lines, chosen


def _inject(lines, chosen) -> str:
    lines = [list(cells) for cells in lines]
    # cells first, so a shortened row never hides a later cell's place
    for row, column, kind in sorted(chosen, key=lambda c: c[2].startswith("width")):
        if kind == "width+":
            lines[row].append("1")
        elif kind == "width-":
            lines[row].pop()
        else:
            lines[row][column] = kind
    return "\n".join(",".join(cells) for cells in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(injections(1))
def test_one_bad_cell_is_named_by_row_and_column(case):
    lines, [(row, column, kind)] = case
    header = lines[0]
    with pytest.raises(DataError) as exc:
        parse_drive_test_csv(_inject(lines, [(row, column, kind)]))
    assert str(exc.value) == _expected_error(kind, row, header[column], len(header))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(injections))
@example(([["distance_m", "rssi_dbm"], ["1", "0"]], [(1, 0, "width-")] * 2))  # two cells removed: a blank row
def test_first_bad_cell_in_row_order_is_reported(case):
    text = _inject(*case)
    try:
        _rowwise_reference(text)
    except DataError as exc:
        expected = str(exc)
    else:  # the injections cancelled out or blanked a row
        parse_drive_test_csv(text)
        return
    with pytest.raises(DataError) as exc:
        parse_drive_test_csv(text)
    assert str(exc.value) == expected


# -- the plain-text fast path against csv.reader ------------------------------

# cells that a plain split and csv.reader could read apart, or that float() reads in an unusual way
ODD_CELLS = (
    "", " ", "n/a", "1.5.2", "nan", "inf", "-inf", "1_000", " 500 ", "\t-61\t", "1e3",
    '"500"', '"-61"', '"1,5"', '""', '"a""b"', '"-61"x',
    "-61\x00", "\x00",
    "\x0c500", "500\x0c", "\x1c500", "-61\x1d", "\x1e-61", "-61\x85", "\u2028-61", "-61\u2029", "\x85",
)
LONG_CELL = "7" * 140_000  # past csv.field_size_limit(), which csv.reader enforces; float() reads it as inf
BLANK_LINES = ("", " ", "\t", ",", ",,", " , ", "\x0c", "\x85", "\u2028")
LINE_ENDS = ("\n", "\r\n", "\r")
SPLITLINES_ONLY_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")  # not ends to csv


@st.composite
def near_plain_csv(draw) -> str:
    """The plain text of a valid table, with up to three changes that may each send it off the fast path."""
    lines = [line.split(",") for line in serialize_drive_test_csv(draw(tables())).splitlines()]
    ends = ["\n"] * len(lines)
    header = lines[0]
    headers = ([f" {header[0]}", f"{header[1]} ", *header[2:]], [f'"{header[0]}"', *header[1:]], [*header, '"pred_a,b"'])
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        # only the changes that apply to the row: a "ragged" pop can empty a one-cell blank line, which then has no
        # cell to change, and a "ragged" change there appends one
        needs_a_cell = ("cell", "long") if lines[row] else ()
        change = draw(st.sampled_from((*needs_a_cell, "blank", "end", "ragged", "header", "last")))
        if change == "cell":
            lines[row][draw(st.integers(0, len(lines[row]) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif change == "long":
            lines[row][-1] = LONG_CELL
        elif change == "blank":  # also after the last line
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(BLANK_LINES)).split(","))
            ends.insert(at, draw(st.sampled_from(LINE_ENDS)))
        elif change == "end":
            ends[row] = draw(st.sampled_from(LINE_ENDS + SPLITLINES_ONLY_ENDS))
        elif change == "ragged":
            if not lines[row] or draw(st.booleans()):
                lines[row].append("-60")
            else:
                lines[row].pop()
        elif change == "header":
            lines[0] = draw(st.sampled_from(headers))
        else:
            ends[-1] = draw(st.sampled_from(("",) + LINE_ENDS))
    return "".join(",".join(cells) + end for cells, end in zip(lines, ends))


def _cells_or_error(split, text):
    try:
        return repr(split(text))  # repr tells nan, -0.0 and 0.0 apart
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=500, deadline=None)
@given(near_plain_csv())
@example("distance_m,rssi_dbm\n-60\r100,-70\n")  # a blank line emptied by a "ragged" pop, then given a cell
def test_the_fast_path_reads_what_csv_reader_reads(text):
    fast = _cells_or_error(dataset._plain_cells, text)
    if fast != "None":
        assert fast == _cells_or_error(dataset._csv_cells, text)


@settings(max_examples=100, deadline=None)
@given(tables())
def test_serialized_tables_take_the_fast_path(table):
    assert dataset._plain_cells(serialize_drive_test_csv(table)) is not None


@settings(max_examples=300, deadline=None)
@given(near_plain_csv(), st.sampled_from((1, 7, 64)))
@example("distance_m,rssi_dbm\r\n100,-70\r\n200,-71\r\n\r\n", 1)  # a cut before a blank last line of a "\r\n" file
# a slice past the field size limit after a bad header, which csv.reader reaches only after the long line
@example(f"distance_m,rssi\n100,-70\n200,{LONG_CELL}\n300,-72\n", 7)
def test_the_fast_path_reads_what_csv_reader_reads_at_every_cut(text, chars):
    # slices of a few characters cut the text after nearly every "\n": each cut gives what one slice gives
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_SLICE_CHARS", chars)
        sliced = _cells_or_error(dataset._plain_cells, text)
    assert sliced == _cells_or_error(dataset._plain_cells, text)
    if sliced != "None":
        assert sliced == _cells_or_error(dataset._csv_cells, text)


def _every_row_first(text):
    """`_csv_cells` as it was when it read every row before it checked any: the oracle of the order of its errors."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if not dataset._is_blank(row)]
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError("empty drive-test CSV")
    header = dataset._checked_header(rows[0])
    cells = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        for name, cell in zip(header, row):
            try:
                cells.append(float(cell))
            except ValueError:
                raise DataError(f"row {i}, column {name}: not a number: {cell.strip()!r}") from None
    return header, [tuple(cells[k::len(header)]) for k in range(len(header))]


@st.composite
def csv_reader_texts(draw) -> str:
    """A `near_plain_csv` text, perhaps with a quote put in that leaves a cell open across line ends."""
    text = draw(near_plain_csv())
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(("", '"', '"\r', '"\n'))) + text[at:]


@settings(max_examples=300, deadline=None)
@given(csv_reader_texts(), st.sampled_from((1, 7, 64)))
@example('distance_m,rssi_dbm\r100,-70\r\n"200\r\n",-71\n', 1)  # a quoted cell across cuts, one after "\r" alone
@example(f"distance_m,rssi\n100,-70\n200,{LONG_CELL}\n", 7)  # a bad header, then a line csv.reader rejects
@example(f"distance_m,rssi_dbm\r\n100,-70\r\n200,{LONG_CELL}\r\n", 1)  # no cut splits a "\r\n": the line number holds
@example(f"distance_m,rssi_dbm\n100,x\n200,-71,0\n300,{LONG_CELL}\n", 7)  # a bad cell and a bad row before it
def test_the_csv_reader_route_reads_as_when_it_held_every_row_at_every_cut(text, chars):
    # rows are converted as they are read, from slices cut after a line end; a bad header, row or cell is raised
    # only once the reader is done, so that a line csv.reader rejects further on is still reported first
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_SLICE_CHARS", chars)
        assert _cells_or_error(dataset._csv_cells, text) == _cells_or_error(_every_row_first, text)


def _survey_text(line_end: str) -> str:
    rng = random.Random(5)
    rows = (f"{rng.uniform(100.0, 5000.0):.1f},{rng.uniform(-120.0, -40.0):.2f},{rng.uniform(-120.0, -40.0):.2f},"
            f"{rng.uniform(-120.0, -40.0):.2f}" for _ in range(20_000))
    return line_end.join(["distance_m,rssi_dbm,pred_a,pred_b", *rows]) + line_end


def _traced_parse(text: str) -> tuple[DriveTestTable, int, int]:
    """The parse of `text`, and the bytes it kept and its peak, by `tracemalloc`."""
    tracemalloc.start()
    try:
        table = parse_drive_test_csv(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return table, kept, peak


def test_the_parse_holds_little_more_than_the_table_it_returns():
    table, kept, peak = _traced_parse(_survey_text("\n"))
    assert len(table) == 20_000
    # the columns' floats and tuples are the table. Beside them the parse holds the lists the columns grow in, about
    # 0.3 of the table, and one slice's strings, about 0.7 MB: 1.55 times the table here, and 1.3 at 100,000 rows of
    # six columns. Converting every cell at once held 3.1 times the table
    assert peak < 2.0 * kept


def test_the_quoted_route_holds_little_more_than_the_table_it_returns():
    text = _survey_text("\n")
    quoted = re.sub(r"[^,\n]+", r'"\g<0>"', text)  # every cell quoted
    assert dataset._plain_cells(quoted) is None  # the quotes send it to `_csv_cells`
    table, kept, peak = _traced_parse(quoted)
    assert table == parse_drive_test_csv(text)
    # beside the table, the lists the columns grow in and one slice's StringIO, four bytes a character: 1.34 times the
    # table here. Reading every row before converting any held 3.87 times the table
    assert peak < 2.0 * kept


def test_crlf_line_ends_parse_to_the_same_table_in_the_same_memory():
    # each slice drops its own "\r"s; a copy of the whole text without them took the peak 14% above the "\n" parse's
    plain, _, plain_peak = _traced_parse(_survey_text("\n"))
    crlf, _, crlf_peak = _traced_parse(_survey_text("\r\n"))
    assert crlf == plain
    assert crlf_peak <= 1.1 * plain_peak


def test_the_rss_window_checks_input_columns_and_a_derived_one_need_only_be_finite():
    table = reference_dataset()
    rss = [-169.0] * len(table)
    with pytest.raises(DataError, match=r"^row 1, column pred_x: RSS -169.0 outside \[-150, 40\] dBm$"):
        with_prediction(table, "x", rss)  # a caller's column is input
    assert dataset._with_derived(table, "x", rss).predictions["x"] == tuple(rss)
    with pytest.raises(DomainError, match=r"^row 2, column pred_x: RSS inf is not finite$"):
        dataset._with_derived(table, "x", [-169.0, math.inf, *rss[2:]])
