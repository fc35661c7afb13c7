"""Columns that propcal builds carry their checks: a parsed or computed column is checked once.

`errors._Floats` marks a column whose items are floats and records the
bounds it has passed.  `checked_column` skips the type gate for such a
column and returns it untouched, with no pass over it, when the bounds
it has passed lie within the ones asked for.  These cases pin that the
mark changes no value and no error, only how often a column is scanned.
"""

import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propcal import DataError, DriveTestTable, calibrate, parse_drive_test_csv, reference_dataset
from propcal import errors
from propcal.dataset import RSS_MAX_DBM, RSS_MIN_DBM
from propcal.errors import LEAST_POSITIVE, _Floats, checked_column

LARGEST = sys.float_info.max
# the bounds propcal's own checks ask for: finite, positive, non-negative, and the RSS window
PROPCAL_BOUNDS = [(-LARGEST, LARGEST), (LEAST_POSITIVE, LARGEST), (0.0, LARGEST), (RSS_MIN_DBM, RSS_MAX_DBM)]
SPECIAL = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 0.0, -0.0, 1e308, -1e308, LARGEST,
           RSS_MIN_DBM, RSS_MAX_DBM, -150.01, 40.01]

values = st.one_of(st.floats(-200.0, 200.0), st.sampled_from(SPECIAL))
bounds = st.one_of(st.sampled_from(PROPCAL_BOUNDS), st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)))


def _outcome(column, low, high):
    """`checked_column`'s result, or a list of the type and message of the error it raises, which no column equals."""
    message = "value {} is {!r}".format
    try:
        return checked_column("x", column, DataError, message, low, high)
    except DataError as exc:
        return [type(exc), str(exc)]


class _Passes:
    """Counts, by name, the calls of `sum`, `min`, `max` and `set` over a whole column that `errors` makes while patched in."""

    def __enter__(self):
        self.counts = dict.fromkeys(("sum", "min", "max", "set"), 0)

        def counted(name, builtin):
            def call(*args, **kwargs):
                self.counts[name] += len(args) == 1  # one iterable: a pass; two scalars: a comparison of bounds
                return builtin(*args, **kwargs)
            return call
        self._patches = [mock.patch.object(errors, name, counted(name, builtin), create=True)
                         for name, builtin in (("sum", sum), ("min", min), ("max", max), ("set", set))]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()

    @property
    def total(self):
        return sum(self.counts.values())


@settings(max_examples=300, deadline=None)
@given(st.lists(values, max_size=12), st.lists(bounds, min_size=1, max_size=4))
def test_a_marked_column_checks_as_a_plain_tuple_does(items, requests):
    marked = _Floats(items)
    for low, high in requests:
        plain = _outcome(tuple(items), low, high)
        with _Passes() as passes:
            got = _outcome(marked, low, high)
        assert got == plain and passes.counts["set"] == 0
        if got is marked:  # it passed at once: its bounds now hold what it passed, and cover any wider request
            assert marked.low >= low and marked.high <= high
            for wider in ((low, high), (marked.low, marked.high), (-LARGEST, LARGEST)):
                with _Passes() as passes:
                    assert checked_column("x", marked, DataError, str, *wider) is marked
                assert passes.total == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=12), st.sampled_from(PROPCAL_BOUNDS))
def test_a_marked_column_that_passes_comes_back_as_it_is_with_its_bounds(items, request):
    column = _Floats(items)
    with _Passes() as passes:
        outcome = _outcome(column, *request)
    assert passes.counts["set"] == 0 and max(passes.counts.values()) <= 1
    if outcome == _outcome(tuple(items), *request) and not isinstance(outcome, list) and math.isfinite(sum(items)):
        assert outcome is column and (column.low, column.high) == request
        with _Passes() as passes:
            assert checked_column("x", column, DataError, str) is column
        assert passes.total == 0


def test_a_library_built_table_keeps_plain_tuple_columns():
    lists = DriveTestTable([100.0, 200.0], [-70.0, -80.0], {"a": [-71.0, -79.0]})
    tuples = DriveTestTable((100.0, 200.0), (-70.0, -80.0), {"a": (-71.0, -79.0)})
    for table in (lists, tuples, reference_dataset()):
        for column in (table.distances_m, table.measured_rss_dbm, *table.predictions.values()):
            assert type(column) is tuple


@pytest.mark.parametrize("text", [
    "distance_m,rssi_dbm,pred_a\n100,-70,-71\n200,-80,-79.5\n",
    '"distance_m","rssi_dbm","pred_a"\n"100","-70","-71"\n\n"200","-80","-79.5"\n',  # the csv.reader route
])
def test_a_parsed_table_carries_its_checks_into_calibrate(text):
    table = parse_drive_test_csv(text)
    assert (table.distances_m.low, table.distances_m.high) == (LEAST_POSITIVE, LARGEST)
    for column in (table.measured_rss_dbm, table.predictions["a"]):
        assert (type(column), column.low, column.high) == (_Floats, RSS_MIN_DBM, RSS_MAX_DBM)
    with _Passes() as passes:
        again = DriveTestTable(table.distances_m, table.measured_rss_dbm, table.predictions)
        calibrate(table.measured_rss_dbm, table.predictions)
    assert passes.total == 0 and again == table and again.distances_m is table.distances_m


# RSS as drive tests record it, in hundredths of a dB, or at full precision
rss_values = st.one_of(st.integers(-15000, 4000).map(lambda v: v / 100), st.floats(RSS_MIN_DBM, RSS_MAX_DBM))


@st.composite
def drive_test_csvs(draw) -> str:
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    lines = ["distance_m,rssi_dbm," + ",".join(f"pred_{name}" for name in names)]
    for _ in range(draw(st.integers(1, 12))):
        cells = [draw(st.floats(0.1, 1e5)), *(draw(rss_values) for _ in range(len(names) + 1))]
        lines.append(",".join(map(repr, cells)))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(drive_test_csvs(), st.one_of(st.none(), st.floats(0.0, 100.0)))
def test_calibrate_gives_the_same_bytes_on_parsed_and_plain_columns(text, threshold):
    table = parse_drive_test_csv(text)
    plain = {name: tuple(column) for name, column in table.predictions.items()}
    computed = {name: _Floats(list(column)) for name, column in table.predictions.items()}
    reports = [calibrate(measured, predictions, acceptable_mse_db2=threshold)
               for measured, predictions in ((table.measured_rss_dbm, table.predictions),
                                             (tuple(table.measured_rss_dbm), plain),
                                             (list(table.measured_rss_dbm), computed))]
    assert len({report.to_json() for report in reports}) == 1
    assert len({report.to_csv() for report in reports}) == 1
