"""Fuzzed command lines and drive-test files: `main` never raises.

Every argv is built from the real subcommands and flags, filled with
plain, junk, non-finite and extreme values; generated CSV text goes to
`compare`, `calibrate`, `plot` and `infer` through `--data`.  Whatever
the input, `main` must return 0-3, a non-zero exit must come with a
`propcal: error:` message on stderr, and the output of an exit 0 must
hold no infinite or NaN value.  Ranges are either tiny or above
`MAX_RANGE_POINTS`, so the cap is checked by value and nothing large is
ever allocated.
"""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from propcal.cli import MAX_RANGE_POINTS, main
from propcal.models import MODEL_IDS

pytestmark = pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

SITE_JSON = (
    '{"tx_power_dbm": 30, "tx_gain_dbi": 20, "rx_gain_dbi": 18, "feeder_loss_db": 1.2,'
    ' "polarization_loss_db": 3, "freq_mhz": 2530, "tx_height_m": 40, "rx_height_m": 3}'
)
FILES = {
    "site.json": SITE_JSON.encode(),
    "huge_site.json": SITE_JSON.replace("30", "1e308").replace("20", "1.7e308").encode(),
    "junk_site.json": b'{"tx_power_dbm": "x"}',
    "latin1.json": b'{"tx_power_dbm": 30\xff}',
    "bigint_site.json": SITE_JSON.replace("2530", "9" * 401).encode(),
    "digit_limit_site.json": SITE_JSON.replace("2530", "9" * 5001).encode(),
    "corpus.csv": b"distance_m,rssi_dbm,pred_sui\n400,-61,-24.3\n900,-65,-38.98\n2000,-71,-53.43\n",
    "latin1.csv": b"distance_m,rssi_dbm\n400,-61\xff\n",
    # the loss falls 90 dB over a micrometer: its slope implies no finite cost231 height
    "falling.csv": b"distance_m,rssi_dbm,pred_cost231_hata\n1000,-50,-140\n1000.000001,-100,-50\n",
}
# A JSON Infinity/NaN or a CSV inf/nan cell, as a whole token: "infer" is not one.
NON_FINITE = re.compile(r"(?<![\w.])[+-]?(?:inf|infinity|nan)(?![\w.])", re.IGNORECASE)

EXTREMES = ["0", "-0", "-1", "1", "2", "3", "40", "2000", "2530", "1e-320", "5e-324", "1e308", "-1e308",
            "1.7976931348623157e308", "nan", "inf", "-inf", "", "abc", "0x10", "1_0"]
NUMBERS = st.one_of(st.sampled_from(EXTREMES), st.floats(5e-324, 1e308).map(repr), st.floats().map(repr))
NAMES = ["A", "B", "C", "D", "medium", "metro", "medium_suburban", "metropolitan", "medium_city",
         "large_city", "", "x", *MODEL_IDS]
GRID_KEYS = ["freq_mhz", "tx_height_m", "rx_height_m", "environment", "terrain", "sui_d0_m",
             "sui_shadow_db", "sui_xh_denominator_m", "ericsson_a0", "ericsson_a3",
             "tx_gain_linear", "rx_gain_variant", "downtilt", ""]


@st.composite
def ranges(draw):
    """START:STOP:STEP with at most 8 points, far above the cap, or junk."""
    kind = draw(st.sampled_from(["tiny", "huge", "junk"]))
    if kind == "junk":
        return draw(st.sampled_from(["1:2", "a:b:c", "0:0:0", "5:1:1", "nan:1:1", "1:inf:1", "::", "1:2:3:4"]))
    start = draw(st.floats(-1e4, 1e5, allow_nan=False))
    step = draw(st.floats(1e-3, 1e4, allow_nan=False))
    count = draw(st.integers(0, 7) if kind == "tiny" else st.integers(MAX_RANGE_POINTS, 10**15))
    return f"{start!r}:{start + count * step!r}:{step!r}"


@st.composite
def grid_axes(draw):
    key = draw(st.sampled_from(GRID_KEYS))
    if draw(st.booleans()):
        body = draw(ranges())
    else:
        body = ",".join(draw(st.lists(st.one_of(st.sampled_from(NAMES), NUMBERS), min_size=1, max_size=3)))
    return ["--grid", f"{key}={body}"]


def _flag(name, values):
    return st.builds(lambda v: [name, v], values)


SITE_FILE = _flag("--site", st.sampled_from(["table3", "site.json", "huge_site.json", "junk_site.json",
                                             "latin1.json", "bigint_site.json", "digit_limit_site.json",
                                             "missing.json"]))
SITE_FLAGS = [
    SITE_FILE,
    _flag("--freq-mhz", NUMBERS),
    _flag("--tx-height", NUMBERS),
    _flag("--rx-height", NUMBERS),
]
MODEL_FLAGS = [
    _flag("--env", st.sampled_from(["medium", "metro", "x"])),
    _flag("--terrain", st.sampled_from(["A", "B", "C", "D"])),
    _flag("--sui-xh-denom", st.sampled_from(["2", "2000", "3", "nan"])),
    _flag("--sui-shadow", NUMBERS),
    _flag("--tx-gain-linear", NUMBERS),
]
DATA = _flag("--data", st.sampled_from(["embedded:reference", "corpus.csv", "latin1.csv", "falling.csv",
                                        "missing.csv", "."]))
OUT = _flag("--out", st.sampled_from(["out.txt", ".", "missing/out.txt"]))
FORMAT = _flag("--format", st.sampled_from(["json", "csv", "xml"]))
MODEL = _flag("--model", st.sampled_from([*MODEL_IDS, "okumura"]))
ALL = st.just(["--all"])
MSE = _flag("--acceptable-mse", NUMBERS)

# Per command: flags it always gets (one of each list), then flags it may get.
COMMANDS = {
    "predict": (
        [[MODEL, ALL], [_flag("--distance-m", NUMBERS), _flag("--distances", ranges())]],
        [*SITE_FLAGS, *MODEL_FLAGS, OUT, FORMAT],
    ),
    "calibrate": ([[DATA]], [*SITE_FLAGS, *MODEL_FLAGS, OUT, FORMAT, MODEL, ALL, MSE]),
    "compare": ([[DATA]], [SITE_FILE, OUT, FORMAT, MSE]),
    "reference": ([], [OUT, st.just(["--dump"])]),
    "infer": (
        [[MODEL], [DATA]],
        [*SITE_FLAGS, *MODEL_FLAGS, OUT, FORMAT, grid_axes(), grid_axes(),
         _flag("--column", st.sampled_from(["sui", "ericsson", "nope"]))],
    ),
    "plot": ([], [*SITE_FLAGS, *MODEL_FLAGS, OUT, MODEL, ALL, DATA,
                  _flag("--quantity", st.sampled_from(["rss", "pl", "db"]))]),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    required, optional = COMMANDS.get(command, ([], []))
    argv = [command]
    for choices in required:
        argv += draw(st.one_of(*choices))
    for _ in range(draw(st.integers(0, 4)) if optional else 0):
        argv += draw(st.one_of(*optional))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--help", "--", "-x", "--all", "="])))
    return argv


VALUE_CELLS = st.one_of(
    st.floats(-160.0, 50.0).map(lambda v: f"{v:.2f}"),
    st.sampled_from(["nan", "inf", "-inf", "", "x", "1e308", "-1e308", "0", "-0", "5e-324"]),
)
DISTANCE_CELLS = st.one_of(st.floats(1.0, 2e4).map(lambda v: f"{v:.1f}"), VALUE_CELLS)


@st.composite
def drive_test_csv(draw):
    header = draw(st.sampled_from([
        "distance_m,rssi_dbm",
        "distance_m,rssi_dbm,pred_sui",
        "distance_m,rssi_dbm,pred_sui,pred_ericsson",
        "\ufeffdistance_m,rssi_dbm,pred_cost231_hata",
        "distance_m,rssi_dbm,pred_,pred_sui",
        "distance_m,rssi_dbm,sui",
        "rssi_dbm,distance_m",
        "",
    ]))
    width = len(header.split(","))
    rows = draw(st.lists(
        st.lists(VALUE_CELLS, min_size=width - 1, max_size=width).flatmap(
            lambda cells: DISTANCE_CELLS.map(lambda d: [d, *cells])
        ),
        max_size=8,
    ))
    text = "\n".join([header, *(",".join(row) for row in rows)]) + "\n"
    return text.encode() + draw(st.sampled_from([b"", b"", b"\xff\n"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in FILES.items():
        (root / name).write_bytes(data)
    return root


def _files_under(argv, root):
    """argv with each --site, --data and --out path, but not the built-in aliases, under `root`."""
    after = {"--site", "--data", "--out"}
    return [str(root / a) if prev in after and a not in ("table3", "embedded:reference") else a
            for prev, a in zip(["", *argv], argv)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        assert err.getvalue().startswith("propcal: error: "), (argv, err.getvalue())
    else:
        # a value that overflows to inf, or a NaN, exits 3 instead of being printed
        assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
    return code, out.getvalue()


@FUZZ
@given(argv=command_lines())
def test_fuzzed_command_lines_exit_0_to_3(workdir, argv):
    _run(_files_under(argv, workdir))


@FUZZ
@given(
    data=drive_test_csv(),
    argv=st.sampled_from([
        ["compare"],
        ["compare", "--format", "csv"],
        ["calibrate", "--all"],
        ["calibrate", "--model", "sui", "--format", "csv"],
        ["plot", "--all", "--quantity", "pl"],
        ["plot", "--model", "ericsson"],
        ["infer", "--model", "sui", "--grid", "tx_height_m=20,40", "--grid", "terrain=A,B"],
        ["infer", "--model", "ericsson", "--column", "sui", "--grid", "tx_height_m=30:50:10"],
    ]),
)
def test_fuzzed_drive_test_files_exit_0_to_3(workdir, data, argv):
    path = workdir / "fuzzed.csv"
    path.write_bytes(data)
    _run([*argv, "--data", str(path)])


POSITIVE = st.one_of(st.sampled_from(["1e-320", "5e-324", "1e-300", "1e308", "1.7976931348623157e308"]),
                     st.floats(5e-324, 1.7976931348623157e308).map(repr))


@FUZZ
@given(
    model=st.sampled_from([["--all"], *(["--model", m] for m in MODEL_IDS)]),
    distance=POSITIVE,
    site=st.fixed_dictionaries({}, optional={
        flag: POSITIVE for flag in ("--freq-mhz", "--tx-height", "--rx-height", "--tx-gain-linear")
    }),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_every_model_binds_or_exits_3_at_extreme_sites(model, distance, site, fmt):
    argv = ["predict", *model, "--distance-m", distance, "--format", fmt]
    for flag, value in site.items():
        argv += [flag, value]
    code, _ = _run(argv)
    assert code in (0, 3), (argv, code)
