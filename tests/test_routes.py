"""Which route scores each row of the CLI's `calibrate` and `compare`.

Both commands score from centred moment sums (`calibration._calibrate_models`
and `calibration._calibrate_columns`) and fall back to the per-sample
`calibration._scored` only where the stated bound needs what the sums do not
show.  A fallback test widened by mistake would keep every output within its
bound and pass every other test, so these tests count the per-sample calls:
none on the corpus and on a survey-like drive test, and one, bit for bit as
`calibrate` scores the column, for each fallback reason the docstrings list.
"""

import contextlib
import io
import math
import random
from unittest import mock

import pytest

from propcal import REFERENCE_SITE, DriveTestTable, PathLossModel, calibrate, calibration, model_from_params
from propcal.cli import main
from propcal.errors import _Floats

pytestmark = pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")

MODELS = ("cost231_hata", "extended_cost231", "sui", "ericsson")


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    """A seeded 2,000-row drive test like the survey benchmark's: log-uniform distances, one model's RSS plus an
    offset and Gaussian shadowing, and each model's predicted RSS, all rounded to the CSV's precision."""
    rng = random.Random(1)
    bound = [model_from_params(m, {"freq_mhz": 2530.0, "tx_height_m": 40.0, "rx_height_m": 3.0}) for m in MODELS]
    rows = ["distance_m,rssi_dbm," + ",".join(f"pred_{m}" for m in MODELS)]
    for _ in range(2_000):
        d = round(10.0 ** rng.uniform(math.log10(200.0), math.log10(5000.0)), 1)
        rss = [REFERENCE_SITE.budget_db - model.path_loss_series([d])[0] for model in bound]
        measured = min(max(rss[0] + 3.0 + rng.gauss(0.0, 6.0), -150.0), 40.0)
        rows.append(",".join([f"{d:.1f}", f"{measured:.2f}", *(f"{y:.2f}" for y in rss)]))
    path = tmp_path_factory.mktemp("survey") / "survey.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("command", [["calibrate", "--all"], ["compare"]], ids=["calibrate", "compare"])
@pytest.mark.parametrize("data", ["corpus", "survey"])
def test_the_cli_scores_every_row_from_sums(command, data, request):
    path = "embedded:reference" if data == "corpus" else request.getfixturevalue("survey")
    with mock.patch.object(calibration, "_scored", wraps=calibration._scored) as per_sample:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([*command, "--data", path]) == 0
    assert per_sample.call_count == 0


SPREAD = [-60.0, -70.0, -65.0]
NEAR_FLAT = [-60.0, -60.0 + math.ulp(60.0), -60.0]
FLAT = [-60.0, -60.0, -60.0]  # r is undefined whatever the prediction, so r's reasons do not apply

# one input per reason `_calibrate_models` scores a model sample by sample: measured, distances, model, budget
MODEL_FALLBACKS = {
    "coefficient": (FLAT, [500.0, 900.0, 2000.0], PathLossModel("m", 120.0, 1e-61), 63.8),
    "budget": (FLAT, [500.0, 900.0, 2000.0], PathLossModel("m", 120.0, 30.0), 1e101),
    # a measured series that `_pearson_centred` would rescale
    "near_flat_measured": (NEAR_FLAT, [500.0, 900.0, 2000.0], PathLossModel("m", 120.0, 30.0), 63.8),
    # distances 1e-14 apart: a prediction whose squared deviations are below 2**-40 of n times its level
    "prediction_may_round_flat": (SPREAD, [5000.0, 5000.0 * (1 + 1e-14), 5000.0 * (1 + 2e-14)],
                                  PathLossModel("m", 120.0, 30.0), 63.8),
    # -2*L + L**2 nearly flat over L = 0.9, 1, 1.1: the squared deviations are below 2**-9 of those of its terms
    "terms_cancel": (SPREAD, [10.0**3.9, 10.0**4, 10.0**4.1], PathLossModel("m", 100.0, -2.0, 1.0), 50.0),
}


@pytest.mark.parametrize("case", MODEL_FALLBACKS.values(), ids=MODEL_FALLBACKS.keys())
def test_each_model_fallback_reason_scores_sample_by_sample_to_the_bit(case):
    measured, distances, model, budget = case
    with mock.patch.object(calibration, "_scored", wraps=calibration._scored) as per_sample:
        report = calibration._calibrate_models(measured, distances, [model], budget)
    assert [call.args[0] for call in per_sample.call_args_list] == ["m"]
    want = calibrate(measured, {"m": _Floats([budget - loss for loss in model._losses(distances)])})
    assert report == want and report.to_json() == want.to_json()


# one input per reason `_calibrate_columns` scores a column sample by sample: measured, column
COLUMN_FALLBACKS = {
    "flat_column": ([-60.0, -61.0, -70.5], [-62.0, -62.0, -62.0]),
    "near_flat_column": ([-60.0, -61.0, -70.5], [-62.0, -62.0 + math.ulp(62.0), -62.0]),
    "underflowing_column": ([-60.0, -61.0, -70.5], [5e-324, 1e-323, 5e-324]),
    "near_flat_measured": (NEAR_FLAT, [-62.0, -65.0, -71.0]),  # where `_moment_score` returns None
}


@pytest.mark.parametrize("case", COLUMN_FALLBACKS.values(), ids=COLUMN_FALLBACKS.keys())
def test_each_column_fallback_reason_scores_sample_by_sample_to_the_bit(case):
    measured, column = case
    table = DriveTestTable([100.0, 200.0, 300.0], measured, {"a": column})
    with mock.patch.object(calibration, "_scored", wraps=calibration._scored) as per_sample:
        report = calibration._calibrate_columns(table)
    assert [call.args[0] for call in per_sample.call_args_list] == ["a"]
    want = calibrate(measured, {"a": column})
    assert report == want and report.to_json() == want.to_json()
