"""Tests of the benchmark itself: inputs, output checks, and the tracer."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import loop  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

from propcal.cli import main  # noqa: E402
from propcal.models import make_model  # noqa: E402


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


# --- inputs -----------------------------------------------------------------


def test_survey_generator_is_deterministic(tmp_path):
    first = inputs.survey_csv(7, tmp_path / "a.csv", rows=500)
    again = inputs.survey_csv(7, tmp_path / "b.csv", rows=500)
    other = inputs.survey_csv(8, tmp_path / "c.csv", rows=500)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert first == again
    assert other["sha256"] != first["sha256"]


def test_infer_generator_is_deterministic_and_hides_grid_points(tmp_path):
    first = inputs.infer_csv(3, tmp_path / "a.csv", rows=40)
    again = inputs.infer_csv(3, tmp_path / "b.csv", rows=40)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert first == again
    for model_id, params in first["hidden"].items():
        for name, value in params.items():
            assert value in inputs.DEFAULT_GRIDS[model_id][name]


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
@pytest.mark.parametrize("model_id", oracle.MODEL_IDS)
def test_oracle_matches_the_program_at_the_reference_site(model_id):
    model = make_model(model_id, oracle.FREQ_MHZ, oracle.TX_HEIGHT_M, oracle.RX_HEIGHT_M)
    for d in (150.0, 900.0, 4200.0, 50199.0):
        assert oracle.path_loss(model_id, d) == pytest.approx(model.path_loss_db(d), abs=1e-9)


# --- output checks ----------------------------------------------------------

SURVEY_META = {"truth": "sui", "offset_db": 3.21, "sigma_db": 6.0, "rows": 100_000}


def _survey_report(cf_truth: float = 3.21, best: str = "sui") -> dict:
    models = {}
    for i, model_id in enumerate(oracle.PRED_MODELS):
        cf = cf_truth if model_id == "sui" else 1.0 + i
        before = 40.0 + cf**2 + i
        models[model_id] = {"cf_db": cf, "mse_before_db2": before, "mse_after_db2": before - cf**2}
    return {"models": models, "best_model": best}


def test_survey_check_accepts_the_injected_offset():
    checks.survey_report(json.dumps(_survey_report()), SURVEY_META, oracle.PRED_MODELS)


@pytest.mark.parametrize(
    "report",
    [
        _survey_report(cf_truth=3.21 + 0.2),
        _survey_report(best="ericsson"),
        {**_survey_report(), "models": {**_survey_report()["models"], "sui": {"cf_db": 3.21, "mse_before_db2": 50.0, "mse_after_db2": 49.0}}},
    ],
    ids=["perturbed_cf", "wrong_winner", "broken_identity"],
)
def test_survey_check_rejects_a_wrong_report(report):
    with pytest.raises(AssertionError):
        checks.survey_report(json.dumps(report), SURVEY_META, oracle.PRED_MODELS)


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_checks_accept_the_program_and_reject_a_shifted_value(fmt):
    meta = {"start_m": 200, "points": 900}
    out = _cli("predict", "--all", "--distances", "200:1099:1", "--format", fmt)
    check = checks.sweep_csv if fmt == "csv" else checks.sweep_json
    check(out, meta)
    if fmt == "csv":
        lines = out.splitlines()
        cells = lines[801].split(",")
        cells[4] = f"{float(cells[4]) + 0.05:.4f}"
        lines[801] = ",".join(cells)
        wrong = "\n".join(lines) + "\n"
    else:
        payload = json.loads(out)
        payload["path_loss_db"]["sui"][800] += 0.05
        wrong = json.dumps(payload)
    with pytest.raises(AssertionError):
        check(wrong, meta)


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
def test_infer_check_accepts_the_hidden_height_and_rejects_another(tmp_path):
    meta = inputs.infer_csv(5, tmp_path / "infer.csv", rows=40)
    out = _cli("infer", "--model", "ericsson", "--data", str(tmp_path / "infer.csv"))
    checks.infer(out, meta, "ericsson")
    payload = json.loads(out)
    payload["params"]["tx_height_m"] += 1.0
    with pytest.raises(AssertionError):
        checks.infer(json.dumps(payload), meta, "ericsson")


def test_corpus_compare_check_rejects_a_perturbed_cf_and_a_wrong_winner():
    out = _cli("compare", "--data", "embedded:reference")
    checks.corpus_compare(out)
    report = json.loads(out)
    report["models"]["sui"]["cf_db"] += 0.003
    with pytest.raises(AssertionError):
        checks.corpus_compare(json.dumps(report))
    report = json.loads(out)
    report["best_model"] = "cost231_hata"
    with pytest.raises(AssertionError):
        checks.corpus_compare(json.dumps(report))


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
def test_corpus_calibrate_check_uses_the_closed_forms_and_rejects_a_perturbed_cf():
    rows = [line.split(",") for line in _cli("reference", "--dump").splitlines()[1:]]
    for model_id, expected in checks.CORPUS_CALIBRATE_CF_DB.items():
        residuals = [float(rss) - (oracle.BUDGET_DB - oracle.path_loss(model_id, float(d))) for d, rss, *_ in rows]
        assert sum(residuals) / len(residuals) == pytest.approx(expected, abs=1e-9)
    out = _cli("calibrate", "--all", "--data", "embedded:reference")
    checks.corpus_calibrate(out)
    report = json.loads(out)
    report["models"]["ericsson"]["cf_db"] += 1e-4
    with pytest.raises(AssertionError):
        checks.corpus_calibrate(json.dumps(report))


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
def test_corpus_checks_accept_the_program():
    checks.corpus_plot(_cli("plot", "--all", "--quantity", "pl"))
    checks.corpus_dump(_cli("reference", "--dump"))
    checks.predict_one(_cli("predict", "--model", "sui", "--distance-m", "900"))
    with pytest.raises(AssertionError):
        checks.predict_one(_cli("predict", "--model", "sui", "--distance-m", "901"))


def test_checker_fails_a_nonzero_exit_and_a_changed_repeat():
    checker = checks.Checker("corpus_loop", {})
    out = _cli("reference", "--dump")
    assert checker("reference", 0, out, "") is None
    assert checker("reference", 0, out, "") is None
    assert "differs" in checker("reference", 0, out.replace("-73", "-74", 1), "")
    assert "exit code 2" in checker("reference", 2, "", "propcal: error: bad")


# --- tracer -----------------------------------------------------------------


def _corpus_plan(workdir: Path) -> dict:
    plan = inputs.build("corpus_loop", 1, workdir)
    return {**plan, "seconds": 0, "trace": 1}


def _corpus_result(workdir: Path) -> tuple[dict, dict]:
    """One untraced and one traced corpus cycle, as the worker reports them."""
    plan = _corpus_plan(workdir)
    checker = checks.Checker(plan["workload"], plan["meta"])
    state = loop.ModuleState()
    result = {
        "untraced": loop.run_phase(plan, 0, checker, state),
        "traced": loop.traced_phase(plan, 0, checker, workdir / "spans.bin"),
        "range_warnings_per_cycle": loop.range_warnings_per_cycle(plan, state),
        "peak_rss_kb": 1024,
    }
    return plan, result


def test_self_times_sum_to_at_most_each_commands_wall_time(tmp_path):
    plan = _corpus_plan(tmp_path)
    checker = checks.Checker(plan["workload"], plan["meta"])
    phase = loop.traced_phase(plan, 0, checker, tmp_path / "spans.bin")
    assert phase["failed"] == 0 and phase["missing"] == []
    # Rebuild the spans from the file the traced run wrote.
    t = tracer.Tracer()
    with open(tmp_path / "spans.bin", "rb") as fh:
        n = phase["layers"]["spans"]
        for field in t.spans:
            t.spans[field].fromfile(fh, n)
    own = t.self_times()
    for command, (kind, wall, *_rest) in enumerate(phase["samples"]):
        total = sum(s for s, c in zip(own, t.spans["command"]) if c == command)
        assert 0.0 < total <= wall, kind
    assert min(own) >= 0.0


def test_module_state_undoes_what_a_command_leaves_behind():
    import propcal.cli
    import propcal.dataset
    import propcal.models

    state = loop.ModuleState()
    main_fn = propcal.cli.main
    try:
        propcal.cli.main = None
        propcal.models._MEMO = object()
        propcal.cli._COMMANDS["extra"] = None
        propcal.models.PathLossModel.memo = 1
    finally:
        state.restore()
    assert propcal.cli.main is main_fn
    assert not hasattr(propcal.models, "_MEMO") and not hasattr(propcal.models.PathLossModel, "memo")
    assert "extra" not in propcal.cli._COMMANDS
    assert state.restored == {
        "propcal.cli.main": 1,
        "propcal.models._MEMO": 1,
        "propcal.cli._COMMANDS": 1,
        "propcal.models.PathLossModel.memo": 1,
    }
    state.restore()
    assert sum(state.restored.values()) == 4


def test_timed_commands_keep_the_default_warning_filters(tmp_path):
    with warnings.catch_warnings():
        warnings.resetwarnings()  # the interpreter's default: show each warning once
        plan, result = _corpus_result(tmp_path)
    # A shown warning leaves a registry in the module that raised it; the
    # restore between commands removes it, as a new process would not have one.
    cycles = result["untraced"]["cycles"]
    assert result["untraced"]["state_restored"] == {"propcal.models.__warningregistry__": cycles}
    # calibrate --all evaluates cost231_hata at 2530 MHz on all 45 corpus rows.
    assert result["range_warnings_per_cycle"] >= 45
    metrics, _ = run._per_layer(result)
    assert metrics["models.range_warnings"][0] == result["range_warnings_per_cycle"] / len(plan["cycle"])


def test_tracer_restores_the_entry_points():
    before = {(m, p): tracer._resolve(m, p) for m, p, _, _ in tracer.ENTRY_POINTS}
    originals = {key: vars(owner)[attr] for key, (owner, attr) in before.items()}
    t = tracer.Tracer()
    t.install()
    assert all(vars(o)[a] is not originals[k] for k, (o, a) in before.items())
    t.restore()
    assert all(vars(o)[a] is originals[k] for k, (o, a) in before.items())


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
def test_a_missing_entry_point_is_reported_not_zeroed(tmp_path, monkeypatch):
    import propcal.cli

    monkeypatch.delattr(propcal.cli, "make_model")
    t = tracer.Tracer()
    t.install()
    t.restore()
    assert t.missing == ["propcal.cli.make_model"]

    monkeypatch.undo()
    _, result = _corpus_result(tmp_path)
    metrics, missing = run._per_layer(result)
    assert missing == [] and "models.bind_s" in metrics
    result["traced"]["missing"] = ["propcal.cli.make_model"]
    metrics, missing = run._per_layer(result)
    assert missing == ["models.bind"]
    assert "models.bind_s" not in metrics and "models.binds" not in metrics
    assert "models.eval_s" in metrics


@pytest.mark.filterwarnings("ignore::propcal.models.ModelRangeWarning")
def test_benchmark_json_names_every_reported_metric(tmp_path):
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    plan, result = _corpus_result(tmp_path)
    per_layer, _ = run._per_layer(result)
    end_to_end, _ = run._end_to_end(plan, result, [(0.1, 0.1), (0.2, 0.2)])
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[name] == unit for name, (_, unit) in {**per_layer, **end_to_end}.items())


# --- host speed -------------------------------------------------------------


def test_scale_maps_the_reference_kernel_time_to_itself():
    assert hostspeed.scale(2.0, [hostspeed.REFERENCE_S]) == 2.0
    assert hostspeed.scale(2.0, [2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S]) == 1.0


def test_sampler_scales_by_the_samples_taken_around_each_interval():
    with hostspeed.Sampler() as sampler:
        sampler.record()
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * hostspeed.SAMPLE_PERIOD_S:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
        sampler.record()
    inside = [k for t, k in sampler.samples if start <= t <= end]
    assert len(inside) >= 2 and len(sampler.samples) >= 4
    [scaled] = sampler.scaled([(start, end)])
    kernel_s = [k for _, k in sampler.samples]
    assert min(kernel_s) <= (end - start) * hostspeed.REFERENCE_S / scaled <= max(kernel_s)
