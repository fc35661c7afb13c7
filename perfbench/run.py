"""propcal's benchmark: one closed-loop client driving the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout.  A run generates the workload's
inputs from the seed, times interpreter start-up to `propcal.cli`
imported (`setup_s`, median of several fresh interpreters), then runs
the workload's command cycle in one fresh worker for S seconds and
checks every output.  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(half the time untraced, half traced).  The line before it records how
the run was made.  --all runs every workload untraced and prints a table
of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import inputs
from tracer import ENTRY_POINTS, RANGE_WARNING

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = Path(".bench_work")
# Fresh interpreters timed per run, half before and half after the
# workload, so that the median spans the run's machine state.
SETUP_SAMPLES = 10
# Every run must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150.0
# A fixed string-hash seed keeps dict and set layouts, and so their
# speed, the same from run to run; only inputs and the host then vary.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The run cannot produce a result."""


def _spawn(*args: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its time to "ready"."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line != "ready\n":
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran past {timeout:.0f} s") from None
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def _setup_times(count: int) -> list[tuple[float, float]]:
    """(seconds to ready, the same scaled to the reference host) per fresh interpreter."""
    times = []
    for _ in range(count):
        before = hostspeed.measure()
        proc, ready = _spawn("--ready")
        _finish(proc, WORKER_TIMEOUT_S)
        times.append((ready, hostspeed.scale(ready, [before, hostspeed.measure()])))
    return times


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "propcal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _cycle_latency(kinds: list[str], times: list[float], q: int) -> float:
    """Per-command latency percentile, averaged over the commands of the cycle.

    Each command of the cycle gets its own percentile, so a cycle that
    mixes short and long commands does not put the result between them.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, elapsed in zip(kinds, times):
        by_kind.setdefault(kind, []).append(elapsed)
    return statistics.fmean(_quantile(values, q) for values in by_kind.values())


def _host_speed(phase: dict) -> float:
    """How much faster than the reference host this one ran, by the median kernel."""
    return hostspeed.REFERENCE_S / statistics.median(phase["kernel_s"])


def _end_to_end(plan: dict, result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    phase = result["untraced"]
    kinds = [s[0] for s in phase["samples"]]
    raw = [s[1] for s in phase["samples"]]
    times = [s[4] for s in phase["samples"]]
    busy = sum(times)
    units = sum(s[2] for s in phase["samples"])
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "commands_per_s": (len(times) / busy, "1/s"),
        "cmd_ms_p50": (1000.0 * _cycle_latency(kinds, times, 50), "ms"),
        "cmd_ms_p90": (1000.0 * _cycle_latency(kinds, times, 90), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    extra = {
        f"{plan['unit']}_per_s": (units / busy, "1/s"),
        "failed_ratio": (phase["failed"] / len(times), "ratio"),
        "host_speed": (_host_speed(phase), "ratio"),
        "unscaled_setup_s": (statistics.median(ready for ready, _ in setup), "s"),
        "unscaled_commands_per_s": (len(raw) / sum(raw), "1/s"),
        "unscaled_cmd_ms_p50": (1000.0 * _cycle_latency(kinds, raw, 50), "ms"),
        "unscaled_cmd_ms_p90": (1000.0 * _cycle_latency(kinds, raw, 90), "ms"),
    }
    return metrics, extra


def _per_layer(result: dict) -> tuple[dict, list[str]]:
    untraced, traced = result["untraced"], result["traced"]
    layers, counts = traced["layers"], traced["counts"]
    incl, own, calls = layers["incl_s"], layers["self_s"], layers["calls"]
    n = len(traced["samples"])
    evals = calls.get("models.eval", 0)
    # Counted once per cycle in an untimed replay; None if the class is gone.
    range_warnings = (result["range_warnings_per_cycle"] or 0) * traced["cycles"]
    # Span times are scaled to the reference host by the phase's median kernel.
    speed = _host_speed(traced)
    incl = {layer: seconds * speed for layer, seconds in incl.items()}
    own = {layer: seconds * speed for layer, seconds in own.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # metric: (value, unit, layers whose entry points it needs)
    table = {
        "cli.self_s": (own.get("cli", 0.0) / n, "s/cmd", ["cli"]),
        "cli.output_bytes": (sum(s[3] for s in traced["samples"]) / n, "bytes/cmd", []),
        "dataset.parse_s": (incl.get("dataset.parse", 0.0) / n, "s/cmd", ["dataset.parse"]),
        "dataset.rows_parsed": (counts.get("dataset.rows_parsed", 0) / n, "count/cmd", ["dataset.parse"]),
        "dataset.table_s": (incl.get("dataset.table", 0.0) / n, "s/cmd", ["dataset.table"]),
        "dataset.emit_s": (incl.get("dataset.emit", 0.0) / n, "s/cmd", ["dataset.emit"]),
        "models.bind_s": (incl.get("models.bind", 0.0) / n, "s/cmd", ["models.bind"]),
        "models.binds": (calls.get("models.bind", 0) / n, "count/cmd", ["models.bind"]),
        "models.eval_s": (incl.get("models.eval", 0.0) / n, "s/cmd", ["models.eval"]),
        "models.evals": (evals / n, "count/cmd", ["models.eval"]),
        "models.eval_ns_per_point": (1e9 * ratio(incl.get("models.eval", 0.0), evals), "ns", ["models.eval"]),
        "models.range_warnings": (range_warnings / n, "count/cmd", ["range_warning"]),
        "models.range_warnings_per_eval": (ratio(range_warnings, evals), "ratio", ["range_warning", "models.eval"]),
        "link_budget.predict_rss_s": (incl.get("link_budget.predict_rss", 0.0) / n, "s/cmd", ["link_budget.predict_rss"]),
        "link_budget.predict_rss_calls": (calls.get("link_budget.predict_rss", 0) / n, "count/cmd", ["link_budget.predict_rss"]),
        "calibration.calibrate_s": (incl.get("calibration.calibrate", 0.0) / n, "s/cmd", ["calibration.calibrate"]),
        "calibration.series_scored": (counts.get("calibration.series_scored", 0) / n, "count/cmd", ["calibration.calibrate"]),
        "calibration.pearson_calls": (calls.get("calibration.pearson", 0) / n, "count/cmd", ["calibration.pearson"]),
        "calibration.pearson_per_series": (
            ratio(calls.get("calibration.pearson@calibration.calibrate", 0), counts.get("calibration.series_scored", 0)),
            "ratio", ["calibration.pearson", "calibration.calibrate"],
        ),
        "calibration.infer_s": (incl.get("calibration.infer", 0.0) / n, "s/cmd", ["calibration.infer"]),
        "calibration.grid_points": (counts.get("calibration.grid_points", 0) / n, "count/cmd", ["calibration.infer"]),
        "calibration.grid_points_scored": (
            calls.get("calibration.mse@calibration.infer", 0) / n, "count/cmd", ["calibration.mse", "calibration.infer"],
        ),
        "calibration.grid_scored_ratio": (
            ratio(calls.get("calibration.mse@calibration.infer", 0), counts.get("calibration.grid_points", 0)),
            "ratio", ["calibration.mse", "calibration.infer"],
        ),
        "calibration.evals_per_grid_point": (
            ratio(calls.get("models.eval@calibration.infer", 0), counts.get("calibration.grid_points", 0)),
            "ratio", ["models.eval", "calibration.infer"],
        ),
        "trace.overhead_ratio": (
            (sum(s[4] for s in traced["samples"]) / traced["cycles"])
            / (sum(s[4] for s in untraced["samples"]) / untraced["cycles"]),
            "ratio", [],
        ),
    }
    missing_layers = _missing_layers(traced["missing"])
    metrics = {name: (value, unit) for name, (value, unit, needs) in table.items() if not missing_layers & set(needs)}
    return metrics, sorted(missing_layers)


def _missing_layers(missing: list[str]) -> set[str]:
    layers = {f"{module}.{path}": layer for module, path, layer, _ in ENTRY_POINTS}
    layers[".".join(RANGE_WARNING)] = "range_warning"
    return {layers[name] for name in missing}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "propcal" / "cli.py").is_file():
        raise BenchError(f"no propcal source under {ROOT / 'src'}; run from a propcal checkout")
    if workload not in inputs.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(inputs.WORKLOADS)}")
    started = time.monotonic()
    hygiene = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "worker_hash_seed": WORKER_ENV["PYTHONHASHSEED"],
    }
    workdir = WORK_DIR / workload
    plan = inputs.build(workload, seed, workdir)
    plan.update(seconds=seconds, trace=int(trace))
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    (workdir / "result.json").unlink(missing_ok=True)
    hygiene["inputs"] = plan["meta"]
    hygiene["cycle_sha256"] = hashlib.sha256(json.dumps(plan["cycle"]).encode()).hexdigest()

    setup = _setup_times(SETUP_SAMPLES // 2)
    proc, _ = _spawn(str(plan_path))
    _finish(proc, WORKER_TIMEOUT_S - (time.monotonic() - started))
    setup += _setup_times(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result = json.loads((workdir / "result.json").read_text())

    phases = [result["untraced"]] + ([result["traced"]] if trace else [])
    attempted = sum(len(p["samples"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    hygiene.update(
        propcal=result["propcal"],
        setup_samples=len(setup),
        cmd_samples=len(result["untraced"]["samples"]),
        cycles=[p["cycles"] for p in phases],
        failures=[f for p in phases for f in p["failures"]],
        state_restored=[p["state_restored"] for p in phases],
    )
    if trace:
        metrics, missing = _per_layer(result)
        hygiene.update(missing_entry_points=result["traced"]["missing"], missing_layers=missing)
        hygiene["spans"] = result["traced"]["layers"]["spans"]
        extra = {}
    else:
        metrics, extra = _end_to_end(plan, result, setup)
    hygiene["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()}
    return {
        "run": hygiene,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _summary(seed: int, seconds: int) -> None:
    for workload in inputs.WORKLOADS:
        record = run(workload, seed, seconds, trace=False)["run"]
        print(f"{workload}  (seed {seed}, {record['cmd_samples']} commands)")
        for name, metric in record["metrics"].items():
            print(f"  {name:<18} {metric['value']:>14.6g} {metric['unit']}")
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload untraced and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            _summary(args.seed, args.seconds)
            return 0
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run": out["run"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
