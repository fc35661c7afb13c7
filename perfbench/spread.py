"""Run one workload untraced on seeds 1 to 10 and print each metric's spread.

    python3 perfbench/spread.py --workload NAME

Each run measures for BENCHMARK.json's run_seconds.  For each metric:
the median of the runs and the distance between the first and third
quartile as a share of the median (IQR/median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in SEEDS:
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect: {done.stdout.splitlines()[-2][:2000]}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{name:<36} median {median:<14.6g} {units[name]:<10} IQR/median {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
