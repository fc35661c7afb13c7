"""Fresh interpreter that imports propcal.cli, says "ready", then runs a plan.

    python3 perfbench/worker.py --ready      # import, report, exit
    python3 perfbench/worker.py PLAN.json    # import, report, run the plan

The time from spawning this script to reading its "ready" line is the
benchmark's set-up time, so nothing but propcal is imported before it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import propcal.cli  # noqa: E402

sys.stdout.write("ready\n")
sys.stdout.flush()

if __name__ == "__main__" and sys.argv[1:] != ["--ready"]:
    import loop

    sys.exit(loop.main(ROOT, Path(sys.argv[1])))
