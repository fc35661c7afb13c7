"""Closed loop with one client: run a plan's command cycle for a while.

Commands run in-process through `propcal.cli.main(argv)` with stdout and
stderr captured in memory.  The loop stops at the first cycle boundary
after its time is up, so every phase holds whole cycles.  A user's every
command starts in a fresh process, so between commands, untimed,
`ModuleState.restore` puts propcal's module-level state back as it was
after import and the garbage collector runs; then the host-speed kernel
is timed.  Warning filters stay the interpreter's defaults throughout.
"""

from __future__ import annotations

import contextlib
import io
import json
import linecache
import resource
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import propcal.cli

import hostspeed
from checks import Checker
from tracer import Tracer, resolve_range_warning


_CONTAINERS = (dict, list, set)
_MISSING = object()


def _changed(current, saved) -> bool:
    if len(current) != len(saved):
        return True
    if isinstance(current, dict):
        return any(current.get(k, _MISSING) is not v for k, v in saved.items())
    if isinstance(current, set):
        return current != saved
    return any(a is not b for a, b in zip(current, saved))


class ModuleState:
    """propcal's module-level state as it stands now, to put back between commands.

    A command must not leave anything behind that speeds up the next one,
    since a CLI user's next command starts in a fresh process.  `restore`
    rebinds or deletes changed names in each propcal module and in the
    classes it defines (a memo bound on first call, a
    `__warningregistry__`), puts back the contents of module-level dicts,
    lists and sets, and clears every functools cache found there and the
    source lines that showing a warning read.  `restored` counts what it
    had to undo, by name.  State held inside other objects, and modules
    imported after the snapshot, are not seen.
    """

    def __init__(self) -> None:
        # (label, module or class, its names and objects)
        self.namespaces: list[tuple[str, object, dict]] = []
        # (label, container, a shallow copy of it)
        self.contents: list[tuple[str, object, object]] = []
        for module_name, module in sys.modules.copy().items():
            if module_name != "propcal" and not module_name.startswith("propcal."):
                continue
            self.namespaces.append((module_name, module, dict(vars(module))))
            for name, obj in vars(module).items():
                label = f"{module_name}.{name}"
                if isinstance(obj, type) and obj.__module__ == module_name:
                    self.namespaces.append((label, obj, dict(vars(obj))))
                elif isinstance(obj, _CONTAINERS) and name != "__builtins__":
                    self.contents.append((label, obj, obj.copy()))
        self.caches = [
            obj for _, _, names in self.namespaces for obj in names.values() if callable(getattr(obj, "cache_clear", None))
        ]
        self.restored: Counter[str] = Counter()

    def restore(self) -> None:
        for label, owner, saved in self.namespaces:
            current = vars(owner)
            for name in [n for n in current if n not in saved]:
                delattr(owner, name)
                self.restored[f"{label}.{name}"] += 1
            for name, obj in saved.items():
                if current.get(name, _MISSING) is not obj:
                    setattr(owner, name, obj)
                    self.restored[f"{label}.{name}"] += 1
        for label, obj, saved in self.contents:
            if _changed(obj, saved):
                obj.clear()
                if isinstance(obj, (dict, set)):
                    obj.update(saved)
                else:
                    obj.extend(saved)
                self.restored[label] += 1
        for cache in self.caches:
            cache.cache_clear()
        linecache.clearcache()


def _peak_rss_kb() -> int:
    """This process's peak resident memory since exec.

    VmHWM belongs to the process image; getrusage's ru_maxrss would
    also count the parent's memory at the time of spawn.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _call(argv: list[str]) -> tuple[int | str, str, str, float, float]:
    """Run one command in-process: exit code (or exception), stdout, stderr, start, end."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = propcal.cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), start, end


def run_phase(plan: dict, seconds: float, checker: Checker, state: ModuleState, on_command=None) -> dict:
    """Run whole cycles until `seconds` have passed; return per-command samples.

    A sample is [kind, seconds, work units, output bytes, seconds scaled
    to the reference host].  `kernel_s` holds every host-speed kernel time.
    """
    samples, intervals, failures = [], [], []
    cycles = 0
    deadline = time.perf_counter() + seconds
    state.restore()
    with hostspeed.Sampler() as sampler:
        sampler.record()
        while True:
            for command in plan["cycle"]:
                if on_command is not None:
                    on_command(len(samples))
                code, text, err, start, end = _call(command["argv"])
                problem = checker(command["kind"], code, text, err)
                if problem is not None:
                    failures.append(problem)
                state.restore()
                sampler.record()
                samples.append([command["kind"], end - start, command["units"], len(text.encode())])
                intervals.append((start, end))
            cycles += 1
            if time.perf_counter() >= deadline:
                break
    for sample, scaled in zip(samples, sampler.scaled(intervals)):
        sample.append(scaled)
    return {
        "samples": samples,
        "kernel_s": [k for _, k in sampler.samples],
        "cycles": cycles,
        "failures": failures[:5],
        "failed": len(failures),
        "state_restored": dict(state.restored),
    }


def traced_phase(plan: dict, seconds: float, checker: Checker, spans_path: Path) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        phase = run_phase(plan, seconds, checker, ModuleState(), on_command=lambda index: setattr(tracer, "command", index))
    finally:
        tracer.restore()
    phase["layers"] = tracer.layer_totals()
    phase["counts"] = dict(tracer.counts)
    phase["missing"] = tracer.missing
    tracer.write(spans_path)
    return phase


def range_warnings_per_cycle(plan: dict, state: ModuleState) -> int | None:
    """`ModelRangeWarning`s raised by one cycle, or None if the class is gone.

    Counted in an untimed replay of the cycle with every warning
    recorded, so that no timed command pays for recording them.
    """
    range_warning = resolve_range_warning()
    if range_warning is None:
        return None
    count = 0
    for command in plan["cycle"]:
        state.restore()
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            _call(command["argv"])
        count += sum(issubclass(w.category, range_warning) for w in log)
    state.restore()
    return count


def main(root: Path, plan_path: Path) -> int:
    source = Path(propcal.cli.__file__).resolve()
    if not source.is_relative_to(root / "src"):
        print(f"perfbench: propcal was imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 2
    plan = json.loads(plan_path.read_text())
    checker = Checker(plan["workload"], plan["meta"])
    state = ModuleState()
    seconds = plan["seconds"]
    result: dict = {"propcal": str(source)}
    if plan["trace"]:
        result["untraced"] = run_phase(plan, seconds / 2, checker, state)
        result["traced"] = traced_phase(plan, seconds / 2, checker, plan_path.with_name("spans.bin"))
        result["range_warnings_per_cycle"] = range_warnings_per_cycle(plan, state)
    else:
        result["untraced"] = run_phase(plan, seconds, checker, state)
        result["peak_rss_kb"] = _peak_rss_kb()
    plan_path.with_name("result.json").write_text(json.dumps(result))
    return 0
