"""Span tracer that wraps propcal's public entry points from outside.

Each wrapped call records a span (name, start, end, parent, command id)
in flat arrays; counts that need a call's arguments or result are kept
beside them.  Nothing under `src/` changes: the wrappers replace the
attributes where callers look them up (the `propcal.cli` namespace,
`propcal.calibration`'s module globals, and `PathLossModel`), and
`restore` puts the originals back.  An entry point that no longer
exists is reported in `missing`, and the metrics that need it are
left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from collections import Counter
from pathlib import Path


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["dataset.rows_parsed"] += len(result)


def _count_series(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["calibration.series_scored"] += len(_arg(args, kwargs, 1, "predictions"))


def _count_grid(tracer: "Tracer", args, kwargs, result) -> None:
    grid = _arg(args, kwargs, 3, "grid")
    tracer.counts["calibration.grid_points"] += math.prod(len(axis) for axis in grid.values())


# (module, attribute path, layer span, counting hook)
ENTRY_POINTS = (
    ("propcal.cli", "main", "cli", None),
    ("propcal.cli", "parse_drive_test_csv", "dataset.parse", _count_rows),
    ("propcal.cli", "reference_dataset", "dataset.table", None),
    ("propcal.cli", "with_prediction", "dataset.table", None),
    ("propcal.cli", "emit_plot_series", "dataset.emit", None),
    ("propcal.cli", "serialize_drive_test_csv", "dataset.emit", None),
    ("propcal.cli", "make_model", "models.bind", None),
    ("propcal.calibration", "model_from_params", "models.bind", None),
    ("propcal.models", "PathLossModel.path_loss_db", "models.eval", None),
    ("propcal.cli", "predict_rss", "link_budget.predict_rss", None),
    ("propcal.cli", "calibrate", "calibration.calibrate", _count_series),
    ("propcal.cli", "infer_site_parameters", "calibration.infer", _count_grid),
    ("propcal.calibration", "mse", "calibration.mse", None),
    ("propcal.calibration", "pearson_r", "calibration.pearson", None),
)
# Looked up, not wrapped: the worker counts warnings of this class.
RANGE_WARNING = ("propcal.models", "ModelRangeWarning")

_SPAN_TYPECODES = {"start": "d", "end": "d", "name": "i", "parent": "q", "command": "q"}


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


def resolve_range_warning():
    found = _resolve(*RANGE_WARNING)
    return getattr(*found) if found else None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in _SPAN_TYPECODES.items()}
        self._stack = [-1]
        self.command = -1
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, path, layer, hook in ENTRY_POINTS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{layer}:{module}.{path}", hook))
        if resolve_range_warning() is None:
            self.missing.append(".".join(RANGE_WARNING))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name: str, hook):
        self.names.append(name)
        name_id = len(self.names) - 1
        starts, ends = self.spans["start"], self.spans["end"]
        names, parents, commands = self.spans["name"], self.spans["parent"], self.spans["command"]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            commands.append(tracer.command)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children.

        Calls are synchronous, so children of one span never overlap and
        the part of the span they cover is the sum of their durations.
        """
        starts, ends, parents = self.spans["start"], self.spans["end"], self.spans["parent"]
        durations = array("d", (e - s for s, e in zip(starts, ends)))
        covered = array("d", bytes(8 * len(durations)))
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += durations[i]
        return array("d", (d - c for d, c in zip(durations, covered)))

    def write(self, path: Path) -> None:
        """Write the spans as raw arrays, in the order of `_SPAN_TYPECODES`."""
        with open(path, "wb") as fh:
            for field in _SPAN_TYPECODES:
                self.spans[field].tofile(fh)

    def layer_totals(self) -> dict:
        """Totals per layer: inclusive time, self time, calls, and nesting counts."""
        layers = [name.split(":", 1)[0] for name in self.names]
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends = self.spans["start"], self.spans["end"]
        incl: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        # Layer of the enclosing infer/calibrate span, if any; parents
        # precede their children, so one forward pass fills it in.
        scope: list[str | None] = []
        for i, (n, p, s, e, self_s) in enumerate(zip(names, parents, starts, ends, self.self_times())):
            layer = layers[n]
            incl[layer] += e - s
            own[layer] += self_s
            calls[layer] += 1
            outer = scope[p] if p >= 0 else None
            if layer in ("calibration.infer", "calibration.calibrate"):
                outer = layer
            scope.append(outer)
            if outer is not None and outer != layer:
                calls[f"{layer}@{outer}"] += 1
        return {"incl_s": dict(incl), "self_s": dict(own), "calls": dict(calls), "spans": len(names)}
