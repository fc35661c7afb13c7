"""Command-line front end.

Commands: predict path loss over distances, calibrate freshly evaluated
models against a drive test, compare a drive test's own prediction
columns, dump or summarize the bundled reference corpus, infer the site
parameters behind a prediction column, and emit plot-ready series.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
domain error.  Machine-readable output goes to stdout (or --out) and is
byte-identical for identical inputs; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import warnings
from collections.abc import Iterator, Sequence

from .calibration import (
    _calibrate_columns,
    _calibrate_models,
    correction_factor,
    cost231_tx_height_from_slope,
    infer_site_parameters,
    published_divergence_notes,
)
from .calibration import calibrate  # unused here: the benchmark tracer wraps this name until ROADMAP item 3
from .dataset import (
    DriveTestTable,
    _csv_text,
    _format_value,
    _with_derived,
    emit_plot_series,
    parse_drive_test_csv,
    reference_dataset,
    serialize_drive_test_csv,
)
from .dataset import with_prediction  # unused here: the benchmark tracer wraps this name until ROADMAP item 3
from .errors import DataError, DomainError, PropcalError, checked_column
from .link_budget import REFERENCE_SITE, SiteConfig, predict_rss, site_from_json
from .models import (
    MODEL_IDS,
    TERRAINS,
    ModelRangeWarning,
    PathLossModel,
    _checked_distances,
    _log_km,
    _make_model_kwargs,
    _model_arguments,
    make_model,
)

EMBEDDED_DATA = "embedded:reference"
REFERENCE_SITE_ALIAS = "table3"

_ENV_CHOICES = {"medium": "medium_suburban", "metro": "metropolitan"}

# Most points a START:STOP:STEP range (--distances, --grid) may expand to,
# and most points the --grid axes may span together.
MAX_RANGE_POINTS = 1_000_000


class UsageError(PropcalError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _float_arg(text: str, *, allow_zero: bool = False) -> float:
    """A finite number above zero, or at or above it with `allow_zero`."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0.0 or (value == 0.0 and not allow_zero):
        raise argparse.ArgumentTypeError(f"must be {'>= 0' if allow_zero else 'positive'}, got {text!r}")
    return value


def _frange(start: float, stop: float, step: float) -> list[float]:
    checked_column("range", (start, stop, step), argparse.ArgumentTypeError, lambda i, v: "range bounds must be finite")
    if step <= 0.0:
        raise argparse.ArgumentTypeError(f"step must be positive, got {step:g}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"stop {stop:g} is before start {start:g}")
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {start:g}:{stop:g}:{step:g} expands to {steps + 1:.4g} points, "
            f"more than the {MAX_RANGE_POINTS} allowed"
        )
    return [start + i * step for i in range(int(steps) + 1)]


def _parse_distances(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric bound in {text!r}") from None
    return _frange(start, stop, step)


def _parse_grid_axis(text: str) -> tuple[str, list[object]]:
    name, sep, body = text.partition("=")
    name = name.strip()
    if not sep or not name or not body:
        raise argparse.ArgumentTypeError(f"expected NAME=START:STOP:STEP or NAME=v1,v2,..., got {text!r}")
    if ":" in body:
        return name, list(_parse_distances(body))
    values: list[object] = []
    for token in body.split(","):
        token = token.strip()
        if not token:
            raise argparse.ArgumentTypeError(f"empty value in grid axis {text!r}")
        try:
            values.append(float(token))
        except ValueError:
            values.append(token)
    return name, values


def _build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The propcal parser; if `argv` starts with a command name, only that command's subparser is built."""
    nonnegative_arg = functools.partial(_float_arg, allow_zero=True)

    def site_file_flags(parser: _Parser) -> None:
        parser.add_argument(
            "--site",
            default=REFERENCE_SITE_ALIAS,
            metavar="PATH",
            help=f"site JSON path, or '{REFERENCE_SITE_ALIAS}' for the built-in reference site (default)",
        )

    def site_flags(parser: _Parser) -> None:
        site_file_flags(parser)
        parser.add_argument("--freq-mhz", type=_float_arg, help="override site frequency")
        parser.add_argument("--tx-height", type=_float_arg, dest="tx_height_m", metavar="M", help="override transmit height")
        parser.add_argument("--rx-height", type=_float_arg, dest="rx_height_m", metavar="M", help="override receive height")

    def model_flags(parser: _Parser) -> None:
        parser.add_argument("--env", choices=sorted(_ENV_CHOICES), default="medium", help="clutter class (default medium)")
        parser.add_argument("--terrain", choices=sorted(TERRAINS), default="B", help="terrain class (default B)")
        parser.add_argument(
            "--sui-xh-denom",
            dest="sui_xh_denominator_m",
            type=float,
            choices=(2.0, 2000.0),
            default=2.0,
            metavar="{2,2000}",
            help="receiver-height normalizer in the SUI height correction (default 2)",
        )
        parser.add_argument("--sui-shadow", dest="sui_shadow_db", type=nonnegative_arg, default=0.0, metavar="S", help="SUI shadow term in dB (default 0)")
        parser.add_argument("--tx-gain-linear", type=_float_arg, default=1.0, metavar="G", help="linear transmit gain used by fspl (default 1)")

    def data_flags(parser: _Parser) -> None:
        parser.add_argument("--data", required=True, metavar="PATH", help=f"drive-test CSV path, or '{EMBEDDED_DATA}' for the bundled corpus")

    def out_flags(parser: _Parser) -> None:
        parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    def predict_flags(parser: _Parser) -> None:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--model", choices=MODEL_IDS)
        group.add_argument("--all", action="store_true", help="all five models")
        dist = parser.add_mutually_exclusive_group(required=True)
        dist.add_argument("--distance-m", type=_float_arg, metavar="D")
        dist.add_argument("--distances", type=_parse_distances, metavar="START:STOP:STEP")
        parser.add_argument("--format", choices=("json", "csv"), default="csv")

    def calibrate_flags(parser: _Parser) -> None:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--model", choices=MODEL_IDS)
        group.add_argument("--all", action="store_true", help="all five models (default)")

    def report_flags(parser: _Parser) -> None:
        parser.add_argument("--acceptable-mse", type=nonnegative_arg, metavar="DB2", help="annotate models whose corrected MSE exceeds this")
        parser.add_argument("--format", choices=("json", "csv"), default="json")

    def reference_flags(parser: _Parser) -> None:
        parser.add_argument("--dump", action="store_true", help="emit the corpus as drive-test CSV")

    def infer_flags(parser: _Parser) -> None:
        parser.add_argument("--model", choices=MODEL_IDS, required=True)
        parser.add_argument("--column", metavar="NAME", help="prediction column to fit (default: the model id)")
        parser.add_argument(
            "--grid",
            type=_parse_grid_axis,
            action="append",
            metavar="NAME=SPEC",
            help="search axis as NAME=START:STOP:STEP or NAME=v1,v2,...; repeatable (default: a per-model grid)",
        )
        parser.add_argument("--format", choices=("json", "csv"), default="json")

    def plot_flags(parser: _Parser) -> None:
        parser.add_argument(
            "--data",
            default=EMBEDDED_DATA,
            metavar="PATH",
            help=f"drive-test CSV path (default '{EMBEDDED_DATA}')",
        )
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--model", choices=MODEL_IDS, help="also evaluate this model at the sample distances")
        group.add_argument("--all", action="store_true", help="also evaluate all five models")
        parser.add_argument("--quantity", choices=("rss", "pl"), default="rss", help="y axis: received signal or path loss (default rss)")

    # each command's help, then the flag sets its subparser gets, in the order its --help lists them
    subcommands = {
        "predict": ("evaluate path loss over distances", site_flags, model_flags, out_flags, predict_flags),
        "calibrate": ("fit correction factors for freshly evaluated models", data_flags, site_flags, model_flags, out_flags, calibrate_flags, report_flags),
        "compare": ("calibrate the prediction columns already in the data", data_flags, site_file_flags, out_flags, report_flags),
        "reference": ("dump or summarize the bundled reference corpus", out_flags, reference_flags),
        "infer": ("grid-search the parameters behind a prediction column", data_flags, site_flags, model_flags, out_flags, infer_flags),
        "plot": ("emit distance-sorted series for plotting", site_flags, model_flags, out_flags, plot_flags),
    }
    parser = _Parser(prog="propcal", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # anything but a command name first (no arguments, --help, a misspelled command) gets every subparser,
    # so top-level help and the errors that list the commands read as they did
    selected = [argv[0]] if argv and argv[0] in subcommands else subcommands
    for name in selected:
        subparser = commands.add_parser(name, help=subcommands[name][0])
        for add_flags in subcommands[name][1:]:
            add_flags(subparser)
    return parser


def _load_site(args: argparse.Namespace) -> SiteConfig:
    if args.site == REFERENCE_SITE_ALIAS:
        site = REFERENCE_SITE
    else:
        site = site_from_json(_read_text(args.site))
    # compare takes no override flags, so its namespace has none of these names
    overrides = {name: value for name in ("freq_mhz", "tx_height_m", "rx_height_m") if (value := getattr(args, name, None)) is not None}
    return dataclasses.replace(site, **overrides) if overrides else site


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_table(data: str) -> DriveTestTable:
    if data == EMBEDDED_DATA:
        return reference_dataset()
    return parse_drive_test_csv(_read_text(data))


def _selected_models(args: argparse.Namespace, default: tuple[str, ...]) -> tuple[str, ...]:
    """The models `--all` or `--model` names, or `default` if neither is given."""
    if args.all:
        return MODEL_IDS
    return (args.model,) if args.model else default


def _model_params(args: argparse.Namespace, site: SiteConfig) -> dict[str, object]:
    """The model parameters the site and model flags give, by `model_from_params` name: what every command binds."""
    return {
        "freq_mhz": site.freq_mhz,
        "tx_height_m": site.tx_height_m,
        "rx_height_m": site.rx_height_m,
        "environment": _ENV_CHOICES[args.env],
        "terrain": args.terrain,
        "sui_shadow_db": args.sui_shadow_db,
        "sui_xh_denominator_m": args.sui_xh_denominator_m,
        "tx_gain_linear": args.tx_gain_linear,
    }


def _bound_models(args: argparse.Namespace, site: SiteConfig, model_ids: Sequence[str]) -> list[PathLossModel]:
    """The models, each bound with the site and model flags, all before any is evaluated: a bind error comes first."""
    kwargs = _make_model_kwargs(_model_arguments(_model_params(args, site)))
    return [make_model(mid, **kwargs) for mid in model_ids]  # type: ignore[arg-type]


def _evaluated(
    args: argparse.Namespace, site: SiteConfig, model_ids: Sequence[str], distances: Sequence[float]
) -> Iterator[tuple[str, list[float]]]:
    """Each model's path loss at `distances`, already checked, as (model id, losses), one model at a time.

    `log_km` is freed once the last model is evaluated, before the caller scores or formats the losses.
    """
    models = _bound_models(args, site, model_ids)
    log_km = _log_km(distances)
    for model in models:
        yield model.model_id, model._losses(distances, log_km)


def _cmd_predict(args: argparse.Namespace) -> str:
    site = _load_site(args)
    distances = _checked_distances(args.distances if args.distances is not None else [args.distance_m])
    model_ids = _selected_models(args, ())
    columns = dict(_evaluated(args, site, model_ids, distances))
    if args.format == "json":
        # the bytes of json.dumps(..., indent=2) + "\n": the frame is written here and each list by json with the
        # indent off, so that its C encoder runs; every value is finite, as _checked_distances and _losses checked
        def array(values: Sequence[float], pad: str) -> str:
            return "[\n" + pad + json.dumps(values, separators=(",\n" + pad, ": "))[1:-1] + "\n" + pad[:-2] + "]"
        losses = ",\n    ".join(f"{json.dumps(mid)}: {array(column, ' ' * 6)}" for mid, column in columns.items())
        return f'{{\n  "distances_m": {array(distances, " " * 4)},\n  "path_loss_db": {{\n    {losses}\n  }}\n}}\n'
    cells = [map(_format_value, distances)] + [map("{:.4f}".format, columns[mid]) for mid in model_ids]
    return _csv_text(["distance_m"] + [f"pl_{mid}" for mid in model_ids], zip(*cells))


def _cmd_calibrate(args: argparse.Namespace) -> str:
    site = _load_site(args)
    # the table's prediction columns are parsed and checked, but not scored: they go before any model is scored
    table = _load_table(args.data)
    distances, measured = table.distances_m, table.measured_rss_dbm
    del table
    models = _bound_models(args, site, _selected_models(args, MODEL_IDS))  # the table checked its distances
    report = _calibrate_models(measured, distances, models, site.budget_db, acceptable_mse_db2=args.acceptable_mse)
    return report.to_json() if args.format == "json" else report.to_csv()


def _cmd_compare(args: argparse.Namespace) -> str:
    _load_site(args)  # checked as in the other commands, though RSS columns are compared without a budget
    table = _load_table(args.data)
    if not table.predictions:
        raise DataError("compare needs prediction columns (pred_<model>) in the data")
    report = _calibrate_columns(table, acceptable_mse_db2=args.acceptable_mse)
    if args.data == EMBEDDED_DATA:
        notes = report.notes + published_divergence_notes(report)
        report = dataclasses.replace(report, notes=notes)
    return report.to_json() if args.format == "json" else report.to_csv()


def _cmd_reference(args: argparse.Namespace) -> str:
    table = reference_dataset()
    if args.dump:
        return serialize_drive_test_csv(table)
    distances = table.distances_m
    measured = table.measured_rss_dbm
    payload = {
        "rows": len(table),
        "distance_min_m": min(distances),
        "distance_max_m": max(distances),
        "rss_min_dbm": min(measured),
        "rss_max_dbm": max(measured),
        "prediction_columns": list(table.predictions),
    }
    return json.dumps(payload, indent=2) + "\n"


def _default_grid(model_id: str) -> dict[str, list[object]]:
    heights_fine: list[object] = list(_frange(10.0, 100.0, 0.5))
    heights_coarse: list[object] = list(_frange(10.0, 100.0, 1.0))
    if model_id == "fspl":
        return {"tx_gain_linear": [1.0, 2.0, 4.0]}
    if model_id == "cost231_hata":
        return {"tx_height_m": heights_fine, "environment": ["medium_suburban", "metropolitan"]}
    if model_id == "extended_cost231":
        return {"tx_height_m": heights_fine}
    if model_id == "sui":
        return {
            "tx_height_m": heights_coarse,
            "terrain": ["A", "B", "C"],
            "sui_xh_denominator_m": [2.0, 2000.0],
        }
    return {"tx_height_m": heights_coarse}


def _cmd_infer(args: argparse.Namespace) -> str:
    grid: dict[str, list[object]] = {} if args.grid else _default_grid(args.model)
    for name, axis in args.grid or ():
        if name in grid:
            raise UsageError(f"argument --grid: axis {name!r} is given more than once")
        grid[name] = axis
    points = math.prod(len(axis) for axis in grid.values())
    if points > MAX_RANGE_POINTS:
        raise UsageError(
            f"argument --grid: the axes expand to {points:.4g} grid points, "
            f"more than the {MAX_RANGE_POINTS} allowed"
        )
    site = _load_site(args)
    table = _load_table(args.data)
    column = args.column or args.model
    if column not in table.predictions:
        raise DataError(f"data has no prediction column {column!r}")
    budget = site.budget_db
    loss = [budget - rss for rss in table.predictions[column]]
    result = infer_site_parameters(table.distances_m, loss, args.model, grid, base=_model_params(args, site))
    payload: dict[str, object] = {
        "model": result.model_id,
        "column": column,
        "params": dict(result.params),
        "fit_mse_db2": result.fit_mse_db2,
        "decade_slope_db": result.decade_slope_db,
        "evaluated": result.evaluated,
    }
    if args.model == "cost231_hata":
        try:
            payload["tx_height_from_slope_m"] = cost231_tx_height_from_slope(result.decade_slope_db)
        except DomainError as exc:  # the fit stands; as with an undefined r in calibrate, a note says why
            payload["tx_height_from_slope_m"] = None
            payload["notes"] = [f"tx_height_from_slope_m: {exc}; reported as null"]
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    rows = (
        (key if name is None else f"{key}.{name}", "" if v is None else str(v))
        for key, value in payload.items() if key != "notes"  # as in calibrate's CSV, the notes are in the JSON report only
        for name, v in (value.items() if isinstance(value, dict) else [(None, value)])
    )
    return _csv_text(["key", "value"], rows)


def _cmd_plot(args: argparse.Namespace) -> str:
    site = _load_site(args)
    table = _load_table(args.data)
    to_evaluate = [mid for mid in _selected_models(args, ()) if mid not in table.predictions]
    # the RSS window checks input columns: a model's RSS and each corrected series are derived
    for mid, losses in _evaluated(args, site, to_evaluate, table.distances_m):  # the table checked its distances
        rss = [predict_rss(site, loss) for loss in losses]
        table = _with_derived(table, mid, rss)
    base_names = list(table.predictions)
    measured = table.measured_rss_dbm
    for name in base_names:
        if f"{name}_corrected" in base_names:
            raise DataError(
                f"column pred_{name}_corrected clashes with {name}_corrected, the corrected series of {name}"
            )
        predicted = table.predictions[name]
        cf = correction_factor(measured, predicted)
        table = _with_derived(table, f"{name}_corrected", [p + cf for p in predicted])
    return emit_plot_series(table, site, quantity=args.quantity)


_COMMANDS = {
    "predict": _cmd_predict,
    "calibrate": _cmd_calibrate,
    "compare": _cmd_compare,
    "reference": _cmd_reference,
    "infer": _cmd_infer,
    "plot": _cmd_plot,
}


# Exit code of each error class that `main` reports; no class here
# derives from another.  A range warning raises only where a filter makes it an error.
_EXIT_CODES = {UsageError: 1, DataError: 2, OSError: 2, DomainError: 3, ModelRangeWarning: 3}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    formatwarning = warnings.formatwarning  # while main runs, a range warning is one line naming no source file
    warnings.formatwarning = lambda message, category, *rest: (
        f"propcal: warning: {message}\n" if category is ModelRangeWarning else formatwarning(message, category, *rest))
    try:
        args = _build_parser(argv).parse_args(argv)
        output = _COMMANDS[args.command](args)
        if args.out is not None:  # an empty path fails to open, as it does for --data and --site
            with open(args.out, "w", encoding="utf-8") as file:
                file.write(output)
        else:
            sys.stdout.write(output)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except tuple(_EXIT_CODES) as exc:
        print(f"propcal: error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
