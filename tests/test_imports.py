"""Every name a `propcal` module imports is used in it.

`__init__.py` is left out: it imports names to export them.  A name
listed in `KEPT` is imported for a reader outside the module; its entry
says who, and goes when that reader does.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "propcal"
KEPT = {
    ("calibration", "model_from_params"): (
        "perfbench/tracer.py wraps propcal.calibration.model_from_params to count binds; "
        "the import goes when ROADMAP item 3 has the benchmark read propcal's own timers"
    ),
    ("cli", "with_prediction"): (
        "perfbench/tracer.py wraps propcal.cli.with_prediction as a dataset.table span; `plot` adds its derived "
        "columns without the RSS window, and the import goes with ROADMAP item 3 as above"
    ),
    ("cli", "calibrate"): (
        "perfbench/tracer.py wraps propcal.cli.calibrate as the calibration.calibrate span, and "
        "test_self_times_sum_to_at_most_each_commands_wall_time needs no missing entry point; `compare` scores its "
        "columns through calibration._calibrate_columns, and the import goes with ROADMAP item 3"
    ),
}


def _unused_imports(source: str) -> set[str]:
    """The names an import binds in `source` that no other expression there loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_each_module_uses_every_name_it_imports():
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    }
    assert unused == set(KEPT)


def test_an_unused_import_is_found():
    assert _unused_imports("import os\nfrom math import pi, tau as t\nimport a.b\nprint(pi)\n") == {"os", "t", "a"}
    assert _unused_imports("from __future__ import annotations\nimport os\nx: os.PathLike\n") == set()
