"""The names the benchmark under perfbench/ takes from matcat still exist.

The benchmark imports matcat inside its functions and its tracer wraps some
private functions by name, so a deletion in src/ that breaks it would show
only when it runs.  These tests read its sources instead.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_imports():
    """(file, module, name) of every `from matcat[.mod] import name` there."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            module = (node.module or "") if isinstance(node, ast.ImportFrom) else ""
            if module.split(".")[0] == "matcat":
                out.extend((path.name, node.module, alias.name) for alias in node.names)
    return out


def test_each_imported_name_resolves():
    found = _bench_imports()
    assert {("matcat.orderly", "pack_masks"), ("matcat.store", "CatalogueRecord"),
            ("matcat.paving", "BudgetExceeded")} <= {(mod, name) for _, mod, name in found}
    missing = [
        f"{where}: {mod}.{name}"
        for where, mod, name in found
        if not hasattr(importlib.import_module(mod), name)
    ]
    assert missing == []


def test_traced_private_names_exist():
    # perfbench/tracer.py wraps these by name
    traced = [("orderly", "_extend_records"), ("orderly", "_worker"), ("store", "compute_row")]
    for mod, name in traced:
        assert callable(getattr(importlib.import_module(f"matcat.{mod}"), name, None)), name
