"""The benchmark under perfbench/ still runs against src/.

The benchmark imports matcat inside its functions and its tracer wraps some
private functions by name, so a deletion in src/ that breaks it would show
only when it runs.  These tests read its sources instead.  Its Johnson
slice is checked against frozen node counts, so a change to the search
tree shows here too; the reference file is read, never written.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from matcat.paving import (
    BudgetExceeded, enumerate_isets_orderly, johnson_graph, load_iset_checkpoint,
)

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


def test_frozen_johnson_slice(tmp_path):
    # the workload's slice: stopped at budget with a checkpoint, loaded,
    # then resumed to twice the budget
    spec = json.loads((PERFBENCH / "data" / "reference.json").read_text())["slices"]["full"]
    path = str(tmp_path / "slice.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_isets_orderly(
            johnson_graph(spec["n"], spec["k"]), budget=spec["budget"], checkpoint_path=path
        )
    search = load_iset_checkpoint(path)
    with pytest.raises(BudgetExceeded):
        search.run(budget=2 * spec["budget"], checkpoint_path=path)
    assert search.nodes == spec["nodes"]
    assert {str(size): c for size, c in sorted(search.counts.items())} == spec["counts"]
