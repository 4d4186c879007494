"""The benchmark under perfbench/ still runs against src/.

The benchmark imports matcat inside its functions and its tracer wraps some
private functions by name, so a deletion in src/ that breaks it would show
only when it runs.  These tests read its sources instead.  Its Johnson
slice is checked against frozen node counts, so a change to the search
tree shows here too; the reference file is read, never written.  Each
workload also runs once in the benchmark's smoke mode, in a subprocess.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from matcat.paving import (
    BudgetExceeded, enumerate_isets_orderly, johnson_graph, load_iset_checkpoint,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = [
    w["name"]
    for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
]


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


def test_bench_call_shapes_bind():
    # every call shape perfbench/workloads.py and perfbench/regen.py make
    # into matcat, bound to placeholders: a deleted or renamed parameter
    # fails here instead of failing operations in a benchmark run.  Imported
    # here, so that a deleted name fails this test, not the module's collection
    from matcat.orderly import count_matrix, enumerate_matroids, pack_masks, totals_by_n
    from matcat.paving import (
        EstimateReport, IsetSearch, JohnsonGraph, count_self_dual_sparse,
        estimate_iset_count, paving_total,
    )
    from matcat.represent import excluded_minors
    from matcat.store import (
        CatalogueRecord, RowOptions, assign_ids, compute_row, missing_base_triples,
        parse_property_tsv, parse_query, query, read_catalogue, render_property_tsv,
        resolve_cross_references, write_catalogue,
    )

    x = object()
    calls = [
        (enumerate_matroids, (x,), {"jobs": x}),
        (assign_ids, (x,), {}),
        (write_catalogue, (x, x), {}),
        (read_catalogue, (x,), {}),
        (count_matrix, (x, x), {}),
        (totals_by_n, (x, x), {}),
        (pack_masks, (x,), {}),
        (CatalogueRecord, (x, x, x, x), {}),
        (RowOptions, (), {}),
        (compute_row, (x, x), {}),
        (partial(compute_row, opts=x), (x,), {}),
        (resolve_cross_references, (x,), {}),
        (render_property_tsv, (x,), {}),
        (parse_property_tsv, (x,), {}),
        (parse_query, (x,), {}),
        (query, (x, x), {"group_by": x}),
        (missing_base_triples, (x, x), {}),
        (excluded_minors, (x, x, {}), {}),
        (johnson_graph, (x, x), {}),
        (enumerate_isets_orderly, (x,), {}),
        (enumerate_isets_orderly, (x,), {"budget": x, "checkpoint_path": x}),
        (load_iset_checkpoint, (x,), {}),
        (IsetSearch, (x, x), {"conflict_threshold": x, "z2": x}),
        (IsetSearch.run, (x,), {"budget": x}),
        (IsetSearch.run, (x,), {"budget": x, "checkpoint_path": x}),
        (count_self_dual_sparse, (x,), {"method": x}),
        (paving_total, (x, x), {}),
        (estimate_iset_count, (x, 2, 1.0, x), {}),
        (estimate_iset_count, (x, 2, 1.0), {"seed": x}),
    ]
    broken = []
    for fn, args, kwargs in calls:
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            broken.append(f"{getattr(fn, '__qualname__', fn)}: {exc}")
    assert broken == []
    # and the attributes they read off the results
    read = [
        (EstimateReport, ("estimate",)),
        (IsetSearch, ("nodes", "counts")),
        (JohnsonGraph, ("n", "k", "vertices", "with_complement")),
        (CatalogueRecord, ("id", "n", "rank", "cert", "hyperplanes", "matroid")),
    ]
    for cls, names in read:
        have = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
        assert set(names) <= have, cls


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    # each workload at smoke size, outputs checked against the reference:
    # a change that breaks a workload's outputs or operations fails here
    if workload == "enum8_pool" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("enum8_pool needs 2 CPUs; the runner exits 3 with fewer")
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), *argv],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
