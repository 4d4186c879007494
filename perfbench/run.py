"""matcat benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload enum8 --seed 1 --seconds 20 --trace 0

Run from the root of a matcat checkout; matcat is imported from ./src.
Workloads: enum8, enum8_pool, props, johnson (see BENCHMARK.json and
perfbench/README.md).  With --trace 0 the run sets up SETUP_ROUNDS times,
then repeats the workload while the next repetition is predicted to end
within --seconds (at least once), checks every repetition's outputs against
perfbench/data/reference.json, and reports the end-to-end metrics.  With
--trace 1 it runs the workload once untraced and once with timing wrappers
on every public matcat function, and reports the per-layer metrics.
--smoke shrinks every workload to a few seconds for the benchmark's own
tests.  The last line of stdout is the result as one JSON object; a report
with the run context and every check goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import refdata
import workloads as W
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_ROUNDS = 5
MATCAT_MODULES = (
    "core", "canon", "lattice", "orderly", "named", "props", "represent",
    "orderable", "paving", "store", "cli",
)


def read_context(seed) -> dict:
    """Where and how the run happened; /proc is only read."""
    nproc = os.cpu_count() or 1
    try:
        with open("/proc/loadavg") as fh:
            load = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        load = []
    ctx = {
        "nproc": nproc,
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": None,
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg": load,
    }
    ctx["busy"] = bool(load) and load[0] > nproc
    return ctx


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def import_matcat():
    """Fresh import of every matcat module from ./src."""
    for name in [m for m in sys.modules if m == "matcat" or m.startswith("matcat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("matcat")
    if Path(pkg.__file__).resolve().parent != SRC / "matcat":
        raise ImportError(f"matcat imported from {pkg.__file__}, not from {SRC}")
    for name in MATCAT_MODULES:
        importlib.import_module(f"matcat.{name}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def quantile_ms(seconds, q) -> float:
    """q-th percentile (1..99) of durations, in ms; 0.0 when there are none."""
    if not seconds:
        return 0.0
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tr, untraced, traced, serial_s=None) -> dict:
    """Per-layer metrics from the tracer and the workload's untraced outputs."""
    agg = tr.agg

    def calls(*names):
        return sum(agg[n][0] for n in names if n in agg)

    def total(*names):
        return sum(agg[n][1] for n in names if n in agg)

    def self_s(*names):
        return sum(agg[n][2] for n in names if n in agg)

    def c(key):
        return tr.counters.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    gf = {q: f"represent.representable.gf{q}" for q in (2, 3, 4, 5)}
    sig, cell = "canon.element_has_minimal_signature", "canon.first_cell_elements"
    parent = "orderly._extend_records"
    out = untraced["out"]
    nodes = getattr(out.get("search"), "nodes", 0)
    row_s = out.get("row_s", [])
    lookups = c("represent.excluded_minors.lookups")
    v = {
        "orderly.parents": c("orderly.parents"),
        "orderly.candidates": c("orderly.candidates"),
        "orderly.accepted": c("orderly.accepted"),
        "orderly.extend.self_s": self_s(parent),
        "orderly.parent_ms_p50": quantile_ms(tr.durations(parent), 50),
        "orderly.parent_ms_p95": quantile_ms(tr.durations(parent), 95),
        "orderly.level8_s": c("orderly.level8_s"),
        "orderly.pool.efficiency": ratio(serial_s or 0.0, 2 * untraced["wall_s"]),
        "lattice.FlatLattice.calls": calls("lattice.FlatLattice"),
        "lattice.FlatLattice.self_s": self_s("lattice.FlatLattice"),
        "lattice.modular_cuts.self_s": self_s("lattice.FlatLattice.modular_cuts", "lattice.modular_cuts"),
        "lattice.extension_hyperplanes.self_s": self_s("lattice.FlatLattice.extension_hyperplanes"),
        "canon.signature_prefilter.calls": calls(sig),
        "canon.signature_prefilter.pass_ratio": ratio(c("canon.signature_prefilter.pass"), calls(sig)),
        "canon.signature_prefilter.self_s": self_s(sig),
        "canon.first_cell.calls": calls(cell),
        "canon.first_cell.pass_ratio": ratio(c("canon.first_cell.pass"), calls(cell)),
        "canon.first_cell.self_s": self_s(cell),
        "canon.accept_ratio": ratio(c("orderly.accepted"), calls("canon.certificate_for")),
        "canon.certificate_for.calls": calls("canon.certificate_for"),
        "canon.certificate_for.self_s": self_s("canon.certificate_for"),
        "canon.canonical_family.calls": calls("canon.canonical_family"),
        "canon.canonical_family.self_s": self_s("canon.canonical_family"),
        "canon.group_order.self_s": self_s("canon.group_order"),
        "core.rank_table.calls": calls("core.Matroid.rank_table"),
        "core.rank_table.self_s": self_s("core.Matroid.rank_table"),
        "core.dual.self_s": self_s("core.Matroid.dual"),
        "core.simplify.self_s": self_s("core.Matroid.simplify"),
        "core.minor.calls": calls("core.Matroid.delete", "core.Matroid.contract"),
        "core.minor.self_s": self_s("core.Matroid.delete", "core.Matroid.contract"),
        "core.connectivity.self_s": self_s("core.Matroid.connectivity"),
        "props.classify.self_s": self_s("props.classify"),
        "props.ingleton.self_s": self_s("props.ingleton_violating"),
        "props.ingleton.ms_p95": quantile_ms(tr.durations("props.ingleton_violating"), 95),
        "props.ingleton.violators": c("props.ingleton.violators"),
        **{f"represent.gf{q}.self_s": self_s(name) for q, name in gf.items()},
        "represent.gf5.ms_p95": quantile_ms(tr.durations(gf[5]), 95),
        "represent.excluded_minors.self_s": self_s("represent.excluded_minors"),
        "represent.excluded_minors.cache_hit_ratio": ratio(
            lookups - c("represent.excluded_minors.misses"), lookups
        ),
        "orderable.base_orderable.self_s": self_s("orderable.base_orderable"),
        "orderable.strongly_base_orderable.self_s": self_s("orderable.strongly_base_orderable"),
        "orderable.transversal.self_s": self_s("orderable.transversal"),
        "paving.nodes": nodes,
        "paving.nodes_per_s": ratio(nodes, out.get("slice_s", 0.0)),
        "paving.run.self_s": self_s("paving.IsetSearch.run"),
        "paving.self_dual.self_s": self_s("paving.count_self_dual_sparse"),
        "paving.nonsparse.self_s": self_s("paving.count_nonsparse_paving"),
        "paving.checkpoint.bytes": out.get("ckpt_bytes", 0),
        "paving.checkpoint.save_s": total("paving.save_iset_checkpoint"),
        "paving.checkpoint.load_s": total("paving.load_iset_checkpoint"),
        "store.write_catalogue_s": total("store.write_catalogue"),
        "store.read_catalogue_s": total("store.read_catalogue"),
        "store.read_catalogue.failed": c("store.read_catalogue.failed"),
        "store.render_tsv_s": total("store.render_property_tsv"),
        "store.parse_tsv_s": total("store.parse_property_tsv"),
        "store.query.calls": calls("store.query"),
        "store.query.ms_p50": quantile_ms(tr.durations("store.query"), 50),
        "store.compute_row.self_s": self_s("store.compute_row"),
        "store.row_ms_p50": quantile_ms(row_s, 50),
        "store.row_ms_p95": quantile_ms(row_s, 95),
        "store.row_samples": len(row_s),
        "trace.overhead_share": ratio(traced["wall_s"] - untraced["wall_s"], untraced["wall_s"]),
    }
    return v


def timed_rep(wl, inputs, run, workdir):
    t0 = perf_counter()
    out = wl.rep(inputs, run, workdir)
    return {"out": out, "wall_s": perf_counter() - t0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matcat benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    ctx = read_context(args.seed)
    if args.workload == "enum8_pool" and len(ctx["affinity"]) < 2:
        print(f"enum8_pool skipped: {len(ctx['affinity'])} CPU available, it needs 2", file=sys.stderr)
        return 3
    if not (SRC / "matcat" / "__init__.py").is_file():
        print(f"matcat sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    sys.path.insert(0, str(SRC))
    import numpy  # third-party imports happen once, before the timed set-up

    ctx["numpy"] = numpy.__version__
    wl = W.WORKLOADS[args.workload]
    size = W.SMOKE if args.smoke else W.FULL
    setup_rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = perf_counter()
        import_matcat()
        ref = refdata.Reference()
        inputs = wl.prepare(ref, size, args.seed)
        wl.warm(inputs)
        setup_rounds.append(perf_counter() - t0)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    run = W.Run()
    reps, serial_s = [], None
    funnel = {}  # enumeration level -> counts, from a traced run

    def rep(workload):
        r = timed_rep(workload, inputs, run, str(workdir))
        workload.verify(r["out"], inputs, ref, size, run, str(workdir))
        return r

    try:
        first = rep(wl)
        reps.append(first["wall_s"])
        if args.trace:
            if args.workload == "enum8_pool":
                serial = rep(W.WORKLOADS["enum8"])
                serial_s = serial["wall_s"]
                run.check(
                    "pool_equals_serial_full",
                    lambda: (first["out"]["records"] == serial["out"]["records"],
                             f"{len(serial['out']['records'])} serial records"),
                )
            tr = Tracer()
            tr.install()
            try:
                traced = timed_rep(wl, inputs, run, str(workdir))
            finally:
                tr.uninstall()
            wl.verify(traced["out"], inputs, ref, size, run, str(workdir))
            metrics = layer_metrics(tr, first, traced, serial_s)
            for key, value in sorted(tr.counters.items()):
                if key.startswith("funnel."):
                    _, level, what = key.split(".")
                    funnel.setdefault(int(level), {})[what] = value
            tr.write(OUT / f"{tag}-spans.tsv.gz")
            want = declared["per_layer"]
        else:
            while sum(reps) + reps[-1] <= args.seconds:
                reps.append(rep(wl)["wall_s"])
            metrics = {
                "wall_s": statistics.median(reps),
                "setup_s": statistics.median(setup_rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "success_share": (run.attempted - run.failed) / run.attempted,
            }
            want = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (ok, detail) in run.checks.items():
        state = "ok" if ok else "KNOWN-FAILING" if name in W.KNOWN_FAILING else "FAIL"
        print(f"check {name}: {state} - {detail}")
    for level, f in sorted(funnel.items()):
        print(
            f"funnel level {level}: {f.get('candidates', 0)} candidates -> "
            f"{f.get('signature_pass', 0)} pass signature -> {f.get('first_cell_pass', 0)} "
            f"pass first cell -> {f.get('accepted', 0)} accepted"
        )
    for err, times in run.errors.items():
        print(f"failed operation ({times}x): {err}")
    if ctx["busy"]:
        print(f"warning: load average {ctx['loadavg'][0]} exceeds {ctx['nproc']} CPUs at start")
    report = {
        "workload": args.workload, "smoke": args.smoke, "trace": args.trace,
        "context": ctx, "setup_rounds_s": setup_rounds, "reps_s": reps,
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in run.checks.items()},
        "known_failing": {k: W.KNOWN_FAILING[k] for k in run.checks if k in W.KNOWN_FAILING},
        "errors": run.errors, "tracebacks": run.tracebacks, "funnel": funnel,
        "metrics": metrics,
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print("context " + json.dumps(ctx))
    missing = sorted(set(want) - set(metrics))
    if missing:
        raise AssertionError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in want.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
