"""Regenerate the frozen reference data of the benchmark.

    python3 perfbench/regen.py [--jobs 2]

Writes perfbench/data/reference.json: the input list of every class with
n <= 8, certificate digests, the full property row of every class, the
Johnson-graph orbit totals and the per-size counts of the budgeted J(9,4)
slice.  Every value that the paper's acceptance tables fix is checked
against them before the file is written, and the file records the commit
and environment it came from.  Takes about ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from matcat.orderly import count_matrix, enumerate_matroids, pack_masks, totals_by_n  # noqa: E402
from matcat.paving import (  # noqa: E402
    BudgetExceeded,
    IsetSearch,
    count_self_dual_sparse,
    enumerate_isets_orderly,
    estimate_iset_count,
    johnson_graph,
    paving_total,
)
from matcat.represent import excluded_minors  # noqa: E402
from matcat.store import (  # noqa: E402
    COLUMNS,
    CatalogueRecord,
    RowOptions,
    compute_row,
    missing_base_triples,
    resolve_cross_references,
)

import refdata  # noqa: E402

# Published values the frozen data is cross-checked against (the paper's
# Tables 1-5 and 7, as fixed in tests/test_acceptance.py).
ACCEPTANCE = {
    "totals": [1, 2, 4, 8, 17, 38, 98, 306, 1724],
    "rank_row_n8": [1, 8, 58, 325, 940, 325, 58, 8, 1],
    "simple": [1, 1, 1, 2, 4, 9, 26, 101, 950],
    "simple_cosimple": [1, 0, 0, 0, 1, 2, 8, 42, 657],
    "simple_paving": [1, 1, 1, 2, 4, 8, 18, 50, 439],
    "table7": {
        "2,2": [1, 1, 1, 1], "3,2": [3, 3, 3, 3], "4,2": [7, 7, 7, 7],
        "5,2": [13, 13, 13, 13], "6,2": [23, 23, 23, 22], "7,2": [37, 37, 37, 34],
        "3,3": [1, 1, 1, 1], "4,3": [4, 4, 4, 4], "5,3": [13, 13, 13, 13],
        "6,3": [38, 37, 37, 37], "7,3": [108, 101, 101, 92],
        "4,4": [1, 1, 1, 1], "5,4": [5, 5, 5, 5], "6,4": [23, 23, 23, 23],
        "7,4": [108, 101, 101, 100],
        "5,5": [1, 1, 1, 1], "6,5": [6, 6, 6, 6], "7,5": [37, 37, 37, 37],
        "6,6": [1, 1, 1, 1], "7,6": [7, 7, 7, 7],
    },
    "missing_base_triples": [[6, 3, 11]],
    # excluded minors over the n <= 7 catalogue: GF(2) U2,4; GF(3) 4;
    # GF(4) the 5 of its 7 that have at most 7 elements; GF(5) at n=7 by rank
    "excluded_minors_n7": {"2": 1, "3": 4, "4": 5},
    "gf5_n7_by_rank": {"2": 1, "3": 5, "4": 5, "5": 1},
    "johnson_8_4": 207,
    "self_dual_8": 144,
    "paving_total_8_4": 322,
}

# budgeted J(n,k) slices: the benchmark's, and the smoke mode's
SLICES = {"full": {"n": 9, "k": 4, "budget": 2000}, "smoke": {"n": 8, "k": 4, "budget": 40}}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def check(name, got, want):
    if got != want:
        raise SystemExit(f"reference cross-check {name} failed: {got!r} != {want!r}")
    print(f"  {name}: ok", flush=True)


def count_by_n(rows, pred, max_n):
    out = [0] * (max_n + 1)
    for row in rows:
        if pred(row):
            out[row["n"]] += 1
    return out


def uninterrupted_slice(n, k, budget):
    """Per-size counts of a J(n,k) search stopped after 2 * budget nodes in
    one go: the counts the checkpointed, resumed slice must reproduce."""
    g = johnson_graph(n, k)
    search = IsetSearch(g.n, g.vertices, conflict_threshold=g.k - 1, z2=g.with_complement)
    try:
        search.run(budget=2 * budget)
    except BudgetExceeded:
        return {"nodes": search.nodes, "counts": {str(s): c for s, c in sorted(search.counts.items())}}
    raise SystemExit(f"J({n},{k}) slice finished inside its budget")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args(argv)
    t0 = time.time()

    print("enumerating n <= 8", flush=True)
    records = enumerate_matroids(8, jobs=args.jobs)
    check("totals", totals_by_n(records, 8), ACCEPTANCE["totals"])
    check("rank_row_n8", [r[8] for r in count_matrix(records, 8)], ACCEPTANCE["rank_row_n8"])
    digests = {str(n): refdata.cert_digest(r.cert for r in records if r.n <= n) for n in range(9)}
    # the benchmark's own input: ids in (n, rank, certificate) order and
    # masks ascending, so that enumeration changes cannot alter it
    inputs = [[r.n, r.rank, sorted(r.hyperplanes)] for r in records]
    cat = [
        CatalogueRecord(i, n, rank, pack_masks(masks))
        for i, (n, rank, masks) in enumerate(inputs)
    ]

    print(f"computing {len(cat)} property rows", flush=True)
    fn = partial(compute_row, opts=RowOptions())
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            raw = pool.map(fn, cat, chunksize=8)
    else:
        raw = [fn(rec) for rec in cat]
    rows = resolve_cross_references(raw)
    for row in rows:
        for k in ("dualId", "simplificationId"):
            if row[k] is None:
                raise SystemExit(f"row {row['id']}: {k} unresolved")
    check("simple", count_by_n(rows, lambda r: r["simple"], 8), ACCEPTANCE["simple"])
    check(
        "simple_cosimple",
        count_by_n(rows, lambda r: r["simple"] and r["cosimple"], 8),
        ACCEPTANCE["simple_cosimple"],
    )
    check(
        "simple_paving",
        count_by_n(rows, lambda r: r["simple"] and r["paving"], 8),
        ACCEPTANCE["simple_paving"],
    )
    check("table7", refdata.table7(rows), ACCEPTANCE["table7"])
    check(
        "missing_base_triples",
        [list(t) for t in missing_base_triples(rows, 8)],
        ACCEPTANCE["missing_base_triples"],
    )

    print("excluded minors over n <= 7", flush=True)
    mats7 = [rec.matroid() for rec in cat if rec.n <= 7]
    found = {str(q): excluded_minors(mats7, q, {}) for q in (2, 3, 4, 5)}
    check(
        "excluded_minors_n7",
        {q: len(ms) for q, ms in found.items() if q != "5"},
        ACCEPTANCE["excluded_minors_n7"],
    )
    check("gf5_n7_by_rank", refdata.by_rank_n7(found["5"]), ACCEPTANCE["gf5_n7_by_rank"])
    exminors = {q: refdata.minor_keys(ms) for q, ms in found.items()}

    print("Johnson graphs", flush=True)
    johnson = {}
    for n in range(4, 9):
        for rank in range(2, n):
            johnson[f"{n},{rank}"] = sum(enumerate_isets_orderly(johnson_graph(n, rank)).values())
    check("johnson_8_4", johnson["8,4"], ACCEPTANCE["johnson_8_4"])
    sd = [count_self_dual_sparse(8, method=m) for m in ("z2", "certificate")]
    check("self_dual_8", sd, [ACCEPTANCE["self_dual_8"]] * 2)
    check("paving_total_8_4", paving_total(8, 4), ACCEPTANCE["paving_total_8_4"])
    est = estimate_iset_count(johnson_graph(8, 4), 2, 1.0, seed=0).estimate
    check("estimator_8_4", est, ACCEPTANCE["johnson_8_4"])
    smoke = {
        "self_dual_6": [count_self_dual_sparse(6, method=m) for m in ("z2", "certificate")],
        "paving_total_6_3": paving_total(6, 3),
    }
    slices = {name: dict(s, **uninterrupted_slice(**s)) for name, s in SLICES.items()}

    ref = {
        "provenance": {
            "generator": "perfbench/regen.py",
            "commit": git_sha(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "generated_s": round(time.time() - t0, 1),
            "cross_checked_against": "paper Tables 1-5 and 7, criterion 10 "
            "(the constants in tests/test_acceptance.py)",
        },
        "acceptance": ACCEPTANCE,
        "columns": list(COLUMNS),
        "inputs": inputs,
        "cert_digest": digests,
        "rows": [[refdata.encode_cell(row[c]) for c in COLUMNS] for row in rows],
        "excluded_minors_n7": exminors,
        "johnson_totals": johnson,
        "johnson_smoke": smoke,
        "slices": slices,
    }
    out = HERE / "data" / "reference.json"
    fd, tmp = tempfile.mkstemp(dir=out.parent)
    with os.fdopen(fd, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    os.chmod(tmp, 0o644)
    os.replace(tmp, out)
    print(f"wrote {out} in {time.time() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
