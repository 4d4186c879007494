"""Command-line entry points: enum, props, query, johnson, exminors, oracle.

Exit codes: 0 ok, 2 usage, 3 budget exceeded, 4 verification mismatch,
5 I/O or format failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BudgetExceeded, FormatError
from .orderly import (
    enumerate_matroids,
    brute_force_enumerate,
    count_matrix,
    load_checkpoint,
    verify_duality_closure,
)
from .store import (
    assign_ids,
    build_property_table,
    missing_base_triples,
    parse_property_tsv,
    parse_query,
    query,
    read_catalogue,
    render_property_tsv,
    write_catalogue,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4
EXIT_IO = 5


def _matrix_lines(counts, max_n, title):
    width = max(6, max(len(str(c)) for row in counts for c in row) + 1)
    lines = [title]
    header = "r\\n".ljust(5) + "".join(str(n).rjust(width) for n in range(max_n + 1))
    lines.append(header)
    for r in range(max_n + 1):
        cells = "".join(
            (str(counts[r][n]) if counts[r][n] else "").rjust(width)
            for n in range(max_n + 1)
        )
        lines.append(str(r).ljust(5) + cells)
    totals = [sum(counts[r][n] for r in range(max_n + 1)) for n in range(max_n + 1)]
    lines.append("Total".ljust(5) + "".join(str(t).rjust(width) for t in totals))
    return lines


def _load_resume(args, load):
    """(job, None) for the checkpoint that --resume names, (None, None)
    without --resume, or (None, exit code) after one stderr line."""
    if not args.resume:
        return None, None
    if not args.checkpoint:
        print("--resume needs --checkpoint", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        return load(args.checkpoint), None
    except (OSError, ValueError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return None, EXIT_IO


def cmd_enum(args) -> int:
    resume_job, code = _load_resume(args, load_checkpoint)
    if code is not None:
        return code
    if resume_job is not None and resume_job.max_n != args.max_n:
        print(
            f"checkpoint is for --max-n {resume_job.max_n}, not {args.max_n}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    def progress(level, done, total, children):
        print(
            f"level {level}: parent {done}/{total}, {children} accepted",
            file=sys.stderr,
        )

    records = enumerate_matroids(
        args.max_n,
        jobs=args.jobs,
        budget=args.budget,
        checkpoint_path=args.checkpoint,
        resume_job=resume_job,
        progress=progress if args.verbose else None,
    )
    write_catalogue(assign_ids(records), args.out)
    for line in _matrix_lines(
        count_matrix(records, args.max_n), args.max_n, "Matroids by rank and size"
    ):
        print(line)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_props(args) -> int:
    try:
        records = read_catalogue(args.catalogue)
    except (OSError, FormatError) as exc:
        print(f"cannot read catalogue: {exc}", file=sys.stderr)
        return EXIT_IO
    rows = build_property_table(records, jobs=args.jobs)
    tsv = render_property_tsv(rows)
    with open(args.out, "w") as fh:
        fh.write(tsv)
    max_n = max((r["n"] for r in rows), default=0)
    for title, pred in (
        ("Simple matroids", lambda r: r["simple"]),
        ("Simple and cosimple matroids", lambda r: r["simple"] and r["cosimple"]),
        ("Simple paving matroids", lambda r: r["simple"] and r["paving"]),
    ):
        counts = [[0] * (max_n + 1) for _ in range(max_n + 1)]
        for row in rows:
            if pred(row):
                counts[row["rank"]][row["n"]] += 1
        for line in _matrix_lines(counts, max_n, title):
            print(line)
        print()
    _print_orderability_table(rows, max_n)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _print_orderability_table(rows, max_n):
    print("All / base-orderable / strongly base-orderable / transversal")
    print("rank\\size" + "".join(str(n).rjust(22) for n in range(2, max_n + 1)))
    for rank in range(2, min(7, max_n + 1)):
        cells = []
        for n in range(2, max_n + 1):
            sel = [r for r in rows if r["n"] == n and r["rank"] == rank]
            if not sel:
                cells.append("")
                continue
            total = len(sel)
            bo = sum(1 for r in sel if r["baseOrderable"]) if all(
                r["baseOrderable"] is not None for r in sel
            ) else None
            sbo = sum(1 for r in sel if r["stronglyBaseOrderable"]) if bo is not None else None
            tr = sum(1 for r in sel if r["transversal"]) if all(
                r["transversal"] is not None for r in sel
            ) else None
            fmt = lambda v: "-" if v is None else str(v)
            cells.append(f"{total}/{fmt(bo)}/{fmt(sbo)}/{fmt(tr)}")
        print(str(rank).ljust(9) + "".join(c.rjust(22) for c in cells))


def cmd_query(args) -> int:
    try:
        with open(args.table) as fh:
            rows = parse_property_tsv(fh.read())
    except (OSError, FormatError) as exc:
        print(f"cannot read property table: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.missing_bases:
        try:
            triples = missing_base_triples(rows, args.max_n)
        except ValueError as exc:
            print(f"query error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for n, r, b in triples:
            print(f"({n},{r},{b})")
        if not triples:
            print("none")
        return EXIT_OK
    try:
        expr = parse_query(args.expr or "")
        group_by = tuple(args.group_by.split(",")) if args.group_by else ()
        if args.count_distinct:
            result = query(
                rows, expr, group_by=group_by, aggregate="count-distinct",
                distinct_column=args.count_distinct,
            )
        elif args.count or group_by:
            result = query(rows, expr, group_by=group_by, aggregate="count")
        else:
            result = query(rows, expr, aggregate=None)
    except (FormatError, KeyError, ValueError) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.count or args.count_distinct or group_by:
        for row in result:
            print("\t".join(str(v) for v in row))
    else:
        for row in result:
            print("\t".join(str(row[c]) for c in ("id", "n", "rank", "numBases")))
    return EXIT_OK


def cmd_exminors(args) -> int:
    from .represent import excluded_minors

    try:
        records = read_catalogue(args.catalogue)
    except (OSError, FormatError) as exc:
        print(f"cannot read catalogue: {exc}", file=sys.stderr)
        return EXIT_IO
    largest = max((r.n for r in records), default=None)
    if largest is None or args.max_n > largest:
        held = "no records" if largest is None else f"n <= {largest}"
        print(f"max-n {args.max_n} is above the catalogue, which holds {held}",
              file=sys.stderr)
        return EXIT_USAGE
    mats = [r.matroid() for r in records if r.n <= args.max_n]
    found = excluded_minors(mats, args.field)
    by_shape = {}
    for m in found:
        by_shape[(m.n, m.rank)] = by_shape.get((m.n, m.rank), 0) + 1
    print(f"Excluded minors for GF({args.field}) on up to {args.max_n} elements")
    print("size rank count")
    for (n, r), c in sorted(by_shape.items()):
        print(f"{n:4d} {r:4d} {c:5d}")
    print(f"total {len(found)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    records = enumerate_matroids(args.max_n)
    ok = True
    for n in range(args.max_n + 1):
        brute, labeled = brute_force_enumerate(n)
        mine = sorted(r.cert for r in records if r.n == n)
        theirs = sorted(r.cert for r in brute)
        match = mine == theirs
        ok = ok and match
        print(
            f"n={n}: orderly {len(mine)} brute-force {len(theirs)} "
            f"labeled {labeled} {'OK' if match else 'MISMATCH'}"
        )
    dual = verify_duality_closure(records)
    ok = ok and dual.ok
    print(f"duality closure: {'OK' if dual.ok else 'FAILED'} ({dual.checked} duals)")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_MISMATCH


def _johnson_usage_error(args):
    """The documented range a johnson command breaks, or None."""
    if args.nonsparse_rank is not None:
        rank, n = args.nonsparse_rank, args.n
        if rank < 2:
            return "--nonsparse-rank must be at least 2"
        if not 1 <= n <= 12:
            return "--nonsparse-rank needs 1 <= n <= 12"
        if args.only_k is not None and not rank + 1 <= args.only_k <= n - 1:
            return f"--only-k must lie in {rank + 1}..{n - 1} (rank + 1 to n - 1)"
        return None
    if args.only_k is not None:
        return "--only-k needs --nonsparse-rank"
    if args.self_dual:
        if args.n % 2 or not 2 <= args.n <= 12:
            return "--self-dual needs an even --n from 2 to 12"
        return None
    if args.k is None:
        return "--k is required unless --self-dual or --nonsparse-rank is given"
    if not 1 <= args.k < args.n <= 12:
        return "need 1 <= k < n <= 12"
    if args.estimate:
        if not 0 < args.fraction <= 1:  # also refuses nan
            return "--fraction must lie in (0, 1]"
        if args.prefix_size < 0:
            return "--prefix-size must be at least 0"
    return None


def cmd_johnson(args) -> int:
    from .paving import (
        _count_self_dual,
        collect_iset_orbits,
        count_nonsparse_paving,
        enumerate_isets_orderly,
        estimate_iset_count,
        johnson_graph,
        load_iset_checkpoint,
    )

    error = _johnson_usage_error(args)
    if error:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    if args.nonsparse_rank is not None:
        table = count_nonsparse_paving(args.n, args.nonsparse_rank, only_k=args.only_k)
        print("max-hyp-size num-k-hyps matroids")
        total = 0
        for (k, cnt), val in table.items():
            print(f"{k:12d} {cnt:10d} {val}")
            total += val
        print(f"total {total}")
        return EXIT_OK
    if args.self_dual:
        reps = collect_iset_orbits(johnson_graph(args.n, args.n // 2))
        a = _count_self_dual(args.n, reps, "z2")
        b = _count_self_dual(args.n, reps, "certificate")
        print(f"self-dual sparse paving classes: {a} (z2) / {b} (certificate)")
        return EXIT_OK if a == b else EXIT_MISMATCH
    g = johnson_graph(args.n, args.k)
    if args.estimate:
        rep = estimate_iset_count(g, args.prefix_size, args.fraction, args.seed)
        print(
            f"estimate {rep.estimate:.6g} (exact below prefix {rep.exact_below_prefix}, "
            f"frontier {rep.frontier_size}, sampled {rep.sample_size}, "
            f"fraction {rep.effective_fraction:.6g}, completions {rep.completions}, "
            f"seed {rep.seed})"
        )
        return EXIT_OK
    resume, code = _load_resume(args, load_iset_checkpoint)
    if code is not None:
        return code
    if resume is not None and (resume.n, resume.vertices) != (g.n, g.vertices):
        print(f"checkpoint is not a J({args.n},{args.k}) search", file=sys.stderr)
        return EXIT_USAGE
    if resume is not None:
        counts = resume.run(budget=args.budget, checkpoint_path=args.checkpoint)
    else:
        counts = enumerate_isets_orderly(
            g, budget=args.budget, checkpoint_path=args.checkpoint
        )
    print("size\tclasses")
    for size in sorted(counts):
        print(f"{size}\t{counts[size]}")
    print(f"total\t{sum(counts.values())}")
    if g.with_complement:
        print("(orbits pair dual matroids; n = 2k complementation applies)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    def jobs(text):
        """A worker count; 0, the default, stands for the CPU count."""
        count = int(text)
        if count < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, not {count}")
        return count or os.cpu_count() or 1

    p = _Parser(prog="matcat", description="Small-matroid catalogue toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("enum", help="enumerate matroids and write the catalogue")
    e.add_argument("--max-n", type=int, required=True, choices=range(10))
    e.add_argument("--out", default="matroids.cat")
    e.add_argument("--jobs", type=jobs, default="0")
    e.add_argument("--budget", type=int, default=None)
    e.add_argument("--checkpoint", default=None)
    e.add_argument("--resume", action="store_true")
    e.add_argument("--verbose", action="store_true")
    e.set_defaults(func=cmd_enum)

    pr = sub.add_parser("props", help="compute the property table from a catalogue")
    pr.add_argument("--catalogue", required=True)
    pr.add_argument("--out", default="properties.tsv")
    pr.add_argument("--jobs", type=jobs, default="0")
    pr.set_defaults(func=cmd_props)

    q = sub.add_parser("query", help="query a property table")
    q.add_argument("expr", nargs="?", default="")
    q.add_argument("--table", default="properties.tsv")
    q.add_argument("--count", action="store_true")
    q.add_argument("--count-distinct", dest="count_distinct", default=None)
    q.add_argument("--group-by", dest="group_by", default=None)
    q.add_argument("--missing-bases", dest="missing_bases", action="store_true")
    q.add_argument("--max-n", type=int, default=8, choices=range(10))
    q.set_defaults(func=cmd_query)

    x = sub.add_parser("exminors", help="excluded minors for GF(q)")
    x.add_argument("--field", type=int, required=True, choices=(2, 3, 4, 5))
    x.add_argument("--max-n", type=int, required=True, choices=range(10))
    x.add_argument("--catalogue", required=True)
    x.set_defaults(func=cmd_exminors)

    o = sub.add_parser("oracle", help="brute-force cross-check for small n")
    o.add_argument("--max-n", type=int, default=5, choices=range(6))
    o.set_defaults(func=cmd_oracle)

    j = sub.add_parser("johnson", help="independent-set orbit pipelines")
    j.add_argument("--n", type=int, required=True)
    j.add_argument("--k", type=int)
    j.add_argument("--self-dual", dest="self_dual", action="store_true")
    j.add_argument("--estimate", action="store_true")
    j.add_argument("--prefix-size", dest="prefix_size", type=int, default=3)
    j.add_argument("--fraction", type=float, default=0.25)
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--budget", type=int, default=None)
    j.add_argument("--checkpoint", default=None)
    j.add_argument("--resume", action="store_true")
    j.add_argument("--nonsparse-rank", dest="nonsparse_rank", type=int, default=None)
    j.add_argument("--only-k", dest="only_k", type=int, default=None)
    j.set_defaults(func=cmd_johnson)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
