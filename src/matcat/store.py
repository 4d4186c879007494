"""File-backed catalogue, property table, and the conjunctive query engine.

Catalogue files are line-oriented text: a version header, one record per
line as `<id> <n> <rank> <h1,h2,...|->` with lowercase-hex masks sorted
ascending (the `core` mask codec, which enumeration checkpoints share), and
a sha256 footer (`core.write_checked`).  Their records are the one record type,
`orderly.CatalogueRecord`, numbered by `assign_ids`.  Property tables
are TSV with a versioned header; booleans are 0/1 and infinities are `inf`.
`block_options` is the one policy for which columns a run computes at each
ground-set size: every column through n = 8, and at n = 9 all but the
GF(q), Ingleton, orderability and transversality columns, which hold `-`
(as does a dual or simplification outside the catalogue).  Version 1
tables, whose default also left columns out at n = 8, share the cell syntax
and are still read.
"""

from __future__ import annotations

import math
import multiprocessing
import re
from dataclasses import dataclass
from functools import partial

from .core import (
    INFINITY, format_packed, pack_ascending, parse_record_fields, read_checked, write_checked,
)
from .errors import FormatError
from .orderly import CatalogueRecord

CATALOGUE_HEADER = "#matcat-catalogue v1"
TABLE_HEADER = "#matcat-properties v2"
_TABLE_HEADERS = ("#matcat-properties v1", TABLE_HEADER)


class UnknownColumn(KeyError):
    pass


class TypeMismatch(ValueError):
    pass


def assign_ids(records) -> list:
    """The records numbered densely in (n, rank, certificate) order."""
    ordered = sorted(records, key=CatalogueRecord.sort_key)
    return [
        CatalogueRecord(i, rec.n, rec.rank, rec.hyp_bytes, rec.cert)
        for i, rec in enumerate(ordered)
    ]


def _record_line(rec: CatalogueRecord) -> str:
    return f"{rec.id} {rec.n} {rec.rank} {format_packed(rec.hyp_bytes)}"


def write_catalogue(records, path: str) -> None:
    """Write numbered records (assign_ids output) to a file."""
    keys = [(r.n, r.rank, r.cert) for r in records]
    if any(k[2] is not None for k in keys) and keys != sorted(keys):
        raise FormatError("records not sorted by (n, rank, certificate)")
    write_checked(path, CATALOGUE_HEADER, map(_record_line, records))


def _parse_record(line: str, lineno: int, records: list) -> CatalogueRecord:
    """One `id n rank masks` line, checked against the records before it."""
    parts = line.split()
    if len(parts) != 4:
        raise FormatError("expected `id n rank masks`", line=lineno)
    rid = len(records)
    if parts[0] != str(rid):
        raise FormatError(f"ids not dense: saw {parts[0]}", line=lineno)
    try:
        n, rank, masks = parse_record_fields(*parts[1:])
    except ValueError as exc:
        raise FormatError(str(exc), line=lineno) from None
    if records and (n, rank) < (records[-1].n, records[-1].rank):
        raise FormatError("records not sorted by (n, rank)", line=lineno)
    return CatalogueRecord(rid, n, rank, pack_ascending(masks))


def _parse_records(lines) -> list:
    records = []
    for lineno, line in lines:
        records.append(_parse_record(line, lineno, records))
    return records


def read_catalogue(path: str) -> list:
    """Parse and validate a catalogue file (core.read_checked).

    Always checks the checksum, dense ids, n and rank in range, masks that
    are strictly ascending proper subsets of E, and (n, rank) sort order, but not the
    matroid axioms.
    """
    return read_checked(path, CATALOGUE_HEADER, _parse_records)


# -- property table -------------------------------------------------------------

COLUMNS = (
    "id", "n", "rank",
    "simple", "cosimple", "paving", "sparsePaving", "uniform",
    "minCircuitSize",
    "numBases", "numCircuits", "numFlats", "numHyperplanes",
    "numIndependent", "numCircuitHyperplanes", "numLoops", "numColoops",
    "autOrder", "numOrbits", "connectivity",
    "repGF2", "repGF3", "repGF4", "repGF5",
    "ingletonViolating", "baseOrderable", "stronglyBaseOrderable", "transversal",
    "dualId", "simplificationId",
)

_BOOL_COLUMNS = {
    "simple", "cosimple", "paving", "sparsePaving", "uniform",
    "repGF2", "repGF3", "repGF4", "repGF5",
    "ingletonViolating", "baseOrderable", "stronglyBaseOrderable", "transversal",
}


@dataclass(frozen=True)
class RowOptions:
    """Which expensive columns a property pass computes."""

    gf_fields: tuple = (2, 3, 4, 5)
    ingleton: bool = True
    orderability: bool = True
    transversality: bool = True


def block_options(n: int) -> RowOptions:
    """The columns computed for rows on n elements: all of them through n = 8.

    Nine-element rows keep the counting and symmetry columns but skip the
    search-heavy ones; those stay reachable through the library API.
    """
    if n <= 8:
        return RowOptions()
    return RowOptions(
        gf_fields=(), ingleton=False, orderability=False, transversality=False
    )


def compute_row(rec: CatalogueRecord, opts: RowOptions) -> dict:
    """The property row of one record, with the columns opts computes.

    Where the columns computed so far settle a column by a theorem, it is
    read off them instead of searched, so every value stays exact.  The
    GF(q) columns come first, each read off the others' verdicts where they
    settle it (represent._verdict).  A matroid representable over some field
    satisfies Ingleton's inequality (Ingleton 1971), so a row with a true
    GF(q) column is no violator.  Transversal matroids are gammoids, and
    gammoids are strongly base orderable (Brualdi 1969, Mason 1972), so
    transversal runs before the orderability searches and a transversal row
    is base orderable and strongly base orderable.  A column that opts
    leaves out settles nothing.
    """
    from .canon import certificate
    from .orderable import base_orderable, strongly_base_orderable, transversal
    from .props import classify, ingleton_violating
    from .represent import _verdict

    m = rec.matroid()
    cert = certificate(m)
    row = {
        "id": rec.id,
        "n": m.n,
        "rank": m.rank,
        **classify(m),
        "autOrder": cert.aut_order,
        "numOrbits": cert.orbit_count,
        "connectivity": m.connectivity(),
        "dualId": None,
        "simplificationId": None,
    }
    for q in (2, 3, 4, 5):
        row[f"repGF{q}"] = _verdict(m, q) if q in opts.gf_fields else None
    if not opts.ingleton:
        row["ingletonViolating"] = None
    elif any(row[f"repGF{q}"] for q in (2, 3, 4, 5)):
        row["ingletonViolating"] = False
    else:
        row["ingletonViolating"] = ingleton_violating(m) is not None
    is_transversal = transversal(m) is not None if opts.transversality else None
    if not opts.orderability:
        row["baseOrderable"] = row["stronglyBaseOrderable"] = None
    elif is_transversal:
        row["baseOrderable"] = row["stronglyBaseOrderable"] = True
    else:
        row["baseOrderable"] = base_orderable(m)
        row["stronglyBaseOrderable"] = (
            strongly_base_orderable(m) if row["baseOrderable"] else False
        )
    row["transversal"] = is_transversal
    # certificates of derived matroids resolve to ids in a later pass
    # Aut(M*) = Aut(M), which seeds the dual's search
    row["_dualCert"] = certificate(m.dual(), cert.generators).bytes
    row["_simplificationCert"] = certificate(m.simplify()).bytes
    row["_cert"] = cert.bytes
    return row


def resolve_cross_references(rows) -> list:
    by_cert = {row["_cert"]: row["id"] for row in rows}
    out = []
    for row in rows:
        row = dict(row)
        row["dualId"] = by_cert.get(row.pop("_dualCert"))
        row["simplificationId"] = by_cert.get(row.pop("_simplificationCert"))
        row.pop("_cert")
        out.append(row)
    return out


def build_property_table(records, options=block_options, jobs: int = 1):
    """One row per record with property columns and cross-reference ids.

    options maps a ground-set size to the RowOptions of its rows; jobs > 1
    computes the rows on a worker pool of that size.
    """
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec)
    rows = []
    pool = multiprocessing.Pool(jobs) if jobs > 1 else None
    try:
        for n, recs in sorted(by_n.items()):
            row_of = partial(compute_row, opts=options(n))
            if pool is None:
                rows.extend(map(row_of, recs))
            else:
                rows.extend(pool.map(row_of, recs, chunksize=16))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return resolve_cross_references(rows)


def _format_cell(value):
    if value is None:
        return "-"
    if value is True:
        return "1"
    if value is False:
        return "0"
    if value == INFINITY:
        return "inf"
    return str(value)


def render_property_tsv(rows) -> str:
    lines = [TABLE_HEADER, "\t".join(COLUMNS)]
    for row in sorted(rows, key=lambda r: r["id"]):
        lines.append("\t".join(_format_cell(row[c]) for c in COLUMNS))
    return "\n".join(lines) + "\n"


def _parse_cell(column, text):
    if text == "-":
        return None
    if text == "inf":
        return INFINITY
    value = int(text)
    if column in _BOOL_COLUMNS:
        return bool(value)
    return value


def parse_property_tsv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] not in _TABLE_HEADERS:
        raise FormatError("missing property-table header", line=1)
    if len(lines) < 2 or tuple(lines[1].split("\t")) != COLUMNS:
        raise FormatError("unexpected column header", line=2)
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        cells = line.split("\t")
        if len(cells) != len(COLUMNS):
            raise FormatError("wrong cell count", line=lineno)
        try:
            rows.append({c: _parse_cell(c, t) for c, t in zip(COLUMNS, cells)})
        except ValueError:
            raise FormatError("cells must be integers, inf or -", line=lineno) from None
    return rows


# -- query engine ----------------------------------------------------------------

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}

_ATOM = re.compile(r"^\s*(\w+)\s*(<=|>=|!=|==|=|<|>)\s*(\S+)\s*$")


@dataclass(frozen=True)
class QueryExpr:
    atoms: tuple  # (column, op string, literal)


def parse_query(text: str) -> QueryExpr:
    atoms = []
    text = text.strip()
    if text:
        for pos, part in enumerate(re.split(r"\s+and\s+", text)):
            m = _ATOM.match(part)
            if not m:
                raise FormatError(f"cannot parse condition {part!r} (clause {pos + 1})")
            column, op, literal = m.groups()
            if column not in COLUMNS:
                raise UnknownColumn(column)
            atoms.append((column, op, _literal(column, literal)))
    return QueryExpr(tuple(atoms))


def _literal(column, literal):
    """The value of literal compared with column: true/false for a boolean
    column, an integer or inf for any other."""
    if column in _BOOL_COLUMNS:
        if literal not in ("true", "false"):
            raise TypeMismatch(f"boolean column {column} vs literal {literal!r}")
        return literal == "true"
    if literal == "inf":
        return INFINITY
    try:
        return int(literal)
    except ValueError:
        raise TypeMismatch(f"numeric column {column} vs literal {literal!r}") from None


def _matches(row, expr: QueryExpr) -> bool:
    for column, op, value in expr.atoms:
        cell = row[column]
        if cell is None or not _OPS[op](cell, value):
            return False
    return True


def query(rows, expr: QueryExpr, group_by=(), aggregate="count", distinct_column=None):
    """Filter, optionally group, and aggregate property rows.

    aggregate is "count" or "count-distinct" (with distinct_column); without
    group_by the result is a single aggregate row, or the raw matching rows
    when aggregate is None.
    """
    if distinct_column is not None and distinct_column not in COLUMNS:
        raise UnknownColumn(distinct_column)
    for col in group_by:
        if col not in COLUMNS:
            raise UnknownColumn(col)
    selected = [row for row in rows if _matches(row, expr)]
    if aggregate is None:
        return sorted(selected, key=lambda r: r["id"])
    groups = {}
    for row in selected:
        key = tuple(row[c] for c in group_by)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: tuple(_sortable(v) for v in k)):
        members = groups[key]
        if aggregate == "count":
            value = len(members)
        elif aggregate == "count-distinct":
            value = len({m[distinct_column] for m in members})
        else:
            raise ValueError(f"unknown aggregate {aggregate!r}")
        out.append(key + (value,))
    return out


def _sortable(v):
    if v is None:
        return (2, 0)
    if v == INFINITY:
        return (1, 0)
    return (0, v)


def missing_base_triples(rows, max_n: int):
    """(n, r, b) with 1 <= b <= C(n,r) realized by no matroid of that shape.

    Sizes above the table's largest n are absent, not missing, so a max_n
    beyond it raises ValueError.
    """
    largest = max((row["n"] for row in rows), default=None)
    if largest is None or max_n > largest:
        held = "no rows" if largest is None else f"n <= {largest}"
        raise ValueError(f"max-n {max_n} is above the table, which holds {held}")
    present = {}
    for row in rows:
        if row["n"] <= max_n:
            present.setdefault((row["n"], row["rank"]), set()).add(row["numBases"])
    out = []
    for n in range(max_n + 1):
        for r in range(n + 1):
            have = present.get((n, r), set())
            for b in range(1, math.comb(n, r) + 1):
                if b not in have:
                    out.append((n, r, b))
    return out
