"""Frozen reference data of the benchmark and the helpers that read it.

perfbench/regen.py writes data/reference.json; the workloads check every
output against it.  The same code serves the generator and the benchmark; only
minor_keys imports matcat, at call time.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PATH = Path(__file__).resolve().parent / "data" / "reference.json"


def cert_digest(certs) -> str:
    """sha256 over the sorted certificate list, one hex certificate a line."""
    return hashlib.sha256("\n".join(sorted(c.hex() for c in certs)).encode()).hexdigest()


def encode_cell(value):
    if value == float("inf"):
        return "inf"
    return value


def decode_cell(value):
    return float("inf") if value == "inf" else value


def table7(rows) -> dict:
    """(all, base-orderable, strongly base-orderable, transversal) per
    "n,rank" cell for 2 <= rank <= 6, rank <= n <= 7, as the paper tabulates."""
    out = {}
    for row in rows:
        n, rank = row["n"], row["rank"]
        if not (2 <= rank <= 6 and rank <= n <= 7):
            continue
        cell = out.setdefault(f"{n},{rank}", [0, 0, 0, 0])
        cell[0] += 1
        cell[1] += bool(row["baseOrderable"])
        cell[2] += bool(row["stronglyBaseOrderable"])
        cell[3] += bool(row["transversal"])
    return out


def by_rank_n7(matroids) -> dict:
    out = {}
    for m in matroids:
        if m.n == 7:
            out[str(m.rank)] = out.get(str(m.rank), 0) + 1
    return dict(sorted(out.items()))


class Reference:
    """The loaded reference file, with rows decoded to column dicts."""

    def __init__(self, path: Path = PATH):
        with open(path) as fh:
            data = json.load(fh)
        self.acceptance = data["acceptance"]
        self.provenance = data["provenance"]
        self.inputs = [(n, rank, tuple(masks)) for n, rank, masks in data["inputs"]]
        self.cert_digest = data["cert_digest"]
        cols = data["columns"]
        self.rows = [
            {c: decode_cell(v) for c, v in zip(cols, cells)} for cells in data["rows"]
        ]
        self.excluded_minors = data["excluded_minors_n7"]
        self.johnson_totals = data["johnson_totals"]
        self.johnson_smoke = data["johnson_smoke"]
        self.slices = data["slices"]


def minor_keys(matroids) -> list:
    """Sorted [n, rank, certificate hex] of each matroid."""
    from matcat.canon import certificate_for

    return sorted(
        [m.n, m.rank, certificate_for(m.n, m.rank, m.hyperplanes).bytes.hex()]
        for m in matroids
    )
