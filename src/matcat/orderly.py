"""Isomorph-free generation of all matroids on up to N elements.

Canonical construction path (McKay 1998): a parent is extended once per
Aut(parent)-orbit of its modular cuts, by the orbit's first cut in the
lexicographic order of minimal-flat tuples (an orderly, Read/Faradzev-style
choice).  FlatLattice.cut_orbit_representatives walks only the subtrees
that can hold such a first cut and yields each with its orbit size, so the
candidate count still covers every cut.  A child survives only when its new
element lies in the orbit of the element with the lowest canonical label.
Cuts in one orbit give isomorphic children with the same verdict, and two
accepted children of one parent are isomorphic only when their cuts share an
orbit, so each parent yields every class it is the canonical parent of
exactly once.  One cheap necessary test runs before a child is labelled: its
new element must have a minimal one-round signature (the sizes of the
hyperplanes through it).  Parents are independent, so levels parallelize
over a worker pool without affecting the (sorted) output.

The step for one parent runs in this order.  It takes the parent's
automorphism generators, the ones its own labelling returned when it was
accepted one level down; only a parent that has none carried (the empty
matroid, or a parent of a resumed checkpoint) is labelled again.  It builds
the flat lattice, maps each generator to a permutation of the flats, and
walks the cut-orbit representatives.  Each representative's child passes
the signature test, and is then labelled with known automorphisms: the
parent generators whose flat permutation maps the cut's minimal flats onto
themselves, extended to fix the new element.  Each such permutation maps
the cut onto itself, so it maps the child onto itself; the search keeps
its result (canon's "Known automorphisms").  The accepted child's
generators are kept for the next level only, and never checkpointed.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass, field

from .canon import (
    certificate,
    certificate_for,
    element_has_minimal_signature,
    orbit_minima,
)
from .core import (
    AxiomViolation,
    Matroid,
    format_packed,
    pack_ascending,
    pack_masks,
    parse_record_fields,
    read_checked,
    unpack_masks,
    write_checked,
)
from .errors import BudgetExceeded, FormatError
from .lattice import FlatLattice


@dataclass(frozen=True, slots=True)
class CatalogueRecord:
    """A matroid class.  Enumeration leaves id None and sorts by certificate;
    store.assign_ids numbers the records, and a catalogue file read back
    carries ids but no certificates."""

    id: int | None
    n: int
    rank: int
    hyp_bytes: bytes
    cert: bytes | None = None

    @property
    def hyperplanes(self) -> tuple:
        return unpack_masks(self.hyp_bytes)

    def matroid(self) -> Matroid:
        return Matroid(self.n, self.rank, self.hyperplanes)

    def sort_key(self):
        return (self.n, self.rank, self.cert)


EMPTY_MATROID = CatalogueRecord(None, 0, 0, b"", bytes([0, 0]))


def extend_all(parent: Matroid) -> list:
    """Accepted children of one parent, one per isomorphism class, sorted."""
    return _extend_records(parent.n, parent.rank, parent.hyperplanes)[0]


def _extend_records(n, rank, hyps, gens=None, carry=None):
    """(accepted child records, modular-cut candidate count) for one parent.

    gens are automorphism generators of the parent, labelled afresh when
    None.  Only the first cut of each Aut(parent)-orbit, in modular_cuts()
    order, is extended and tested; the count still covers every modular
    cut, as the sum of the orbit sizes.  When carry is a dict, it receives
    the generators of each accepted child under its certificate.
    """
    parent = Matroid(n, rank, hyps)
    if gens is None:
        gens = certificate(parent).generators
    lat = FlatLattice(parent)
    flat_perms = lat.flat_permutations(gens)
    # each generator fixing the new element, with the flat permutation it induces
    lifted = [(g + (n,), fp) for g, fp in zip(gens, flat_perms)]
    records = []
    candidates = 0
    for cut, orbit_size in lat.cut_orbit_representatives(flat_perms):
        candidates += orbit_size
        child_hyps, child_rank = lat.extension_hyperplanes(cut)
        # the one cheap necessary test: the lowest canonical label lives in
        # the first cell of the root refinement, which holds only elements of
        # minimal one-round signature.  certificate_for computes that
        # refinement itself, and the orbit test after it is exact.
        if not element_has_minimal_signature(n + 1, child_hyps, n):
            continue
        # a parent automorphism that maps the cut's minimal flats onto
        # themselves maps the cut onto itself and is one of the child's
        mins = cut.minimal_elements
        known = [g for g, fp in lifted if all(fp[i] in mins for i in mins)]
        cert = certificate_for(n + 1, child_rank, child_hyps, known)
        ids = orbit_minima(n + 1, cert.generators)
        if ids[n] != ids[cert.perm.index(0)]:
            continue
        records.append(
            CatalogueRecord(
                None, n + 1, child_rank, pack_masks(child_hyps), cert.bytes
            )
        )
        if carry is not None:
            carry[cert.bytes] = cert.generators
    return sorted(records, key=CatalogueRecord.sort_key), candidates


def _worker(args):
    """One parent: (child records, candidate count, the children's
    generators by certificate, or None when carry is false)."""
    n, rank, hyps, gens, carry = args
    carried = {} if carry else None
    records, candidates = _extend_records(n, rank, hyps, gens, carried)
    return records, candidates, carried


@dataclass
class EnumerationJob:
    """State of a level-by-level enumeration, checkpointable between batches."""

    max_n: int
    level: int = 0
    next_parent: int = 0
    children: list = field(default_factory=list)
    emitted: list = field(default_factory=lambda: [EMPTY_MATROID])
    candidates_used: int = 0
    # parent certificate -> automorphism generators found when the parent
    # was accepted; kept for one level and not checkpointed
    generators: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def parents(self) -> list:
        """The records the current level extends: the emitted records on
        level elements, in the sorted order they were emitted in."""
        return [rec for rec in self.emitted if rec.n == self.level]


# parents extended between two saves of a checkpointed enumeration
_CHECKPOINT_EVERY = 64


def enumerate_matroids(
    max_n: int,
    jobs: int = 1,
    budget: int | None = None,
    checkpoint_path: str | None = None,
    resume_job: EnumerationJob | None = None,
    progress=None,
) -> list:
    """All matroids with 0..max_n elements as sorted CatalogueRecords (id None).

    budget caps the number of modular-cut candidates examined; on breach a
    checkpoint is written (when a path is configured) and BudgetExceeded is
    raised.
    """
    if not 0 <= max_n <= 9:
        raise ValueError("supported range is 0 <= max_n <= 9")
    job = resume_job if resume_job is not None else EnumerationJob(max_n)
    if job.max_n != max_n:
        raise ValueError(f"checkpoint was for max_n={job.max_n}")
    pool = None
    if jobs > 1:
        pool = multiprocessing.Pool(jobs)
    try:
        while job.level < max_n:
            _advance_level(job, pool, budget, checkpoint_path, progress)
        return sorted(job.emitted, key=CatalogueRecord.sort_key)
    finally:
        if pool is not None:
            pool.close()
            pool.join()


def _advance_level(job, pool, budget, checkpoint_path, progress):
    parents = job.parents
    carry = job.level + 1 < job.max_n
    pending = [
        (rec.n, rec.rank, rec.hyperplanes, job.generators.get(rec.cert), carry)
        for rec in parents[job.next_parent:]
    ]
    if pool is None:
        results = map(_worker, pending)
    else:
        results = pool.imap(_worker, pending, chunksize=4)
    done = job.next_parent
    carried = {}
    for recs, cand, gens in results:
        if gens:
            carried.update(gens)
        job.children.extend(recs)
        job.candidates_used += cand
        done += 1
        job.next_parent = done
        if checkpoint_path and done % _CHECKPOINT_EVERY == 0:
            save_checkpoint(job, checkpoint_path)
        if progress and done % 64 == 0:
            progress(job.level + 1, done, len(parents), len(job.children))
        if budget is not None and job.candidates_used > budget:
            if checkpoint_path:
                save_checkpoint(job, checkpoint_path)
            raise BudgetExceeded(
                f"{job.candidates_used} extension candidates exceed budget {budget}"
            )
    level_children = sorted(job.children, key=CatalogueRecord.sort_key)
    job.level += 1
    job.next_parent = 0
    job.children = []
    job.generators = carried
    job.emitted.extend(level_children)
    if checkpoint_path:
        save_checkpoint(job, checkpoint_path)


# -- checkpoint serialization (a core.write_checked file) --------------------

_CKPT_HEADER = "#matcat-enum-checkpoint v3"


def save_checkpoint(job: EnumerationJob, path: str) -> None:
    fields = (
        f"max_n={job.max_n} level={job.level} next_parent={job.next_parent} "
        f"candidates={job.candidates_used}"
    )
    records = (
        f"{tag} {rec.n} {rec.rank} {format_packed(rec.hyp_bytes)} {rec.cert.hex()}"
        for tag, recs in (("C", job.children), ("E", job.emitted)) for rec in recs
    )
    write_checked(path, _CKPT_HEADER, itertools.chain([fields], records))


def _parse_job(lines) -> EnumerationJob:
    """The job a checkpoint's body lines hold; FormatError if one is malformed."""
    _, fields = next(lines, (1, ""))
    try:
        meta = {k: int(v) for k, v in (kv.split("=") for kv in fields.split())}
        job = EnumerationJob(
            meta["max_n"], meta["level"], meta["next_parent"], [], [], meta["candidates"]
        )
        for _, line in lines:
            tag, ns, rs, hs, cert = line.split()
            n, rank, masks = parse_record_fields(ns, rs, hs)
            rec = CatalogueRecord(None, n, rank, pack_ascending(masks), bytes.fromhex(cert))
            {"C": job.children, "E": job.emitted}[tag].append(rec)
    except KeyError as exc:
        raise FormatError(f"bad checkpoint field {exc}") from None
    except ValueError as exc:
        raise FormatError(f"bad checkpoint {exc}") from None
    return job


def load_checkpoint(path: str) -> EnumerationJob:
    """Read a checkpoint written by save_checkpoint; FormatError if its
    checksum fails (core.read_checked), it is malformed, a record fails the
    checks a catalogue record passes (parse_record_fields), its level,
    cursor and record sizes do not fit together, or two records share a
    certificate."""
    job = read_checked(path, _CKPT_HEADER, _parse_job)
    # such a job would resume and end normally, with wrong totals
    level, cursor, parents = job.level, job.next_parent, len(job.parents)
    if not 0 <= level <= job.max_n:
        raise FormatError(f"bad checkpoint level {level} for max_n={job.max_n}")
    if not 0 <= cursor <= parents:
        raise FormatError(f"bad checkpoint next_parent {cursor} for {parents} parents")
    if any(rec.n != level + 1 for rec in job.children):
        raise FormatError(f"bad checkpoint: a C record is not on {level + 1} elements")
    if any(rec.n > level for rec in job.emitted):
        raise FormatError(f"bad checkpoint: an E record is on more than {level} elements")
    records = job.emitted + job.children
    if len({rec.cert for rec in records}) != len(records):
        raise FormatError("bad checkpoint: two E or C records share a certificate")
    return job


# -- tabulation ---------------------------------------------------------------


def count_matrix(records, max_n: int):
    """counts[r][n] in the rank-by-size layout."""
    counts = [[0] * (max_n + 1) for _ in range(max_n + 1)]
    for rec in records:
        counts[rec.rank][rec.n] += 1
    return counts


def totals_by_n(records, max_n: int):
    totals = [0] * (max_n + 1)
    for rec in records:
        totals[rec.n] += 1
    return totals


# -- brute-force oracle --------------------------------------------------------


def brute_force_enumerate(n: int):
    """Every matroid on n elements via cocircuit antichains; certificate-deduped.

    Returns (records sorted by certificate, labeled_count).  Exponential in
    the antichain lattice; intended for n <= 5.
    """
    if n > 5:
        raise ValueError("oracle supports n <= 5")
    full = (1 << n) - 1
    masks = list(range(1, full + 1))
    labeled = 0
    seen = {}
    # depth-first over cocircuit antichains, each visited before its
    # extensions and those in ascending order of the added mask
    stack = [([], 0)]
    while stack:
        chosen, start = stack.pop()
        for i in range(len(masks) - 1, start - 1, -1):
            c = masks[i]
            if not any(c & d == c or c & d == d for d in chosen):
                stack.append((chosen + [c], i + 1))
        try:
            m = Matroid.from_hyperplanes(n, [full & ~c for c in chosen])
        except AxiomViolation:
            continue
        labeled += 1
        cert = certificate(m)
        if cert.bytes not in seen:
            seen[cert.bytes] = CatalogueRecord(
                None, m.n, m.rank, pack_masks(m.hyperplanes), cert.bytes
            )
    return sorted(seen.values(), key=CatalogueRecord.sort_key), labeled


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    checked: int
    missing: tuple = ()
    asymmetric_cells: tuple = ()


def verify_duality_closure(records) -> DualityReport:
    """Check each complete n-level is closed under duality with rank symmetry."""
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec)
    missing = []
    asym = []
    checked = 0
    for n, recs in sorted(by_n.items()):
        certs = {rec.cert for rec in recs}
        cells = {}
        for rec in recs:
            cells[rec.rank] = cells.get(rec.rank, 0) + 1
            checked += 1
            if certificate(rec.matroid().dual()).bytes not in certs:
                missing.append((n, rec.cert.hex()))
        for r, c in cells.items():
            if cells.get(n - r, 0) != c:
                asym.append((n, r, c, cells.get(n - r, 0)))
    return DualityReport(not missing and not asym, checked, tuple(missing), tuple(asym))
