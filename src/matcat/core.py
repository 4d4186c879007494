"""Matroids stored by their hyperplane family, with rank/closure/flat algebra.

A matroid on ground set {0, ..., n-1} is kept as (n, rank, hyperplanes) where
each hyperplane is a bitmask (bit i set <=> element i present).  The
hyperplane family determines everything else; derived objects (flats, rank
table, circuits, bases) are computed lazily and cached per instance.

Closures and ranks of all 2^n subsets are built together from the
hyperplanes: cl(X) is the intersection of the hyperplanes containing X (E
when none does), and r(X + e) = r(X) + [e not in cl(X)].
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import os
import struct
from dataclasses import dataclass
from functools import cached_property

from .errors import ChecksumMismatch, FormatError


class AxiomViolation(ValueError):
    """Input family is not the hyperplane family of any matroid."""


class NotCircuitHyperplane(ValueError):
    """relax() target is not both a circuit and a hyperplane."""


class EmptyGroundSet(ValueError):
    """Operation undefined on the empty ground set."""


MAX_GROUND = 15

INFINITY = float("inf")


def bits(x: int):
    """Iterate set bit positions of a mask, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def lift_table(keep: int) -> list:
    """lifted[x] is the mask x with bit i moved to the i-th element of keep,
    for every x < 2^|keep|: the masks of a minor on keep, in the parent's
    labels."""
    lifted = [0]
    for e in bits(keep):
        lifted += [x | (1 << e) for x in lifted]
    return lifted


# -- the mask codec: certificates, catalogue and checkpoint lines -------------


def pack_masks(masks) -> bytes:
    """Two big-endian bytes per mask, packed in ascending mask order."""
    return pack_ascending(sorted(masks))


def pack_ascending(masks) -> bytes:
    """pack_masks of masks that are already ascending."""
    return struct.pack(f">{len(masks)}H", *masks)


def unpack_masks(blob: bytes) -> tuple:
    return struct.unpack(f">{len(blob) >> 1}H", blob)


def format_masks(masks) -> str:
    """The text mask field: lowercase hex joined by commas, `-` when empty."""
    return ",".join([format(h, "x") for h in masks]) or "-"


def format_packed(blob: bytes) -> str:
    """format_masks(unpack_masks(blob)), read straight off the bytes: four
    hex digits per mask, leading zeros dropped."""
    if not blob:
        return "-"
    return ",".join([t.lstrip("0") or "0" for t in blob.hex(",", 2).split(",")])


def parse_masks(text: str) -> tuple:
    """Masks of a text mask field, in file order; ValueError if malformed."""
    return () if text == "-" else tuple([int(t, 16) for t in text.split(",")])


def parse_record_fields(n_text: str, rank_text: str, masks_text: str) -> tuple:
    """(n, rank, masks) of the `n rank masks` fields of a record line;
    ValueError unless n and rank are in range and the masks are strictly
    ascending proper subsets of E.  The matroid axioms are not checked."""
    try:
        n, rank, masks = int(n_text), int(rank_text), parse_masks(masks_text)
    except ValueError:
        raise ValueError("expected integers and hex masks") from None
    if not 0 <= n <= MAX_GROUND:
        raise ValueError(f"n = {n} outside 0..{MAX_GROUND}")
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} outside 0..{n}")
    if not all(map(operator.lt, masks, masks[1:])):
        raise ValueError("masks not strictly ascending")
    if masks and (masks[0] < 0 or masks[-1] >= (1 << n) - 1):
        raise ValueError("mask has bits outside E or equals E")
    return n, rank, masks


# -- checked line files: the catalogue and both checkpoints -------------------

def write_checked(path: str, header: str, lines) -> None:
    """Write header, then each of lines, then a `#sha256 <hex>` footer over
    everything above it.  The lines are streamed in batches to path.tmp,
    which then replaces path; a path that is a device, a pipe or a directory
    is refused, since the rename would replace it."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise FileExistsError(f"{path} exists and is not a regular file")
    digest = hashlib.sha256()
    lines = itertools.chain((header,), lines)
    with open(path + ".tmp", "wb") as fh:
        while batch := list(itertools.islice(lines, 1024)):
            data = "\n".join([*batch, ""]).encode()
            digest.update(data)
            fh.write(data)
        fh.write(f"#sha256 {digest.hexdigest()}\n".encode())
    os.replace(path + ".tmp", path)


def read_checked(path: str, header: str, parse):
    """What parse returns for the body of a file write_checked wrote under
    header; FormatError for another header or no footer.

    parse gets an iterator of (line number, line) over the body lines, read
    and hashed in blocks.  The footer is checked once parse is done, and a
    ValueError from parse is raised only after the checksum holds, so a
    damaged file raises ChecksumMismatch whatever else is wrong with it.
    """
    digest = hashlib.sha256()
    last, last_no = b"", 1  # the last line read, which may be the footer

    def body():
        nonlocal last, last_no
        while block := fh.readlines(1 << 14):
            last_no += len(block)
            block.insert(0, last)
            last = block.pop()
            data = b"".join(block)
            digest.update(data)
            yield from data.decode(errors="replace").split("\n")[:-1]

    with open(path, "rb") as fh:
        first = fh.readline()
        if first != f"{header}\n".encode():
            got = first.decode(errors="replace").strip()
            raise FormatError(f"expected header {header!r}, not {got!r}", line=1)
        digest.update(first)
        lines, error = enumerate(body(), start=2), None
        try:
            result = parse(lines)
        except ValueError as exc:
            error = exc
        for _ in lines:
            pass
    if not last.startswith(b"#sha256 "):
        raise FormatError("missing checksum footer", line=last_no)
    want = last.removeprefix(b"#sha256 ").strip().decode(errors="replace")
    got = digest.hexdigest()
    if want != got:
        raise ChecksumMismatch(f"checksum {got} != recorded {want}")
    if error is not None:
        raise error
    return result


def _closures_and_ranks(n: int, hyps):
    """(closure list, rank list) over every mask < 2^n; see the module docstring.

    Each hyperplane is seeded with itself and every other mask with E.  Then,
    one element at a time, each mask is ANDed with its superset by that
    element, which leaves it with the AND of the hyperplanes containing it.
    """
    full = (1 << n) - 1
    cl = [full] * (1 << n)
    for h in hyps:
        cl[h] = h
    for e in range(n):
        b = 1 << e
        cl = [c & cl[x | b] for x, c in enumerate(cl)]
    table = [0]
    for e in range(n):
        b = 1 << e
        table += [t + (not c & b) for t, c in zip(table, cl)]
    return cl, table


@dataclass(frozen=True)
class FlatsByRank:
    """All flats of a matroid grouped by rank (level r = top = {E})."""

    levels: tuple  # levels[k] = sorted tuple of flat masks of rank k

    def count(self) -> int:
        return sum(len(level) for level in self.levels)


class Matroid:
    """Immutable matroid; compare/hash by (n, rank, hyperplanes).

    The hyperplane masks are stored as an ascending tuple whatever order they
    are given in, so one matroid has one representation.
    """

    def __init__(self, n: int, rank: int, hyperplanes):
        self.n = n
        self.rank = rank
        self.hyperplanes = tuple(sorted(hyperplanes))
        self.full = (1 << n) - 1

    @classmethod
    def from_hyperplanes(cls, n: int, hyps) -> "Matroid":
        """Validate a hyperplane family and infer the rank from its flats."""
        if not 0 <= n <= MAX_GROUND:
            raise AxiomViolation(f"ground size {n} outside 0..{MAX_GROUND}")
        full = (1 << n) - 1
        hyps = sorted(set(int(h) for h in hyps))
        for h in hyps:
            if h & ~full:
                raise AxiomViolation(f"mask {h:#x} uses bits beyond ground set")
            if h == full:
                raise AxiomViolation("E itself may not be a hyperplane")
        for h1, h2 in itertools.combinations(hyps, 2):
            if h1 & h2 == h1 or h1 & h2 == h2:
                raise AxiomViolation(f"not an antichain: {h1:#x} vs {h2:#x}")
        # complement form of weak circuit elimination: every e outside h1 | h2
        # lies in a hyperplane containing h1 & h2, i.e. the union of those
        # hyperplanes is E; checked once per distinct meet
        covered = set()
        for h1, h2 in itertools.combinations(hyps, 2):
            meet = h1 & h2
            if meet in covered:
                continue
            union = 0
            for h3 in hyps:
                if h3 & meet == meet:
                    union |= h3
            missed = full & ~union
            if missed:
                e = (missed & -missed).bit_length() - 1
                raise AxiomViolation(
                    f"no hyperplane covers ({h1:#x} & {h2:#x}) + element {e}"
                )
            covered.add(meet)
        table = _closures_and_ranks(n, hyps)[1]
        rank = table[full]
        bad = [h for h in hyps if table[h] != rank - 1]
        if bad:
            raise AxiomViolation(f"family member {bad[0]:#x} is not at corank 1")
        return cls(n, rank, hyps)

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.rank == other.rank
            and self.hyperplanes == other.hyperplanes
        )

    def __hash__(self):
        return hash((self.n, self.rank, self.hyperplanes))

    def __repr__(self):
        hs = format_masks(self.hyperplanes)
        return f"Matroid(n={self.n}, rank={self.rank}, hyps={hs})"

    # -- flats and ranks ---------------------------------------------------

    @cached_property
    def _subset_tables(self):
        """(closure list, rank list), each indexed by every mask < 2^n."""
        return _closures_and_ranks(self.n, self.hyperplanes)

    @cached_property
    def _flat_data(self):
        """(flats sorted by (rank, mask), rank list, mask -> index dict)."""
        cl, table = self._subset_tables
        ordered = sorted(set(cl), key=lambda f: (table[f], f))
        ranks = [table[f] for f in ordered]
        return ordered, ranks, {f: i for i, f in enumerate(ordered)}

    def flats(self) -> FlatsByRank:
        ordered, ranks, _ = self._flat_data
        levels = [[] for _ in range(self.rank + 1)]
        for f, r in zip(ordered, ranks):
            levels[r].append(f)
        return FlatsByRank(tuple(tuple(level) for level in levels))

    @cached_property
    def rank_table(self):
        """rank_table[mask] = rank of the subset, for every mask < 2^n."""
        return self._subset_tables[1]

    def rank_of(self, a: int) -> int:
        return self.rank_table[a]

    def closure(self, a: int) -> int:
        return self._subset_tables[0][a]

    # -- independence ------------------------------------------------------

    @cached_property
    def _circuits(self):
        table = self.rank_table
        out = []
        for m in range(1, 1 << self.n):
            p = m.bit_count()
            if table[m] >= p:
                continue
            if all(table[m & ~(1 << e)] == p - 1 for e in bits(m)):
                out.append(m)
        return tuple(out)

    def circuits(self):
        return list(self._circuits)

    @cached_property
    def _bases(self):
        table = self.rank_table
        r = self.rank
        return tuple(
            m for m in range(1 << self.n) if m.bit_count() == r and table[m] == r
        )

    def bases(self):
        return list(self._bases)

    def circuit_hyperplanes(self):
        hset = set(self.hyperplanes)
        return [c for c in self._circuits if c in hset]

    # -- duality and minors --------------------------------------------------

    @cached_property
    def _dual(self) -> "Matroid":
        hyps = [self.full & ~c for c in self._circuits]
        return Matroid(self.n, self.n - self.rank, hyps)

    def dual(self) -> "Matroid":
        """Matroid with rank function r*(A) = |A| + r(E \\ A) - r(E).

        Built once per instance, so every caller shares one dual and its
        rank table.  The dual does not link back: its own dual() is a fresh
        matroid equal to this one, which keeps the pair free of a reference
        cycle.
        """
        return self._dual

    @classmethod
    def from_rank_table(cls, n: int, table) -> "Matroid":
        """Rebuild (n, rank, hyperplanes) from a full rank table (trusted),
        which the new matroid keeps as its rank_table."""
        full = (1 << n) - 1
        r = table[full]
        hyps = []
        for m in range(1 << n):
            if table[m] != r - 1:
                continue
            if all(table[m | (1 << e)] > table[m] for e in bits(full & ~m)):
                hyps.append(m)
        matroid = cls(n, r, hyps)
        matroid.rank_table = table
        return matroid

    def delete(self, e: int) -> "Matroid":
        if not 0 <= e < self.n:
            raise ValueError(f"element {e} out of range")
        return self.restrict(self.full & ~(1 << e))

    def contract(self, e: int) -> "Matroid":
        if not 0 <= e < self.n:
            raise ValueError(f"element {e} out of range")
        table = self.rank_table
        b = 1 << e
        re = table[b]
        lifted = lift_table(self.full & ~b)
        return Matroid.from_rank_table(self.n - 1, [table[x | b] - re for x in lifted])

    def restrict(self, keep_mask: int) -> "Matroid":
        """Delete every element outside keep_mask (relabels downward)."""
        keep = self.full & keep_mask
        if keep == self.full:
            return self
        table = self.rank_table
        lifted = lift_table(keep)
        return Matroid.from_rank_table(keep.bit_count(), [table[x] for x in lifted])

    # -- loops, parallelism, simplification ----------------------------------

    def loops(self) -> int:
        table = self.rank_table
        return mask_of(e for e in range(self.n) if table[1 << e] == 0)

    def coloops(self) -> int:
        table = self.rank_table
        return mask_of(
            e for e in range(self.n) if table[self.full & ~(1 << e)] == self.rank - 1
        )

    def simple_cosimple(self) -> tuple:
        """(simple, cosimple), read off the hyperplanes without a rank table.

        An element is a loop when it lies on every hyperplane, and two
        non-loops are parallel when they lie on the same hyperplanes.  The
        cocircuits are the complements of the hyperplanes, so the dual has a
        loop or a parallel pair when some hyperplane misses at most two
        elements.
        """
        hyps = self.hyperplanes
        # bit i of on[e] is set when element e lies on hyperplane i
        on = [mask_of(i for i, h in enumerate(hyps) if h >> e & 1) for e in range(self.n)]
        every = (1 << len(hyps)) - 1
        simple = every not in on and len(set(on)) == self.n
        return simple, all(h.bit_count() < self.n - 2 for h in hyps)

    def parallel_classes(self):
        """Partition of the non-loop elements into parallel classes (masks)."""
        table = self.rank_table
        nonloops = [e for e in range(self.n) if table[1 << e] == 1]
        classes = []
        seen = 0
        for e in nonloops:
            if seen & (1 << e):
                continue
            cls_mask = 1 << e
            for f in nonloops:
                if f > e and table[(1 << e) | (1 << f)] == 1:
                    cls_mask |= 1 << f
            seen |= cls_mask
            classes.append(cls_mask)
        return classes

    def simplify(self) -> "Matroid":
        """Remove loops and collapse each parallel class to its least element;
        self when there is nothing to remove."""
        return self.restrict(sum(c & -c for c in self.parallel_classes()))

    # -- relaxation -----------------------------------------------------------

    def relax(self, h: int) -> "Matroid":
        """Turn a circuit-hyperplane into a basis."""
        if h not in set(self.hyperplanes) or h not in set(self._circuits):
            raise NotCircuitHyperplane(f"{h:#x} is not a circuit-hyperplane")
        table = self.rank_table
        new = [max(table[m], (m & h).bit_count()) for m in range(1 << self.n)]
        return Matroid.from_rank_table(self.n, new)

    # -- connectivity, rank polynomial ----------------------------------------

    def connectivity(self):
        """Tutte connectivity; INFINITY when no k-separation exists."""
        table = self.rank_table
        best = None
        for x in range(1, self.full):
            lam = table[x] + table[self.full & ~x] - self.rank
            k = lam + 1
            if min(x.bit_count(), self.n - x.bit_count()) >= k:
                if best is None or k < best:
                    best = k
        return INFINITY if best is None else best

    def rank_polynomial(self):
        """Whitney rank generating function as a coefficient matrix.

        coeff[i][j] multiplies x^i y^j in sum_A x^(r(E)-r(A)) y^(|A|-r(A)).
        """
        table = self.rank_table
        coeff = [
            [0] * (self.n - self.rank + 1) for _ in range(self.rank + 1)
        ]
        for m in range(1 << self.n):
            coeff[self.rank - table[m]][m.bit_count() - table[m]] += 1
        return coeff


def uniform(r: int, n: int) -> Matroid:
    """U_{r,n}: rank of A is min(r, |A|)."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if r == 0:
        return Matroid(n, 0, ())
    hyps = [m for m in range(1 << n) if m.bit_count() == r - 1]
    return Matroid(n, r, hyps)


def free(n: int) -> Matroid:
    return uniform(n, n)

