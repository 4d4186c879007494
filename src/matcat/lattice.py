"""The lattice of flats, modular cuts, and single-element extensions.

A modular cut is an up-set of flats closed under intersections of modular
pairs; each one determines a unique single-element extension.  Minimal
elements of a modular cut are pairwise non-modular (if two were a modular
pair, their intersection would sit below both inside the cut), so cut
candidates are enumerated as independent sets of the modular-pair graph
rather than as arbitrary antichains; that keeps lattices with huge antichain
counts (free matroids) tractable while producing exactly the same cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Matroid, bits


class InvalidCut(ValueError):
    """Flat family is not an up-closed, modular-pair-closed cut."""


@dataclass(frozen=True, slots=True)
class ModularCut:
    """members/minimal_elements are index sets into FlatLattice.flats."""

    members: int           # bitset over flat indices
    minimal_elements: tuple


def _modular_closed(members: int, adj, meet) -> bool:
    """True iff the up-set holds the meet of each modular pair inside it."""
    rest = members
    while rest:
        b = rest & -rest
        i = b.bit_length() - 1
        rest ^= b
        row = adj[i] & rest
        while row:
            c = row & -row
            j = c.bit_length() - 1
            row ^= c
            if not (members >> meet[i][j]) & 1:
                return False
    return True


def _grow_cuts(out, adj, meet, up, below, chosen, members, rest):
    """Append, in search order, each cut whose minimal flats are chosen plus
    one flat of the bitset rest, and the cuts that grow from it.

    A module function rather than a nested one: a recursive closure is a
    reference cycle, which would keep every cut list alive until the
    cyclic garbage collector runs.
    """
    while rest:
        b = rest & -rest
        i = b.bit_length() - 1
        rest ^= b
        nmembers = members | up[i]
        nchosen = chosen + (i,)
        if len(nchosen) == 1 or _modular_closed(nmembers, adj, meet):
            out.append(ModularCut(nmembers, nchosen))
        # antichain + pairwise non-modular: drop comparables and modular
        # partners of i from the candidate pool (rest holds flats above i only)
        _grow_cuts(
            out, adj, meet, up, below, nchosen, nmembers,
            rest & ~adj[i] & ~up[i] & ~below[i],
        )


class FlatLattice:
    """Flats of a matroid with rank grading, covers, and join structure."""

    def __init__(self, m: Matroid):
        self.matroid = m
        flats, ranks, index = m._flat_data
        self.flats = list(flats)
        self.ranks = list(ranks)
        self.index = dict(index)
        nf = len(flats)
        self.nf = nf
        # up[i]: bitset of flats containing flat i (including i itself)
        up = []
        for fi in flats:
            acc = 0
            for j, fj in enumerate(flats):
                if fi & fj == fi:
                    acc |= 1 << j
            up.append(acc)
        self.up = up = tuple(up)
        self.strictly_above = [up[i] & ~(1 << i) for i in range(nf)]

    # -- basic lattice structure -------------------------------------------

    def covers(self):
        """cover pairs (lower index, upper index)."""
        out = []
        for i in range(self.nf):
            ri = self.ranks[i]
            for j in bits(self.strictly_above[i]):
                if self.ranks[j] == ri + 1:
                    out.append((i, j))
        return out

    def comparability_pairs(self):
        out = []
        for i in range(self.nf):
            for j in bits(self.strictly_above[i]):
                out.append((i, j))
        return out

    def atoms(self):
        return [i for i in range(self.nf) if self.ranks[i] == 1]

    def join_index(self, i: int, j: int) -> int:
        common = self.up[i] & self.up[j]
        return (common & -common).bit_length() - 1

    def meet_index(self, i: int, j: int) -> int:
        return self.index[self.flats[i] & self.flats[j]]

    def is_modular_pair_idx(self, i: int, j: int) -> bool:
        return (
            self.ranks[i] + self.ranks[j]
            == self.ranks[self.join_index(i, j)] + self.ranks[self.meet_index(i, j)]
        )

    # -- modular cuts ---------------------------------------------------------

    def _pair_tables(self):
        """(modular-pair adjacency bitsets, meet index matrix), cached."""
        cached = getattr(self, "_pairs", None)
        if cached is not None:
            return cached
        nf = self.nf
        adj = [0] * nf
        meet = [[0] * nf for _ in range(nf)]
        for i in range(nf):
            meet[i][i] = i
            for j in range(i + 1, nf):
                k = self.meet_index(i, j)
                meet[i][j] = k
                meet[j][i] = k
                if self.ranks[i] + self.ranks[j] == self.ranks[
                    self.join_index(i, j)
                ] + self.ranks[k]:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        self._pairs = (adj, meet)
        return self._pairs

    def _upset_is_modular_closed(self, members: int) -> bool:
        return _modular_closed(members, *self._pair_tables())

    def modular_cuts(self):
        """Every modular cut, the empty cut included, each exactly once."""
        adj, meet = self._pair_tables()
        out = [ModularCut(0, ())]
        full = (1 << self.nf) - 1
        _grow_cuts(out, adj, meet, self.up, self._below_table(), (), 0, full)
        return out

    def _below_table(self):
        """below[i]: bitset of flats strictly inside flat i, cached."""
        cached = getattr(self, "_below_sets", None)
        if cached is None:
            cached = [0] * self.nf
            for a in range(self.nf):
                for b in bits(self.strictly_above[a]):
                    cached[b] |= 1 << a
            self._below_sets = cached
        return cached

    def _below(self, i: int) -> int:
        return self._below_table()[i]

    def verify_cut(self, cut: ModularCut) -> None:
        """Raise InvalidCut unless members form an up-closed modular cut."""
        members = cut.members
        for i in bits(members):
            if self.up[i] & ~members:
                raise InvalidCut(f"not up-closed at flat index {i}")
        if not self._upset_is_modular_closed(members):
            raise InvalidCut("not closed under modular-pair intersections")

    def collar(self, cut: ModularCut) -> tuple:
        """Flats outside the cut covered by a member of the cut."""
        members = cut.members
        out = []
        for i in range(self.nf):
            if (members >> i) & 1:
                continue
            ri = self.ranks[i]
            above = self.strictly_above[i] & members
            found = False
            for j in bits(above):
                if self.ranks[j] == ri + 1:
                    found = True
                    break
            if found:
                out.append(i)
        return tuple(out)

    # -- extension ------------------------------------------------------------

    def _extension_context(self):
        """(corank-1 indices, corank-2 indices, cover-up bitsets), cached."""
        cached = getattr(self, "_ext_ctx", None)
        if cached is not None:
            return cached
        r = self.matroid.rank
        corank1 = [i for i in range(self.nf) if self.ranks[i] == r - 1]
        corank2 = [i for i in range(self.nf) if self.ranks[i] == r - 2]
        up1 = [0] * self.nf
        for i in corank2:
            acc = 0
            for j in bits(self.strictly_above[i]):
                if self.ranks[j] == r - 1:
                    acc |= 1 << j
            up1[i] = acc
        self._ext_ctx = (corank1, corank2, up1)
        return self._ext_ctx

    def extension_hyperplanes(self, cut: ModularCut):
        """(hyperplanes unsorted, rank) of the extension by the cut.

        The new element is labelled n.  For the empty cut the element is a
        coloop and the rank grows by one; otherwise hyperplanes at corank 1
        inside the cut absorb the element, those outside stay put, and free
        corank-2 flats (neither in the cut nor covered by a member) rise.
        Callers normalise the order: `Matroid` and `orderly.pack_masks` both
        store the masks ascending.
        """
        m = self.matroid
        e_bit = 1 << m.n
        if cut.members == 0:
            return [m.full] + [h | e_bit for h in m.hyperplanes], m.rank + 1
        members = cut.members
        corank1, corank2, up1 = self._extension_context()
        flats = self.flats
        hyps = []
        for i in corank1:
            if (members >> i) & 1:
                hyps.append(flats[i] | e_bit)
            else:
                hyps.append(flats[i])
        for i in corank2:
            if not (members >> i) & 1 and not (up1[i] & members):
                hyps.append(flats[i] | e_bit)
        return hyps, m.rank

    def extend(self, cut: ModularCut) -> Matroid:
        self.verify_cut(cut)
        hyps, rank = self.extension_hyperplanes(cut)
        return Matroid(self.matroid.n + 1, rank, hyps)


def build_lattice(m: Matroid) -> FlatLattice:
    return FlatLattice(m)


def is_modular_pair(m: Matroid, f: int, g: int) -> bool:
    """True iff flats f, g satisfy r(F) + r(G) = r(F u G) + r(F n G)."""
    table = m.rank_table
    return table[f] + table[g] == table[f | g] + table[f & g]


def antichains(lat: FlatLattice):
    """Yield every antichain of the flat poset (index tuples), empty included.

    Exponential in general; intended for small lattices and cross-checks.
    """
    nf = lat.nf
    comparable = [0] * nf
    for i in range(nf):
        comparable[i] = lat.strictly_above[i] | lat._below(i)

    yield from _grow_antichains(comparable, (), (1 << nf) - 1, 0)


def _grow_antichains(comparable, chosen, allowed, min_idx):
    """chosen, then every antichain that adds flats of allowed from min_idx on
    (a module function for the reason given at _grow_cuts)."""
    yield chosen
    rest = allowed & ~((1 << min_idx) - 1)
    while rest:
        b = rest & -rest
        i = b.bit_length() - 1
        rest ^= b
        yield from _grow_antichains(
            comparable, chosen + (i,), allowed & ~comparable[i], i + 1
        )


def modular_cuts_naive(m: Matroid):
    """Reference implementation: filter up-sets of all antichains."""
    lat = FlatLattice(m)
    out = []
    seen = set()
    for chain in antichains(lat):
        members = 0
        for i in chain:
            members |= lat.up[i]
        if members in seen:
            continue
        mins = _minimal_of(lat, members)
        if mins != chain:
            continue  # same up-set arises from its own minimal antichain
        if lat._upset_is_modular_closed(members):
            seen.add(members)
            out.append(ModularCut(members, mins))
    return out


def _minimal_of(lat: FlatLattice, members: int):
    mins = []
    for i in bits(members):
        if not lat._below(i) & members:
            mins.append(i)
    return tuple(mins)


def modular_cuts(m: Matroid):
    """All modular cuts of m via the pruned antichain search."""
    return FlatLattice(m).modular_cuts()
