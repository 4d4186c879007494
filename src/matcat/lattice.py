"""The lattice of flats, modular cuts, and single-element extensions.

A modular cut is an up-set of flats closed under intersections of modular
pairs; each one determines a unique single-element extension.  Minimal
elements of a modular cut are pairwise non-modular (if two were a modular
pair, their intersection would sit below both inside the cut), so cut
candidates are enumerated as independent sets of the modular-pair graph
rather than as arbitrary antichains; that keeps lattices with huge antichain
counts (free matroids) tractable while producing exactly the same cuts.

The search is one depth-first walk that adds flats in ascending index
order, so it meets the cuts in lexicographic order of their ascending
minimal-flat tuples.  Given permutations of the flats induced by
automorphisms, it yields only the first cut of each orbit, which is the one
with the least tuple, and it prunes by flat orbits: it starts only from
flats that are least in their orbit, and below a first flat a it adds only
flats whose orbit minimum is a or more.  The pruning is exact.  If a tuple
holds a flat x whose orbit minimum m is less than its first flat, some
automorphism maps x to m; the image of the cut is a cut whose tuple holds m
and so starts below the tuple, which is therefore not least in its orbit.
Every tuple grown from it holds x as well, so the whole subtree goes.  The
walk still meets some cuts that are not first in their orbits; the orbit of
each cut it yields is listed, and later members of that orbit are skipped.
Only the members that hold the yielded cut's least flat a are kept for
that.  Every minimal flat of a member has orbit minimum a or more, so index
a or more, and a flat inside a has a smaller index, so a member holds a
only as a minimal flat.  A member that holds a starts with a, and the walk
meets it under a; any other member starts above a yet holds a flat of
orbit minimum a, and the pruning drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import orbit_minima, relabel_mask
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


def _grow_cuts(adj, meet, up, below, firsts, later):
    """Yield every non-empty cut whose least minimal flat lies in the bitset
    firsts and whose other minimal flats lie in later[least], in
    lexicographic order of the ascending minimal-flat tuples.

    The walk is depth-first with an explicit stack; a node's children add
    one larger flat that is neither comparable nor modular with any chosen
    flat, tried in ascending order.  A node whose up-set is not closed is
    not a cut, but its children may be.
    """
    for a in bits(firsts):
        yield ModularCut(up[a], (a,))
        stack = [[(a,), up[a], later[a] & ~adj[a] & ~up[a] & ~below[a]]]
        while stack:
            top = stack[-1]
            rest = top[2]
            if not rest:
                stack.pop()
                continue
            b = rest & -rest
            i = b.bit_length() - 1
            top[2] = rest = rest ^ b
            members = top[1] | up[i]
            chosen = top[0] + (i,)
            if _modular_closed(members, adj, meet):
                yield ModularCut(members, chosen)
            rest &= ~adj[i] & ~up[i] & ~below[i]
            if rest:
                stack.append([chosen, members, rest])


def _cut_orbit(cut, perms) -> tuple:
    """(orbit size, member bitsets of the other cuts in the orbit of cut
    that hold its least minimal flat) under the flat permutations; perms
    pairs each with the up-sets of the flats' images.

    An automorphism maps the minimal flats of a cut onto the minimal flats
    of its image, whose members are the union of their up-sets.
    """
    first = cut.minimal_elements[0]
    orbit = {cut.members}
    ahead = []
    queue = [cut.minimal_elements]
    while queue:
        mins = queue.pop()
        for fp, up_fp in perms:
            members = 0
            for i in mins:
                members |= up_fp[i]
            if members not in orbit:
                orbit.add(members)
                queue.append([fp[i] for i in mins])
                if members >> first & 1:
                    ahead.append(members)
    return len(orbit), ahead


def _bitset_rows(matrix) -> list:
    """Each row of a boolean matrix as an int bitset, column j at bit j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [
        int.from_bytes(data[k : k + width], "little")
        for k in range(0, len(data), width)
    ]


class FlatLattice:
    """Flats of a matroid with their ranks, modular cuts and extensions.

    The containment, modular-pair and meet tables are built with one numpy
    operation each over all flat pairs, and each row is kept as an int
    bitset over flat indices.
    """

    def __init__(self, m: Matroid):
        self.matroid = m
        flats, ranks, index = m._flat_data
        self.flats = list(flats)
        self.ranks = list(ranks)
        self.index = dict(index)
        nf = len(flats)
        self.nf = nf
        self._masks = fl = np.asarray(flats, dtype=np.int64)
        # contains[i, j]: flat j contains flat i
        contains = np.bitwise_and.outer(fl, fl) == fl[:, None]
        # up[i]: bitset of flats containing flat i (including i itself)
        self.up = tuple(_bitset_rows(contains))
        np.fill_diagonal(contains, False)
        self.strictly_above = _bitset_rows(contains)
        # below[i]: bitset of flats strictly inside flat i
        self.below = _bitset_rows(contains.T)

    # -- modular cuts ---------------------------------------------------------

    def _pair_tables(self):
        """(modular-pair adjacency bitsets, meet index matrix), cached.

        Flats F, G are a modular pair iff r(F) + r(G) = r(F | G) + r(F & G),
        read off the matroid's rank table.  The meet matrix is filled for
        modular pairs only, the pairs that _modular_closed reads, and is 0
        elsewhere.
        """
        cached = getattr(self, "_pairs", None)
        if cached is not None:
            return cached
        m, fl = self.matroid, self._masks
        table = np.asarray(m.rank_table, dtype=np.int16)
        rk = np.asarray(self.ranks, dtype=np.int16)
        inter = np.bitwise_and.outer(fl, fl)
        modular = rk[:, None] + rk[None, :] == table[fl[:, None] | fl] + table[inter]
        np.fill_diagonal(modular, False)
        position = np.zeros(1 << m.n, dtype=np.int64)
        position[fl] = np.arange(self.nf)
        meet = np.where(modular, position[inter], 0).tolist()
        self._pairs = (_bitset_rows(modular), meet)
        return self._pairs

    def modular_cuts(self):
        """Every modular cut, the empty cut included, each exactly once."""
        return [cut for cut, _ in self.cut_orbit_representatives()]

    def flat_permutations(self, generators) -> list:
        """The permutation of flat indices that each element permutation in
        generators induces, one per generator and in their order."""
        flats, index = self.flats, self.index
        return [[index[relabel_mask(flat, g)] for flat in flats] for g in generators]

    def cut_orbit_representatives(self, flat_perms=()):
        """Yield (cut, orbit size) for the first cut of each orbit of the
        group that flat_perms generate, in modular_cuts() order; identity
        and repeated permutations are ignored.

        The first cut of an orbit has the lexicographically least minimal-flat
        tuple in it; the walk skips the subtrees that cannot hold such a cut
        (see the module docstring).  With no permutations every cut is its
        own orbit and the walk yields them all.
        """
        adj, meet = self._pair_tables()
        up, below, nf = self.up, self.below, self.nf
        yield ModularCut(0, ()), 1
        identity = list(range(nf))
        distinct = []
        for fp in flat_perms:
            if fp != identity and fp not in distinct:
                distinct.append(fp)
        flat_perms = distinct
        # by_min[a]: the flats whose orbit minimum is a; later[a]: those whose
        # orbit minimum is a or more; firsts: the orbit minima
        by_min = [0] * nf
        for x, a in enumerate(orbit_minima(nf, flat_perms)):
            by_min[a] |= 1 << x
        later = [0] * (nf + 1)
        firsts = 0
        for a in range(nf - 1, -1, -1):
            later[a] = later[a + 1] | by_min[a]
            if by_min[a]:
                firsts |= 1 << a
        cuts = _grow_cuts(adj, meet, up, below, firsts, later)
        if not flat_perms:
            for cut in cuts:
                yield cut, 1
            return
        # each permutation with the up-set of the image of each flat
        perms = [(fp, [up[y] for y in fp]) for fp in flat_perms]
        # the cuts the walk has still to meet after the first cut of their
        # orbit; the walk meets each cut once, so it leaves the set when met
        ahead = set()
        for cut in cuts:
            if cut.members in ahead:
                ahead.remove(cut.members)
                continue
            size, later_cuts = _cut_orbit(cut, perms)
            ahead.update(later_cuts)
            yield cut, size

    def verify_cut(self, cut: ModularCut) -> None:
        """Raise InvalidCut unless members form an up-closed modular cut."""
        members = cut.members
        for i in bits(members):
            if self.up[i] & ~members:
                raise InvalidCut(f"not up-closed at flat index {i}")
        if not _modular_closed(members, *self._pair_tables()):
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
        Callers normalise the order: `Matroid` and `core.pack_masks` both
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
