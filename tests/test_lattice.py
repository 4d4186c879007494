import itertools
import random

import pytest

from matcat.core import Matroid, bits, free, mask_of, uniform
from matcat.lattice import FlatLattice, InvalidCut, ModularCut
from matcat.orderly import brute_force_enumerate

# -- reference oracles, computed from flat masks and the rank table alone ------


def is_modular_pair(m: Matroid, f: int, g: int) -> bool:
    """True iff flats f, g satisfy r(F) + r(G) = r(F u G) + r(F n G)."""
    table = m.rank_table
    return table[f] + table[g] == table[f | g] + table[f & g]


def antichains(lat: FlatLattice):
    """Yield every antichain of the flat poset (index tuples), empty included.

    Exponential in general; intended for small lattices and cross-checks.
    """
    flats = lat.flats
    comparable = [
        mask_of(j for j, g in enumerate(flats) if j != i and f & g in (f, g))
        for i, f in enumerate(flats)
    ]
    yield from _grow_antichains(comparable, (), (1 << lat.nf) - 1, 0)


def _grow_antichains(comparable, chosen, allowed, min_idx):
    """chosen, then every antichain that adds flats of allowed from min_idx on."""
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
    """Reference implementation: the up-set of every antichain of flats, kept
    when it holds F n G for each modular pair F, G of its flats.  An up-set
    has one antichain of minimal flats, so each cut is met once."""
    lat = FlatLattice(m)
    flats = lat.flats
    out = []
    for chain in antichains(lat):
        members = [
            j for j, g in enumerate(flats) if any(flats[i] & g == flats[i] for i in chain)
        ]
        inside = {flats[j] for j in members}
        if all(
            f & g in inside
            for f, g in itertools.combinations(inside, 2)
            if is_modular_pair(m, f, g)
        ):
            out.append(ModularCut(mask_of(members), chain))
    return out


def _covers(lat: FlatLattice) -> list:
    """Cover pairs (lower index, upper index), from the flat masks and ranks."""
    flats, ranks = lat.flats, lat.ranks
    return [
        (i, j)
        for i, f in enumerate(flats)
        for j, g in enumerate(flats)
        if f != g and f & g == f and ranks[j] == ranks[i] + 1
    ]


class TestBuildLattice:
    def test_figure_lattice_shape(self, fig1):
        lat = FlatLattice(fig1)
        assert lat.nf == 19
        assert len(_covers(lat)) == 7 + 25 + 10
        # flats are sorted by rank, so a flat sits after every flat inside it
        assert all(i < j for i in range(lat.nf) for j in bits(lat.strictly_above[i]))

    def test_rank0_single_node(self):
        lat = FlatLattice(Matroid.from_hyperplanes(3, []))
        assert lat.nf == 1
        assert _covers(lat) == []

    def test_atoms_match_parallel_classes(self, matroids6):
        rng = random.Random(2)
        for m in rng.sample(matroids6, 30):
            lat = FlatLattice(m)
            assert lat.ranks.count(1) == len(m.parallel_classes())


class TestModularPairs:
    def test_comparable_flats_are_modular(self, fig1):
        flats = [f for level in fig1.flats().levels for f in level]
        for f in flats:
            for g in flats:
                if f != g and f & g == f:
                    assert is_modular_pair(fig1, f, g)

    def test_figure_lines_meeting_in_a_point(self, fig1):
        assert is_modular_pair(fig1, mask_of((0, 1, 3)), mask_of((1, 2, 4)))

    def test_disjoint_spanning_lines_in_rank4(self):
        m = free(4)
        assert is_modular_pair(m, 0b0011, 0b1100)


class TestAntichains:
    def test_two_element_chain(self):
        lat = FlatLattice(uniform(1, 1))
        assert sum(1 for _ in antichains(lat)) == 3  # empty + two singletons

    def test_boolean_square(self):
        lat = FlatLattice(free(2))
        assert sum(1 for _ in antichains(lat)) == 6

    def test_matches_independent_set_count_on_figure(self, fig1):
        lat = FlatLattice(fig1)
        # independent-set oracle on the comparability graph
        pairs = {(i, j) for i in range(lat.nf) for j in bits(lat.strictly_above[i])}
        n = lat.nf
        conflict = [0] * n
        for i, j in pairs:
            conflict[i] |= 1 << j
            conflict[j] |= 1 << i

        def count(start, allowed):
            total = 1
            rest = allowed & ~((1 << start) - 1)
            while rest:
                b = rest & -rest
                i = b.bit_length() - 1
                rest ^= b
                total += count(i + 1, allowed & ~conflict[i] & ~b)
            return total

        oracle = count(0, (1 << n) - 1)
        assert sum(1 for _ in antichains(lat)) == oracle


class TestModularCuts:
    def test_empty_matroid_has_two_cuts(self):
        cuts = FlatLattice(Matroid.from_hyperplanes(0, [])).modular_cuts()
        assert len(cuts) == 2

    def test_figure2_cut_and_collar(self, fig1):
        lat = FlatLattice(fig1)
        line45 = lat.index[mask_of((4, 5))]
        top = lat.index[fig1.full]
        cut = ModularCut((1 << line45) | (1 << top), (line45,))
        lat.verify_cut(cut)
        cuts = lat.modular_cuts()
        assert any(c.members == cut.members for c in cuts)
        collar_flats = sorted(lat.flats[i] for i in lat.collar(cut))
        want = sorted(
            mask_of(tuple(int(ch) for ch in s))
            for s in ("4", "5", "02", "34", "05", "15", "16", "013", "124", "046", "2356")
        )
        assert collar_flats == want

    def test_collar_of_empty_cut_is_empty(self, fig1):
        lat = FlatLattice(fig1)
        assert lat.collar(ModularCut(0, ())) == ()

    def test_collar_of_top_cut_is_hyperplanes(self, fig1):
        lat = FlatLattice(fig1)
        top = lat.index[fig1.full]
        collar = lat.collar(ModularCut(1 << top, (top,)))
        assert sorted(lat.flats[i] for i in collar) == sorted(fig1.hyperplanes)

    def test_verify_cut_rejects_non_upset(self, fig1):
        lat = FlatLattice(fig1)
        line45 = lat.index[mask_of((4, 5))]
        with pytest.raises(InvalidCut):
            lat.verify_cut(ModularCut(1 << line45, (line45,)))

    def test_pruned_enumeration_matches_naive(self, matroids6):
        # every class through n = 5; one of rank 4 on 5 elements is the
        # smallest whose walk meets an up-set that is not modular-closed
        for m in (m for m in matroids6 if m.n <= 5):
            fast = {c.members for c in FlatLattice(m).modular_cuts()}
            naive = {c.members for c in modular_cuts_naive(m)}
            assert fast == naive

    def test_cut_count_equals_labeled_extension_count(self):
        # Theorem 1 cross-check: modular cuts of N biject with labeled
        # single-element extensions, counted by a cocircuit-family oracle
        for n in range(4):
            full = (1 << (n + 1)) - 1
            masks = list(range(1, full + 1))

            def antichain_families(chosen, start):
                yield chosen
                for i in range(start, len(masks)):
                    c = masks[i]
                    if any(c & d == c or c & d == d for d in chosen):
                        continue
                    yield from antichain_families(chosen + [c], i + 1)

            children = []
            for fam in antichain_families([], 0):
                hyps = sorted(full & ~c for c in fam)
                try:
                    children.append(Matroid.from_hyperplanes(n + 1, hyps))
                except Exception:
                    continue
            parents, _ = brute_force_enumerate(n)
            for prec in parents:
                parent = prec.matroid()
                count = sum(1 for child in children if child.delete(n) == parent)
                assert count == len(FlatLattice(parent).modular_cuts())


class TestPairTables:
    def test_match_is_modular_pair_through_six(self, matroids6):
        for m in matroids6:
            lat = FlatLattice(m)
            adj, meet = lat._pair_tables()
            flats = lat.flats
            for i, f in enumerate(flats):
                for j, g in enumerate(flats):
                    want = i != j and is_modular_pair(m, f, g)
                    assert bool(adj[i] >> j & 1) == want, (m, f, g)
                    if want:
                        assert flats[meet[i][j]] == f & g


def _loop_tables(lat):
    """(up, below, adj, meet) built by the pairwise loops the numpy tables
    replaced, from the lattice's flats and ranks and the rank table."""
    flats, ranks, index, nf = lat.flats, lat.ranks, lat.index, lat.nf
    table = lat.matroid.rank_table
    up = []
    for fi in flats:
        acc = 0
        for j, fj in enumerate(flats):
            if fi & fj == fi:
                acc |= 1 << j
        up.append(acc)
    below = [0] * nf
    for a in range(nf):
        for b in range(nf):
            if b != a and up[a] >> b & 1:
                below[b] |= 1 << a
    adj = [0] * nf
    meet = [[0] * nf for _ in range(nf)]
    for i, fi in enumerate(flats):
        for j in range(i + 1, nf):
            fj = flats[j]
            if ranks[i] + ranks[j] == table[fi | fj] + table[fi & fj]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                meet[i][j] = meet[j][i] = index[fi & fj]
    return tuple(up), below, adj, meet


class TestNumpyTables:
    """The containment, modular-pair and meet tables equal the loops'."""

    @staticmethod
    def _check(m):
        lat = FlatLattice(m)
        up, below, adj, meet = _loop_tables(lat)
        assert lat.up == up, m
        assert lat.below == below, m
        assert lat.strictly_above == [u & ~(1 << i) for i, u in enumerate(up)], m
        assert lat._pair_tables() == (adj, meet), m

    def test_every_class_through_seven(self, catalogue7):
        for rec in catalogue7:
            self._check(rec.matroid())

    def test_high_rank8(self, high_rank8):
        for m in high_rank8:
            self._check(m)


class TestExtend:
    def test_extend_delete_round_trip(self, matroids6):
        rng = random.Random(12)
        foursome = [m for m in matroids6 if m.n == 4]
        for m in foursome:
            lat = FlatLattice(m)
            seen = set()
            for cut in lat.modular_cuts():
                child = lat.extend(cut)
                assert child.n == m.n + 1
                assert child.delete(m.n) == m
                assert child.hyperplanes not in seen
                seen.add(child.hyperplanes)

    def test_loop_extension(self, fig1):
        lat = FlatLattice(fig1)
        bottom = lat.index[0]
        members = 0
        for i in range(lat.nf):
            members |= 1 << i
        child = lat.extend(ModularCut(members, (bottom,)))
        assert child.loops() == 1 << fig1.n
        assert child.rank == fig1.rank

    def test_coloop_extension(self, fig1):
        lat = FlatLattice(fig1)
        child = lat.extend(ModularCut(0, ()))
        assert child.rank == fig1.rank + 1
        assert child.coloops() & (1 << fig1.n)

    def test_table1_column_two(self):
        m0 = Matroid.from_hyperplanes(0, [])
        lat0 = FlatLattice(m0)
        level1 = [lat0.extend(c) for c in lat0.modular_cuts()]
        assert len(level1) == 2
        by_rank = {}
        for m1 in level1:
            lat1 = FlatLattice(m1)
            for cut in lat1.modular_cuts():
                child = lat1.extend(cut)
                by_rank[child.rank] = by_rank.get(child.rank, set())
                from matcat.canon import certificate

                by_rank[child.rank].add(certificate(child).bytes)
        assert {r: len(s) for r, s in sorted(by_rank.items())} == {0: 1, 1: 2, 2: 1}

    def test_extension_validates(self, matroids6):
        rng = random.Random(15)
        for m in rng.sample([x for x in matroids6 if x.n == 5], 8):
            lat = FlatLattice(m)
            for cut in lat.modular_cuts():
                child = lat.extend(cut)
                assert Matroid.from_hyperplanes(child.n, child.hyperplanes) == child
