import numpy as np

from examples import f8, l8, p2_doubleprime, p2_prime, p3
from matcat.core import INFINITY, Matroid, free, uniform
from matcat.named import ag32, ag32_prime, p1, p8, vamos
from matcat.store import COLUMNS
from matcat.props import (
    IngletonWitness,
    _ingleton_full,
    classify,
    ingleton_sides,
    ingleton_violating,
)

# Table rows through n=6: total simple / simple+cosimple / simple paving
SIMPLE_TOTALS = {0: 1, 1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 26}
SIMPLE_COSIMPLE_TOTALS = {0: 1, 1: 0, 2: 0, 3: 0, 4: 1, 5: 2, 6: 8}
SIMPLE_PAVING_TOTALS = {0: 1, 1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 18}


class TestClassify:
    def test_simple_counts(self, matroids6):
        for n, want in SIMPLE_TOTALS.items():
            got = sum(1 for m in matroids6 if m.n == n and classify(m)["simple"])
            assert got == want, n

    def test_simple_cosimple_counts(self, matroids6):
        for n, want in SIMPLE_COSIMPLE_TOTALS.items():
            got = sum(
                1
                for m in matroids6
                if m.n == n and classify(m)["simple"] and classify(m)["cosimple"]
            )
            assert got == want, n

    def test_simple_paving_counts(self, matroids6):
        for n, want in SIMPLE_PAVING_TOTALS.items():
            got = sum(
                1
                for m in matroids6
                if m.n == n and classify(m)["simple"] and classify(m)["paving"]
            )
            assert got == want, n

    def test_implication_lattice(self, matroids6):
        for m in matroids6:
            flags = classify(m)
            assert not flags["uniform"] or flags["sparsePaving"]
            assert not flags["sparsePaving"] or flags["paving"]
            if m.rank >= 2:
                assert flags["simple"] == (
                    flags["numLoops"] == 0 and flags["minCircuitSize"] >= 3
                )

    def test_keys_are_the_flag_columns(self, fig1):
        assert tuple(classify(fig1)) == COLUMNS[3:17]
        assert COLUMNS[3] == "simple" and COLUMNS[17] == "autOrder"

    def test_counts_are_exact(self, fig1):
        flags = classify(fig1)
        assert flags["numBases"] == 28
        assert flags["numHyperplanes"] == 10
        assert flags["numFlats"] == 19
        assert flags["numLoops"] == 0 and flags["numColoops"] == 0
        assert flags["simple"] and not flags["uniform"]
        assert flags["paving"] and not flags["sparsePaving"]

    def test_uniform_flags(self):
        flags = classify(uniform(2, 5))
        assert flags["uniform"] and flags["sparsePaving"] and flags["paving"]
        assert flags["minCircuitSize"] == 3

    def test_free_matroid_has_no_circuits(self):
        flags = classify(free(4))
        assert flags["minCircuitSize"] == INFINITY
        assert flags["numCircuits"] == 0
        assert flags["uniform"]


class TestIngleton:
    def test_p8_family_not_violating(self):
        for m in (p8(), p1(), p2_prime(), p2_doubleprime(), p3()):
            assert ingleton_violating(m) is None

    def test_named_violators(self):
        for m in (vamos(), ag32_prime(), f8()):
            w = ingleton_violating(m)
            assert w is not None
            lhs, rhs = ingleton_sides(m.rank_table, w.a, w.b, w.c, w.d)
            assert (lhs, rhs) == (w.lhs, w.rhs)
            assert lhs > rhs

    def test_named_non_violators(self):
        for m in (ag32(), l8(), uniform(4, 8), free(6)):
            assert ingleton_violating(m) is None

    def test_no_violators_through_seven(self, catalogue7):
        for rec in catalogue7:
            assert ingleton_violating(rec.matroid()) is None

    def test_minor_mode_agrees_with_full(self):
        from matcat.canon import certificate

        violator_certs = {certificate(vamos()).bytes, certificate(f8()).bytes}
        # a 9-element extension of the Vamos matroid by a coloop violates
        base = vamos()
        from matcat.lattice import FlatLattice, ModularCut

        child = FlatLattice(base).extend(ModularCut(0, ()))
        w = ingleton_violating(child, violators8=violator_certs)
        assert w is not None
        lhs, rhs = ingleton_sides(child.rank_table, w.a, w.b, w.c, w.d)
        assert lhs > rhs
        assert ingleton_violating(child) is not None

    def test_minor_mode_lifts_a_contraction(self):
        from matcat.canon import certificate
        from matcat.lattice import FlatLattice, ModularCut

        # the free coextension of the Vamos matroid gives it back by
        # contracting the new element 8, and by no deletion
        lat = FlatLattice(vamos().dual())
        top = lat.index[lat.matroid.full]
        child = lat.extend(ModularCut(1 << top, (top,))).dual()
        assert child.contract(8) == vamos()
        w = ingleton_violating(child, violators8={certificate(vamos()).bytes})
        assert w is not None and w.lhs > w.rhs
        assert (w.lhs, w.rhs) == ingleton_sides(child.rank_table, w.a, w.b, w.c, w.d)

    def test_minor_search_exactly_above_eight_with_certs(self):
        # with no violator certificate to match, the minor search finds
        # nothing; the flat search finds the violation
        child = _with_coloop(vamos())
        assert ingleton_violating(child, violators8=set()) is None
        assert ingleton_violating(child) is not None
        assert ingleton_violating(vamos(), violators8=set()) is not None


def _with_coloop(m: Matroid) -> Matroid:
    """m plus a coloop as element n (a modular cut of nothing but E)."""
    from matcat.lattice import FlatLattice, ModularCut

    return FlatLattice(m).extend(ModularCut(0, ()))


def _assert_own_witness(m: Matroid, w):
    assert all(x & ~m.full == 0 for x in (w.a, w.b, w.c, w.d))
    lhs, rhs = ingleton_sides(m.rank_table, w.a, w.b, w.c, w.d)
    assert (lhs, rhs) == (w.lhs, w.rhs)
    assert lhs > rhs


class TestIngletonDualSide:
    """A matroid with 2r > n is decided on its dual; the direct search on the
    matroid itself is the reference."""

    def test_agrees_with_direct_through_seven(self, catalogue7):
        for rec in catalogue7:
            m = rec.matroid()
            assert (ingleton_violating(m) is None) == (_ingleton_full(m) is None), m

    def test_agrees_with_direct_on_high_rank8(self, high_rank8):
        for m in high_rank8:
            assert 2 * m.rank > m.n
            assert (ingleton_violating(m) is None) == (_ingleton_full(m) is None), m

    def test_violators8_witnesses_are_their_own(self, catalogue8):
        # every 8-element violator is sparse paving of rank 4
        violators = []
        for rec in catalogue8:
            if rec.n != 8 or rec.rank != 4:
                continue
            m = rec.matroid()
            if not classify(m)["sparsePaving"]:
                continue
            w = ingleton_violating(m)
            if w is not None:
                _assert_own_witness(m, w)
                violators.append(m)
        assert len(violators) == 39
        for m in violators:
            assert _ingleton_full(m.dual()) is not None

    def test_violating_dual_gives_a_witness_of_m(self):
        for base in (vamos(), f8()):
            m = _with_coloop(base)
            assert (m.n, m.rank) == (9, 5)
            assert _ingleton_full(m.dual()) is not None
            _assert_own_witness(m, ingleton_violating(m))


def reference_ingleton_full(m: Matroid):
    """The Ingleton scan as a loop over flat pairs (A, B), one (C, D) grid
    per pair; the blocked scan must return the same witness."""
    table = np.asarray(m.rank_table, dtype=np.int16)
    flats, ranks, _ = m._flat_data
    fl = np.asarray(flats, dtype=np.int32)
    nf = len(fl)
    union_rank = table[np.bitwise_or.outer(fl, fl)]
    for i in range(nf):
        a = flats[i]
        ra = ranks[i]
        ua = np.bitwise_or(fl, a)
        pa = table[ua].astype(np.int32)
        for j in range(i + 1, nf):
            b = flats[j]
            u = a | b
            s = ra + ranks[j] - int(table[u])
            if s <= 0:
                continue
            p = table[np.bitwise_or(fl, u)].astype(np.int32) - pa - table[
                np.bitwise_or(fl, b)
            ].astype(np.int32)
            grid = p[:, None] + p[None, :] + union_rank
            k = int(grid.argmax())
            ci, di = divmod(k, nf)
            if int(grid[ci, di]) > -s:
                c, d = flats[ci], flats[di]
                lhs, rhs = ingleton_sides(m.rank_table, a, b, c, d)
                return IngletonWitness(a, b, c, d, lhs, rhs)
    return None


class TestBlockedScan:
    def test_same_answer_through_seven(self, catalogue7):
        for rec in catalogue7:
            m = rec.matroid()
            assert _ingleton_full(m) == reference_ingleton_full(m), m

    def test_same_answer_on_high_rank8(self, high_rank8):
        for m in high_rank8:
            assert _ingleton_full(m) == reference_ingleton_full(m), m

    def test_same_witness_on_violators(self):
        # a single-element extension of an 8-element violator; the block that
        # holds its first violating flat pair holds a later one as well
        two_in_a_block = Matroid.from_hyperplanes(9, [
            0x16, 0x19, 0x26, 0x29, 0x2A, 0x33, 0x3C, 0x43, 0x49, 0x4C, 0x55,
            0x5A, 0x61, 0x62, 0x64, 0x68, 0x83, 0x89, 0x8A, 0x8C, 0x91, 0x92,
            0x94, 0x98, 0xA5, 0xA8, 0xC1, 0xC6, 0xC8, 0xF0, 0x10F, 0x111,
            0x112, 0x114, 0x118, 0x121, 0x124, 0x128, 0x130, 0x141, 0x142,
            0x144, 0x148, 0x150, 0x160, 0x181, 0x184, 0x188, 0x190, 0x1A2,
            0x1C0,
        ])
        cases = [vamos(), f8(), _with_coloop(vamos()), _with_coloop(f8())]
        cases.append(two_in_a_block)
        for m in cases + [x.dual() for x in cases]:
            w = _ingleton_full(m)
            assert w is not None and w == reference_ingleton_full(m), m
