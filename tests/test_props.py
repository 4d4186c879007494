import random

import pytest

from matcat.core import INFINITY, Matroid, free, popcount, uniform
from matcat.named import (
    ag32,
    ag32_prime,
    f8,
    l8,
    p1,
    p2_doubleprime,
    p2_prime,
    p3,
    p8,
    vamos,
)
from matcat.props import (
    BudgetExceeded,
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
            got = sum(1 for m in matroids6 if m.n == n and classify(m).simple)
            assert got == want, n

    def test_simple_cosimple_counts(self, matroids6):
        for n, want in SIMPLE_COSIMPLE_TOTALS.items():
            got = sum(
                1
                for m in matroids6
                if m.n == n and classify(m).simple and classify(m).cosimple
            )
            assert got == want, n

    def test_simple_paving_counts(self, matroids6):
        for n, want in SIMPLE_PAVING_TOTALS.items():
            got = sum(
                1
                for m in matroids6
                if m.n == n and classify(m).simple and classify(m).paving
            )
            assert got == want, n

    def test_implication_lattice(self, matroids6):
        for m in matroids6:
            flags = classify(m)
            assert not flags.uniform or flags.sparse_paving
            assert not flags.sparse_paving or flags.paving
            if m.rank >= 2:
                assert flags.simple == (
                    flags.num_loops == 0 and flags.min_circuit_size >= 3
                )

    def test_counts_are_exact(self, fig1):
        flags = classify(fig1)
        assert flags.num_bases == 28
        assert flags.num_hyperplanes == 10
        assert flags.num_flats == 19
        assert flags.num_loops == 0 and flags.num_coloops == 0
        assert flags.simple and not flags.uniform
        assert flags.paving and not flags.sparse_paving

    def test_uniform_flags(self):
        flags = classify(uniform(2, 5))
        assert flags.uniform and flags.sparse_paving and flags.paving
        assert flags.min_circuit_size == 3

    def test_free_matroid_has_no_circuits(self):
        flags = classify(free(4))
        assert flags.min_circuit_size == INFINITY
        assert flags.num_circuits == 0
        assert flags.uniform


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
        w = ingleton_violating(child, mode="minor", violators8=violator_certs)
        assert w is not None
        lhs, rhs = ingleton_sides(child.rank_table, w.a, w.b, w.c, w.d)
        assert lhs > rhs
        assert ingleton_violating(child, mode="full") is not None

    def test_minor_mode_lifts_a_contraction(self):
        from matcat.canon import certificate
        from matcat.lattice import FlatLattice, ModularCut

        # the free coextension of the Vamos matroid gives it back by
        # contracting the new element 8, and by no deletion
        lat = FlatLattice(vamos().dual())
        top = lat.index[lat.matroid.full]
        child = lat.extend(ModularCut(1 << top, (top,))).dual()
        assert child.contract(8) == vamos()
        w = ingleton_violating(
            child, mode="minor", violators8={certificate(vamos()).bytes}
        )
        assert w is not None and w.lhs > w.rhs
        assert (w.lhs, w.rhs) == ingleton_sides(child.rank_table, w.a, w.b, w.c, w.d)

    def test_budget(self):
        # 2r = n: searched as given, and the scan passes the budget at once
        with pytest.raises(BudgetExceeded):
            ingleton_violating(uniform(3, 6), budget=1)
        # searched on its dual U(0,6), which has one flat and no cell to scan
        assert ingleton_violating(free(6), budget=1) is None

    def test_minor_mode_requires_certs(self):
        with pytest.raises(ValueError):
            ingleton_violating(vamos(), mode="minor")


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
            if not classify(m).sparse_paving:
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
            _assert_own_witness(m, ingleton_violating(m, mode="full"))
