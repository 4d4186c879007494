import random

import pytest

from matcat.core import Matroid, free, uniform
from matcat.named import ag32, f8, l8, p1, p2_doubleprime, p2_prime, p3, p8, vamos
from matcat.represent import (
    GF,
    RepresentationMatrix,
    _representable_direct,
    excluded_minors,
    representable,
    verify_representation,
)


class TestGFTables:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_field_axioms(self, q):
        gf = GF(q)
        for a in range(q):
            assert gf.add[a][0] == a
            assert gf.mul[a][1] == a
            assert gf.add[a][gf.neg[a]] == 0
            if a:
                assert gf.mul[a][gf.inv[a]] == 1
            for b in range(q):
                assert gf.add[a][b] == gf.add[b][a]
                assert gf.mul[a][b] == gf.mul[b][a]
        # distributivity
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    assert gf.mul[a][gf.add[b][c]] == gf.add[gf.mul[a][b]][gf.mul[a][c]]

    def test_gf4_has_characteristic_two(self):
        gf = GF(4)
        assert all(gf.add[a][a] == 0 for a in range(4))

    def test_unsupported_field(self):
        with pytest.raises(ValueError):
            GF(7)


class TestRepresentable:
    def test_u24_binary_excluded(self):
        assert representable(uniform(2, 4), 2) is None
        for q in (3, 4, 5):
            assert representable(uniform(2, 4), q) is not None

    def test_p8_is_ternary(self):
        rep = representable(p8(), 3)
        assert rep is not None
        assert verify_representation(p8(), rep)

    def test_p8_relaxations_unrepresentable(self):
        for m in (p1(), p2_prime(), p2_doubleprime(), p3()):
            for q in (2, 3, 4, 5):
                assert representable(m, q) is None

    def test_vamos_and_f8_unrepresentable(self):
        for m in (vamos(), f8()):
            for q in (2, 3, 4, 5):
                assert representable(m, q) is None

    def test_ag32_binary(self):
        assert representable(ag32(), 2) is not None
        assert representable(l8(), 5) is not None

    def test_returned_matrices_reproduce_full_rank_function(self, matroids6):
        rng = random.Random(8)
        for m in rng.sample(matroids6, 25):
            for q in (2, 3):
                rep = representable(m, q)
                if rep is not None:
                    assert verify_representation(m, rep)

    def test_loops_become_zero_columns(self):
        m = Matroid.from_hyperplanes(3, [0b001])  # loop 0, coloops 1 and 2
        rep = representable(m, 2)
        assert rep is not None
        assert all(row[0] == 0 for row in rep.entries)
        assert verify_representation(m, rep)

    def test_representable_implies_no_ingleton_witness(self, matroids6):
        from matcat.props import ingleton_violating

        rng = random.Random(21)
        for m in rng.sample(matroids6, 20):
            if representable(m, 2) or representable(m, 3):
                assert ingleton_violating(m) is None

    def test_rank_zero(self):
        rep = representable(Matroid.from_hyperplanes(3, []), 2)
        assert rep is not None and rep.entries == ()


def _check_against_direct(m, q):
    rep = representable(m, q)
    assert (rep is None) == (_representable_direct(m, q) is None), (m, q)
    if rep is not None:
        assert len(rep.entries) == m.rank
        assert verify_representation(m, rep)


class TestDualSide:
    """A loopless matroid with 2r > n is searched on its dual; the direct
    search on the matroid itself is the reference."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_high_rank_through_seven(self, catalogue7, q):
        for rec in catalogue7:
            m = rec.matroid()
            if 2 * m.rank > m.n:
                _check_against_direct(m, q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_loops_and_coloops_through_seven(self, catalogue7, q):
        seen = 0
        for rec in catalogue7:
            m = rec.matroid()
            if m.loops() and m.coloops():
                _check_against_direct(m, q)
                seen += 1
        assert seen > 0

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_high_rank8(self, high_rank8, q):
        for m in high_rank8:
            _check_against_direct(m, q)

    def test_free_matroid_is_the_identity(self):
        for n in range(1, 8):
            rep = representable(free(n), 2)
            assert rep.entries == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n)
            )

    def test_uniform_corank_one_plus_loop(self):
        # U(n-1, n) with a loop as element n: the loop is stripped, and the
        # rest is searched on its dual U(1, n)
        for n in range(2, 8):
            u = uniform(n - 1, n)
            m = Matroid(n + 1, n - 1, [h | 1 << n for h in u.hyperplanes])
            assert m.loops() == 1 << n
            for q in (2, 5):
                rep = representable(m, q)
                assert rep is not None and len(rep.entries) == n - 1
                assert all(row[n] == 0 for row in rep.entries)
                assert verify_representation(m, rep)


class TestExcludedMinors:
    def test_binary_excluded_minor_through_six(self, matroids6):
        found = excluded_minors(matroids6, 2)
        assert len(found) == 1
        from matcat.canon import is_isomorphic

        assert is_isomorphic(found[0], uniform(2, 4))

    def test_ternary_excluded_minors_within_six(self, matroids6):
        # three of the four ternary excluded minors live on <= 6 elements:
        # U_{2,5}, U_{3,5}, and the Fano plane F_7 is on 7 (not here);
        # its dual likewise, so expect exactly the two uniform ones
        found = excluded_minors(matroids6, 3)
        assert sorted((m.n, m.rank) for m in found) == [(5, 2), (5, 3)]
