import gc
import random

import pytest

from matcat.core import Matroid, free, popcount, uniform
from matcat.lattice import FlatLattice, antichains
from matcat.named import p8, vamos
from matcat.orderable import (
    base_orderable,
    brute_force_transversal_certs,
    cyclic_flats,
    strongly_base_orderable,
    transversal,
    transversal_matroid_independence,
)
from matcat.represent import representable

# all / base-orderable / strongly base-orderable / transversal per (n, rank)
TABLE7_CELLS = {
    (6, 2): (23, 23, 23, 22),
    (6, 3): (38, 37, 37, 37),
    (6, 4): (23, 23, 23, 23),
    (7, 3): (108, 101, 101, 92),
}


class TestBaseOrderability:
    def test_uniform_always_orderable(self):
        for m in (uniform(2, 5), uniform(3, 6), free(4)):
            assert base_orderable(m)
            assert strongly_base_orderable(m)

    def test_table7_cells_n6(self, matroids6):
        for (n, r), (total, bo, sbo, tr) in TABLE7_CELLS.items():
            if n > 6:
                continue
            sel = [m for m in matroids6 if m.n == n and m.rank == r]
            assert len(sel) == total
            assert sum(base_orderable(m) for m in sel) == bo
            assert sum(strongly_base_orderable(m) for m in sel) == sbo
            assert sum(transversal(m) is not None for m in sel) == tr

    def test_table7_cell_73(self, catalogue7):
        sel = [r.matroid() for r in catalogue7 if r.n == 7 and r.rank == 3]
        total, bo, sbo, tr = TABLE7_CELLS[(7, 3)]
        assert len(sel) == total
        assert sum(base_orderable(m) for m in sel) == bo
        assert sum(strongly_base_orderable(m) for m in sel) == sbo
        assert sum(transversal(m) is not None for m in sel) == tr

    def test_implication_chain(self, matroids6):
        for m in matroids6:
            tr = transversal(m) is not None
            sbo = strongly_base_orderable(m)
            bo = base_orderable(m)
            assert tr <= sbo <= bo

    def test_vamos_is_base_orderable(self):
        # the Vamos matroid is a classic SBO example despite non-representability
        assert base_orderable(vamos())
        assert strongly_base_orderable(vamos())


class TestTransversal:
    def test_presentations_verify(self, matroids6):
        rng = random.Random(14)
        for m in rng.sample(matroids6, 40):
            pres = transversal(m)
            if pres is None:
                continue
            assert len(pres) == m.rank
            fam = transversal_matroid_independence(m.n, pres)
            indep = 0
            for s in range(1 << m.n):
                if m.rank_table[s] == popcount(s):
                    indep |= 1 << s
            assert fam == indep

    def test_rank0_presentation(self):
        assert transversal(Matroid.from_hyperplanes(2, [])) == ()

    def test_loops_allowed(self):
        m = Matroid.from_hyperplanes(3, [0b001])
        pres = transversal(m)
        assert pres is not None
        assert all(not (s & 0b001) for s in pres)

    def test_matches_brute_force_through_five(self):
        from matcat.orderly import enumerate_matroids

        records = enumerate_matroids(5)
        for n in range(6):
            oracle = brute_force_transversal_certs(n)
            mine = {
                r.cert
                for r in records
                if r.n == n and transversal(r.matroid()) is not None
            }
            assert oracle == mine

    def test_matches_brute_force_six(self, catalogue6):
        oracle = brute_force_transversal_certs(6)
        mine = {
            r.cert
            for r in catalogue6
            if r.n == 6 and transversal(r.matroid()) is not None
        }
        assert oracle == mine
        assert len(oracle) == 96

    def test_cyclic_flats_of_uniform(self):
        m = uniform(2, 4)
        cf = cyclic_flats(m)
        assert 0 in cf and m.full in cf
        assert all(popcount(f) != 1 for f in cf)

    def test_p8_not_transversal(self):
        assert transversal(p8()) is None


@pytest.mark.parametrize(
    "search,max_rank",
    [
        (base_orderable, 6),
        (strongly_base_orderable, 6),
        (transversal, 6),
        # flat lattices of rank 4 and above on 6 elements have millions of
        # antichains
        (lambda m: sum(1 for _ in antichains(FlatLattice(m))), 3),
        (lambda m: representable(m, 3), 6),
    ],
    ids=["base_orderable", "strongly_base_orderable", "transversal",
         "antichains", "representable_gf3"],
)
def test_searches_leave_no_reference_cycles(catalogue6, search, max_rank):
    matroids = [
        rec.matroid() for rec in catalogue6 if rec.n == 6 and rec.rank <= max_rank
    ]
    gc.collect()
    gc.disable()
    try:
        for m in matroids:
            search(m)
        assert gc.collect() == 0
    finally:
        gc.enable()
