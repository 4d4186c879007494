import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from matcat.canon import certificate, relabel_family
from matcat.core import Matroid, bits, free, uniform
from matcat.named import p8, vamos
from matcat.orderable import (
    _contains_tables,
    _matchable_extend,
    base_orderable,
    cyclic_flats,
    strongly_base_orderable,
    transversal,
)
from matcat.represent import representable

# all / base-orderable / strongly base-orderable / transversal per (n, rank)
TABLE7_CELLS = {
    (6, 2): (23, 23, 23, 22),
    (6, 3): (38, 37, 37, 37),
    (6, 4): (23, 23, 23, 23),
    (7, 3): (108, 101, 101, 92),
}


def transversal_matroid_independence(n: int, sets) -> int:
    """Matchable-subset bitset of the transversal system given by sets."""
    contains = _contains_tables(n)
    matchable = 1
    for a in sets:
        matchable = _matchable_extend(matchable, a, contains)
    return matchable


def brute_force_transversal_certs(n: int, max_sets: int | None = None):
    """Certificates of every transversal matroid on n elements.

    Enumerates presentations as multisets of nonempty subsets (up to
    max_sets of them, default n); independence-family deduplication keeps
    the certificate workload tiny.  Exponential; intended for n <= 6.
    """
    limit = n if max_sets is None else max_sets
    contains = _contains_tables(n)
    families = {1}  # rank-0 empty presentation
    frontier = {1}
    for _ in range(limit):
        new = set()
        for matchable in frontier:
            for a in range(1, 1 << n):
                nxt = _matchable_extend(matchable, a, contains)
                if nxt not in families:
                    families.add(nxt)
                    new.add(nxt)
        frontier = new
        if not frontier:
            break
    certs = set()
    for fam in families:
        table = [0] * (1 << n)
        for s in range(1 << n):
            table[s] = max(
                t.bit_count()
                for t in _submask_iter(s)
                if (fam >> t) & 1
            )
        certs.add(certificate(Matroid.from_rank_table(n, table)).bytes)
    return certs


def _submask_iter(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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


def _orderable_by_definition(m, strong):
    """For every ordered pair of bases (A, B), some bijection σ: A → B makes
    (A − X) ∪ σ(X) and (B − σ(X)) ∪ X bases for every X ⊆ A (strong) or
    every singleton X; nothing about A ∩ B or A − B is assumed."""
    bases = set(m._bases)
    for a_mask, b_mask in itertools.product(m._bases, repeat=2):
        a = list(bits(a_mask))
        sizes = range(len(a) + 1) if strong else (1,)
        xs = [x for k in sizes for x in itertools.combinations(range(len(a)), k)]
        if not any(
            all(
                (a_mask & ~_mask(a, x)) | _mask(image, x) in bases
                and (b_mask & ~_mask(image, x)) | _mask(a, x) in bases
                for x in xs
            )
            for image in itertools.permutations(bits(b_mask))
        ):
            return False
    return True


def _mask(elems, idxs):
    return sum(1 << elems[i] for i in idxs)


class TestAgainstTheDefinition:
    def test_every_class_through_six(self, matroids6):
        for m in matroids6:
            assert base_orderable(m) == _orderable_by_definition(m, False), m
            assert strongly_base_orderable(m) == _orderable_by_definition(m, True), m

    def test_rank4_on_eight(self, catalogue8):
        # the only shape here whose basis pairs reach |A − B| = 4, where the
        # strong search leaves the matching for the subset search
        sel = [rec.matroid() for rec in catalogue8 if rec.n == 8 and rec.rank == 4]
        picks = [sel[i] for i in BO_NOT_SBO_84]
        picks += random.Random(18).sample(sel, 8) + [vamos()]
        for i, m in enumerate(picks):
            want = (_orderable_by_definition(m, False), _orderable_by_definition(m, True))
            assert (base_orderable(m), strongly_base_orderable(m)) == want, m
            if i < len(BO_NOT_SBO_84):
                assert want == (True, False)


# positions, in catalogue order, of four of the 33 classes in the (8,4) cell
# that are base-orderable but not strongly base-orderable
BO_NOT_SBO_84 = (24, 309, 596, 748)

# sha256 over (base_orderable, strongly_base_orderable) of every class with
# n <= 7 and each high_rank8 matroid, in that order, computed by searches
# over whole basis pairs rather than their difference
ORDERABILITY_SHA256 = "20cdca69038db7237d227368a1bb0578189a78e043f3de715b58fc6bbbc4f980"


def test_answers_pinned(catalogue7, high_rank8):
    mats = [rec.matroid() for rec in catalogue7] + high_rank8
    digest = hashlib.sha256()
    for m in mats:
        digest.update(f"{m!r} {base_orderable(m)} {strongly_base_orderable(m)}\n".encode())
    assert len(mats) == 486
    assert digest.hexdigest() == ORDERABILITY_SHA256


class TestInvariance:
    """Both flags belong to the isomorphism class and to the dual pair."""

    @staticmethod
    def flags(m):
        return base_orderable(m), strongly_base_orderable(m)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relabelling(self, catalogue7, data):
        rec = data.draw(st.sampled_from(catalogue7))
        perm = data.draw(st.permutations(range(rec.n)))
        m = rec.matroid()
        moved = Matroid.from_hyperplanes(m.n, relabel_family(m.hyperplanes, perm))
        assert self.flags(moved) == self.flags(m)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_duality(self, catalogue7, data):
        m = data.draw(st.sampled_from(catalogue7)).matroid()
        assert self.flags(m.dual()) == self.flags(m)


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
                if m.rank_table[s] == s.bit_count():
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
        assert all(f.bit_count() != 1 for f in cf)

    def test_p8_not_transversal(self):
        assert transversal(p8()) is None


@pytest.mark.parametrize(
    "search",
    [base_orderable, strongly_base_orderable, transversal, lambda m: representable(m, 3)],
    ids=["base_orderable", "strongly_base_orderable", "transversal",
         "representable_gf3"],
)
def test_searches_leave_no_reference_cycles(catalogue6, search):
    matroids = [rec.matroid() for rec in catalogue6 if rec.n == 6]
    gc.collect()
    gc.disable()
    try:
        for m in matroids:
            search(m)
        assert gc.collect() == 0
    finally:
        gc.enable()
