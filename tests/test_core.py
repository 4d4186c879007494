import hashlib
import itertools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from matcat.canon import certificate_for, relabel_family
from matcat.core import (
    INFINITY,
    MAX_GROUND,
    AxiomViolation,
    Matroid,
    NotCircuitHyperplane,
    _closures_and_ranks,
    bits,
    free,
    mask_of,
    read_checked,
    uniform,
    write_checked,
)
from matcat.named import p8, vamos
from matcat.orderly import brute_force_enumerate, extend_all
from matcat.props import classify


def brute_rank_from_bases(n, bases):
    """Independent oracle: r(A) = max |A & B| over bases."""

    def r(a):
        return max((a & b).bit_count() for b in bases)

    return [r(a) for a in range(1 << n)]


def reference_from_hyperplanes(n, hyps):
    """Matroid.from_hyperplanes with weak circuit elimination checked as the
    axiom reads: for every pair h1, h2 and every element e outside both, some
    hyperplane contains (h1 & h2) + e."""
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
    for h1, h2 in itertools.combinations(hyps, 2):
        meet = h1 & h2
        for e in bits(full & ~(h1 | h2)):
            need = meet | (1 << e)
            if not any(h3 & need == need for h3 in hyps):
                raise AxiomViolation(
                    f"no hyperplane covers ({h1:#x} & {h2:#x}) + element {e}"
                )
    table = _closures_and_ranks(n, hyps)[1]
    rank = table[full]
    bad = [h for h in hyps if table[h] != rank - 1]
    if bad:
        raise AxiomViolation(f"family member {bad[0]:#x} is not at corank 1")
    return Matroid(n, rank, hyps)


def axiom_outcome(build, n, hyps):
    """The matroid built, or the message of the AxiomViolation raised."""
    try:
        return build(n, hyps)
    except AxiomViolation as exc:
        return f"AxiomViolation: {exc}"


def assert_agrees_with_reference(n, hyps):
    assert axiom_outcome(Matroid.from_hyperplanes, n, hyps) == axiom_outcome(
        reference_from_hyperplanes, n, hyps
    ), (n, hyps)


class TestAxiomCheckAgainstReference:
    """from_hyperplanes tests weak elimination through the union of the
    hyperplanes on each meet; the reference tests it element by element."""

    def test_every_oracle_antichain(self, monkeypatch):
        families = []
        build = Matroid.from_hyperplanes

        def record(n, hyps):
            hyps = list(hyps)
            families.append((n, hyps))
            return build(n, hyps)

        monkeypatch.setattr(Matroid, "from_hyperplanes", staticmethod(record))
        for n in range(6):
            brute_force_enumerate(n)
        monkeypatch.undo()
        assert len(families) > 7000
        outcomes = set()
        for n, hyps in families:
            assert_agrees_with_reference(n, hyps)
            outcomes.add(type(axiom_outcome(Matroid.from_hyperplanes, n, hyps)))
        assert outcomes == {Matroid, str}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_families(self, data):
        n = data.draw(st.integers(0, 7))
        hyps = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
        if data.draw(st.booleans()):
            # the maximal members, an antichain
            hyps = [h for h in hyps if not any(h != g and h & g == h for g in hyps)]
        assert_agrees_with_reference(n, hyps)

    def test_catalogue_families_with_one_hyperplane_dropped(self, catalogue7):
        for rec in catalogue7:
            hyps = rec.matroid().hyperplanes
            assert_agrees_with_reference(rec.n, hyps)
            for i in range(len(hyps)):
                assert_agrees_with_reference(rec.n, hyps[:i] + hyps[i + 1:])


class TestCatalogueInvariants:
    """Relabelling, duality and minors on random classes with n <= 7."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_certificate_invariant_under_relabelling(self, catalogue7, data):
        rec = data.draw(st.sampled_from(catalogue7))
        perm = data.draw(st.permutations(range(rec.n)))
        m = rec.matroid()
        moved = Matroid.from_hyperplanes(m.n, relabel_family(m.hyperplanes, perm))
        assert certificate_for(moved.n, moved.rank, moved.hyperplanes).bytes == rec.cert

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_contraction_is_dual_deletion(self, catalogue7, data):
        m = data.draw(st.sampled_from([r for r in catalogue7 if r.n >= 1])).matroid()
        e = data.draw(st.integers(0, m.n - 1))
        assert m.contract(e) == m.dual().delete(e).dual()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dual_involution(self, catalogue7, data):
        m = data.draw(st.sampled_from(catalogue7)).matroid()
        assert m.dual().dual() == m


class TestFromHyperplanes:
    def test_figure_matroid_builds_at_rank_3(self, fig1):
        assert fig1.n == 7
        assert fig1.rank == 3
        assert len(fig1.hyperplanes) == 10

    def test_empty_family_is_rank_zero_all_loops(self):
        m = Matroid.from_hyperplanes(3, [])
        assert m.rank == 0
        assert m.loops() == 0b111

    def test_all_two_subsets_of_four_is_the_free_truncation(self):
        # six 2-sets as hyperplanes determine rank 3 (U_{3,4}), where every
        # 2-set is a flat; U_{2,4} has the four singletons instead
        m = Matroid.from_hyperplanes(
            4, [mask_of(c) for c in itertools.combinations(range(4), 2)]
        )
        assert m.rank == 3
        assert m == uniform(3, 4)
        u24 = Matroid.from_hyperplanes(4, [0b0001, 0b0010, 0b0100, 0b1000])
        assert u24 == uniform(2, 4)

    def test_rejects_non_antichain(self):
        with pytest.raises(AxiomViolation):
            Matroid.from_hyperplanes(3, [0b001, 0b011])

    def test_rejects_full_ground_set(self):
        with pytest.raises(AxiomViolation):
            Matroid.from_hyperplanes(3, [0b111])

    def test_rejects_weak_elimination_failure(self):
        # {0} and {1}: element 2 outside both, no hyperplane covers {2}
        with pytest.raises(AxiomViolation):
            Matroid.from_hyperplanes(3, [0b001, 0b010])

    def test_family_01_12_on_three_elements_is_a_valid_matroid(self):
        # loop at 1 plus two coloops; the hyperplane axioms hold vacuously
        m = Matroid.from_hyperplanes(3, [0b011, 0b110])
        assert m.rank == 2
        assert m.loops() == 0b010
        assert Matroid.from_hyperplanes(m.n, m.hyperplanes) == m


class TestFlatsAndRank:
    def test_figure_matroid_has_19_flats(self, fig1):
        flats = fig1.flats()
        assert flats.count() == 19
        assert [len(level) for level in flats.levels] == [1, 7, 10, 1]
        assert flats.levels[2] == fig1.hyperplanes

    def test_rank0_single_flat(self):
        m = Matroid.from_hyperplanes(4, [])
        assert m.flats().count() == 1

    def test_u24_has_six_flats(self):
        assert uniform(2, 4).flats().count() == 6

    def test_figure_rank_queries(self, fig1):
        assert fig1.rank_of(mask_of((0, 1))) == 2
        assert fig1.rank_of(0) == 0
        assert fig1.rank_of(mask_of((2, 3, 5))) == 2

    def test_figure_closures(self, fig1):
        assert fig1.closure(mask_of((2, 3))) == mask_of((2, 3, 5, 6))
        for level in fig1.flats().levels:
            for f in level:
                assert fig1.closure(f) == f
        assert uniform(2, 4).closure(0b0011) == 0b1111

    def test_closures_and_flats_match_the_definitions(self, catalogue7):
        # every class on up to 7 elements, and the 9-element inputs of the
        # pinned CLI outputs: U(3,9) and two single-element extensions of V8
        mats = [rec.matroid() for rec in catalogue7]
        mats += [uniform(3, 9)] + [rec.matroid() for rec in extend_all(vamos())[:2]]
        for m in mats:
            table = m.rank_table
            fixed = []
            for x in range(1 << m.n):
                spanned = mask_of(
                    e for e in range(m.n) if table[x | (1 << e)] == table[x]
                )
                assert m.closure(x) == x | spanned
                if spanned == x:
                    fixed.append(x)
            flats, ranks, index = m._flat_data
            assert flats == sorted(fixed, key=lambda f: (table[f], f))
            assert ranks == [table[f] for f in flats]
            assert index == {f: i for i, f in enumerate(flats)}
            assert Matroid.from_rank_table(m.n, table) == m

    def test_intersection_closed(self, fig1):
        all_flats = [f for level in fig1.flats().levels for f in level]
        fs = set(all_flats)
        for a, b in itertools.combinations(all_flats, 2):
            assert a & b in fs

    def test_uniform_rank_formula(self):
        for r, n in [(0, 3), (1, 4), (2, 5), (3, 5), (5, 5)]:
            m = uniform(r, n)
            for a in range(1 << n):
                assert m.rank_of(a) == min(r, a.bit_count())


class TestCircuitsBasesDual:
    def test_figure_has_28_bases(self, fig1):
        assert len(fig1.bases()) == 28

    def test_u24_bases_and_circuits(self):
        m = uniform(2, 4)
        assert len(m.bases()) == 6
        assert sorted(m.circuits()) == sorted(
            mask_of(c) for c in itertools.combinations(range(4), 3)
        )

    def test_rank0_on_two(self):
        m = Matroid.from_hyperplanes(2, [])
        assert m.circuits() == [0b01, 0b10]
        assert m.bases() == [0]

    def test_dual_involution(self, matroids6):
        for m in matroids6:
            d = m.dual()
            assert d.rank == m.n - m.rank
            assert d.dual() == m

    def test_dual_is_built_once(self, fig1):
        m = Matroid(fig1.n, fig1.rank, fig1.hyperplanes)
        assert m.dual() is m.dual()
        assert m.dual().dual() == m

    def test_dual_rank_function(self, matroids6):
        rng = random.Random(7)
        for m in rng.sample(matroids6, 40):
            d = m.dual()
            for a in range(1 << m.n):
                comp = m.full & ~a
                assert d.rank_of(a) == a.bit_count() + m.rank_of(comp) - m.rank

    def test_dual_of_rank0_is_free(self):
        assert Matroid.from_hyperplanes(4, []).dual() == free(4)

    def test_sparse_paving_dual_circuit_hyperplanes_complement(self):
        m = p8()
        d = m.dual()
        want = sorted(m.full & ~ch for ch in m.circuit_hyperplanes())
        assert sorted(d.circuit_hyperplanes()) == want


def _squeeze(n, e):
    """Each mask of M minus e, paired with the same set in M's labels."""
    low = (1 << e) - 1
    for x in range(1 << (n - 1)):
        yield x, (x & low) | ((x & ~low) << 1)


def reference_minor(m, e, contract=False):
    """M delete e, or M contract e, by the loop over _squeeze."""
    table = m.rank_table
    add = (1 << e) if contract else 0
    new = [0] * (1 << (m.n - 1))
    for x, lifted in _squeeze(m.n, e):
        new[x] = table[lifted | add] - table[add]
    return Matroid.from_rank_table(m.n - 1, new)


def reference_simplify(m):
    """The minor on the least element of each parallel class, lifting each
    of its masks bit by bit."""
    reps = sorted((c & -c).bit_length() - 1 for c in m.parallel_classes())
    if len(reps) == m.n:
        return m
    table = m.rank_table
    new = [0] * (1 << len(reps))
    for x in range(1 << len(reps)):
        lifted = 0
        for i in bits(x):
            lifted |= 1 << reps[i]
        new[x] = table[lifted]
    return Matroid.from_rank_table(len(reps), new)


class TestMinors:
    def test_delete_uniform(self):
        assert uniform(2, 4).delete(3) == uniform(2, 3)

    def test_minor_keeps_its_rank_table(self):
        d = p8().delete(0)
        table = d.rank_table
        assert "_subset_tables" not in vars(d)
        assert table == _closures_and_ranks(d.n, d.hyperplanes)[1]

    def test_contract_uniform(self):
        assert uniform(2, 4).contract(0) == uniform(1, 3)

    def test_delete_contract_duality(self, matroids6):
        rng = random.Random(11)
        for m in rng.sample([x for x in matroids6 if x.n >= 1], 40):
            e = rng.randrange(m.n)
            assert m.delete(e).dual() == m.dual().contract(e)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_delete_and_contract_commute(self, catalogue7, seed):
        # M\e/f == M/f\e; deleting an element moves the labels above it down
        rng = random.Random(seed)
        for rec in rng.sample([r for r in catalogue7 if r.n >= 2], 40):
            m = rec.matroid()
            e, f = rng.sample(range(m.n), 2)
            deleted_first = m.delete(e).contract(f - (f > e))
            assert deleted_first == m.contract(f).delete(e - (e > f))

    def test_restrict_matches_deleting_one_element_at_a_time(self, catalogue7):
        # the reference deletes the dropped elements from the highest down,
        # with reference_minor; its chain for keep ends with the chain for
        # keep plus the lowest dropped element, then one more deletion
        for rec in catalogue7:
            m = rec.matroid()
            chained = {m.full: m}
            for keep in range(m.full, -1, -1):
                if keep != m.full:
                    low = m.full & ~keep & -(m.full & ~keep)
                    e = low.bit_length() - 1
                    chained[keep] = reference_minor(chained[keep | low], e)
                assert m.restrict(keep) == chained[keep]
            assert m.restrict(m.full) is m and m.restrict(-1) is m

    def test_rank_table_against_basis_oracle(self, matroids6):
        rng = random.Random(3)
        for m in rng.sample(matroids6, 30):
            if m.rank == 0:
                continue
            oracle = brute_rank_from_bases(m.n, m.bases())
            assert list(m.rank_table) == oracle


class TestOneMinorPath:
    """delete, contract and simplify read restrict's lift table; the
    references are the separate loops they replaced."""

    def test_every_element_through_seven(self, catalogue7):
        rng = random.Random(20)
        for rec in catalogue7:
            # and a relabelled copy: catalogue labellings keep each parallel class
            # contiguous
            perm = rng.sample(range(rec.n), rec.n)
            relabelled = Matroid(rec.n, rec.rank, relabel_family(rec.hyperplanes, perm))
            for m in rec.matroid(), relabelled:
                for e in range(m.n):
                    assert m.delete(e) == reference_minor(m, e), (m, e)
                    assert m.contract(e) == reference_minor(m, e, contract=True), (m, e)
                assert m.simplify() == reference_simplify(m), m

    def test_out_of_range_element(self):
        for e in (-1, 4):
            for op in (uniform(2, 4).delete, uniform(2, 4).contract):
                with pytest.raises(ValueError, match="out of range"):
                    op(e)


class TestLoopsParallelSimplify:
    def test_single_loop(self):
        m = Matroid.from_hyperplanes(1, [])
        assert m.loops() == 0b1

    def test_simplify_fixpoint(self, fig1):
        assert fig1.simplify() is fig1

    def test_simplify_builds_new_only_when_not_simple(self, matroids6):
        for m in matroids6:
            s = m.simplify()
            assert (s is m) == classify(m)["simple"]

    def test_simplify_collapses(self):
        # parallel pair {0,1}, coloop 2, loop 3
        table = []
        for a in range(16):
            table.append((1 if a & 0b011 else 0) + (1 if a & 0b100 else 0))
        m = Matroid.from_rank_table(4, table)
        s = m.simplify()
        assert s.n == 2 and s.rank == 2
        assert s == free(2)

    def test_coloops(self):
        assert free(3).coloops() == 0b111
        assert uniform(1, 2).coloops() == 0

    def test_simple_cosimple_against_the_rank_table(self, catalogue7):
        # simple: every set X of at most two elements has r(X) = |X|;
        # cosimple: the dual's has, that is r(E - X) = r(E)
        for rec in catalogue7:
            m = rec.matroid()
            table = m.rank_table
            small = [mask_of((e, f)) for f in range(m.n) for e in range(f + 1)]
            want = (
                all(table[x] == x.bit_count() for x in small),
                all(table[m.full & ~x] == m.rank for x in small),
            )
            assert m.simple_cosimple() == want, rec
            assert m.dual().simple_cosimple() == want[::-1], rec


class TestRelaxTruncate:
    def test_relax_adds_one_basis(self):
        m = p8()
        before = len(m.bases())
        r = m.relax(m.circuit_hyperplanes()[0])
        assert len(r.bases()) == before + 1
        assert r.rank == m.rank and r.n == m.n

    def test_relax_rejects_non_circuit_hyperplane(self):
        with pytest.raises(NotCircuitHyperplane):
            uniform(2, 4).relax(0b0001)


def oracle_connectivity(m):
    """Independent partition-scan oracle for Tutte connectivity."""
    best = None
    for size in range(1, m.n):
        for xs in itertools.combinations(range(m.n), size):
            x = mask_of(xs)
            lam = m.rank_of(x) + m.rank_of(m.full & ~x) - m.rank
            k = lam + 1
            if min(size, m.n - size) >= k and (best is None or k < best):
                best = k
    return INFINITY if best is None else best


class TestConnectivityPolynomial:
    def test_connectivity_against_oracle(self, matroids6):
        rng = random.Random(13)
        for m in rng.sample(matroids6, 40):
            if m.n == 0:
                continue
            assert m.connectivity() == oracle_connectivity(m)

    def test_loop_gives_connectivity_one(self):
        m = Matroid.from_rank_table(3, [0, 0, 1, 1, 1, 1, 2, 2])
        assert m.loops()
        assert m.connectivity() == 1

    def test_connectivity_self_dual(self, matroids6):
        rng = random.Random(17)
        for m in rng.sample([x for x in matroids6 if x.n >= 2], 30):
            assert m.connectivity() == m.dual().connectivity()

    def test_rank_polynomial_small(self):
        assert free(1).rank_polynomial() == [[1], [1]]  # x + 1
        loop = Matroid.from_hyperplanes(1, [])
        assert loop.rank_polynomial() == [[1, 1]]  # 1 + y

    def test_rank_polynomial_duality_and_total(self, matroids6):
        rng = random.Random(19)
        for m in rng.sample(matroids6, 30):
            rp = m.rank_polynomial()
            rd = m.dual().rank_polynomial()
            for i in range(len(rp)):
                for j in range(len(rp[0])):
                    assert rp[i][j] == rd[j][i]
            assert sum(sum(row) for row in rp) == 1 << m.n


class TestValidate:
    # a matroid is valid when the hyperplane-axiom check rebuilds it
    def test_catalogue_validates(self, matroids6):
        for m in matroids6:
            assert Matroid.from_hyperplanes(m.n, m.hyperplanes) == m

    def test_figure_validates(self, fig1):
        assert Matroid.from_hyperplanes(fig1.n, fig1.hyperplanes) == fig1

    def test_detects_a_record_that_is_no_matroid(self):
        # {0} and {1} on three elements: no hyperplane covers {2}
        bad = Matroid(3, 2, (0b001, 0b010))
        with pytest.raises(AxiomViolation):
            Matroid.from_hyperplanes(bad.n, bad.hyperplanes)
        # a valid family with the wrong rank: U(0,2) is rebuilt, not U(2,2)
        bad = Matroid(2, 2, ())
        assert Matroid.from_hyperplanes(bad.n, bad.hyperplanes) != bad


class TestCheckedFile:
    def test_footer_over_every_batch(self, tmp_path):
        # more lines than one write batch holds
        path = tmp_path / "f.txt"
        lines = [f"{i} x" for i in range(10000)]
        write_checked(str(path), "#h v1", iter(lines))
        body = "\n".join(["#h v1", *lines, ""])
        assert path.read_text() == body + f"#sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"
        assert list(tmp_path.iterdir()) == [path]
        assert read_checked(str(path), "#h v1", list) == list(enumerate(lines, start=2))
        # the rename would replace a pipe or a device, so they are refused
        os.mkfifo(tmp_path / "pipe")
        with pytest.raises(FileExistsError):
            write_checked(str(tmp_path / "pipe"), "#h v1", lines)
        assert (tmp_path / "pipe").is_fifo()
