import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from examples import f8, l8, p2_doubleprime, p2_prime, p3
import matcat
from matcat import represent
from matcat.canon import certificate, minor, minor_certificate, relabel_family
from matcat.core import Matroid, bits, free, mask_of, uniform
from matcat.named import ag32, p1, p8, vamos
from matcat.represent import (
    GF,
    RepresentationMatrix,
    _representable_direct,
    excluded_minors,
    representable,
    verify_representation,
)


def nonsingular(gf, rows) -> bool:
    """True when the square list-of-lists matrix rows is invertible over gf
    (forward elimination; rows is left as it was)."""
    add, mul, neg, inv = gf.add, gf.mul, gf.neg, gf.inv
    m = list(rows)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        pivot = m[c]
        iv = inv[pivot[c]]
        for i in range(c + 1, len(m)):
            if m[i][c]:
                f = neg[mul[m[i][c]][iv]]
                m[i] = [add[x][mul[f][y]] for x, y in zip(m[i], pivot)]
    return True


def brute_force_verify(m, rep) -> bool:
    """verify_representation's answer by one elimination per r-subset."""
    r, q = m.rank, rep.q
    if len(rep.entries) != r or any(
        len(row) != m.n or not all(0 <= x < q for x in row) for row in rep.entries
    ):
        return False
    gf = GF(q)
    bases = set(m._bases)
    return all(
        nonsingular(gf, [[row[c] for c in cols] for row in rep.entries])
        == (mask_of(cols) in bases)
        for cols in itertools.combinations(range(m.n), r)
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

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_nonsingular_matches_leibniz_determinant(self, q):
        gf = GF(q)
        rng = random.Random(q)

        def det(rows):
            total = 0
            for perm in itertools.permutations(range(len(rows))):
                term = 1
                for i, j in enumerate(perm):
                    term = gf.mul[term][rows[i][j]]
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                total = gf.add[total][gf.neg[term] if inversions % 2 else term]
            return total

        for size in range(4):
            for _ in range(60):
                rows = [[rng.randrange(q) for _ in range(size)] for _ in range(size)]
                before = [row[:] for row in rows]
                assert nonsingular(gf, rows) == (det(rows) != 0)
                assert rows == before


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


@pytest.fixture(scope="module")
def searched(catalogue7):
    """Each n <= 7 class's GF(q) verdict by search, for q = 2..5."""
    return [
        {q: representable(rec.matroid(), q) is not None for q in (2, 3, 4, 5)}
        for rec in catalogue7
    ]


def direct_excluded_minors(matroids, q, verdicts):
    """excluded_minors by the direct computation: each input's own GF(q)
    verdict and those of all 2n of its single-element minors.  verdicts maps
    certificate bytes to GF(q) verdicts; a class missing from it is searched
    and added."""

    def verdict(m):
        cert = certificate(m).bytes
        if cert not in verdicts:
            verdicts[cert] = representable(m, q) is not None
        return verdicts[cert]

    return [
        m for m in matroids
        if not verdict(m) and all(verdict(minor(m, i)) for i in range(2 * m.n))
    ]


class TestExcludedMinors:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_equal_to_the_direct_computation_through_seven(self, catalogue7, searched, q):
        verdicts = {rec.cert: want[q] for rec, want in zip(catalogue7, searched)}
        sevens = [rec for rec in catalogue7 if rec.n == 7]  # not minor-closed
        for records in catalogue7, catalogue7[::-1], sevens:
            want = direct_excluded_minors([rec.matroid() for rec in records], q, verdicts)
            assert excluded_minors([rec.matroid() for rec in records], q) == want
        # the 7-element excluded minors, found with their minors outside the input
        assert len(want) == {2: 0, 3: 2, 4: 2, 5: 12}[q]

    def test_equal_to_the_direct_computation_on_eight_gf2(self, catalogue8):
        want = direct_excluded_minors([rec.matroid() for rec in catalogue8], 2, {})
        assert excluded_minors([rec.matroid() for rec in catalogue8], 2) == want
        assert len(want) == 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_an_input_not_simple_or_not_cosimple_is_never_excluded(
        self, catalogue7, catalogue8, searched, q
    ):
        # a loop, coloop, parallel or series element added to a matroid keeps
        # it GF(q)-representable, so such a non-representable input has a
        # non-representable single-element minor.  Through seven elements no
        # such input fails GF(5), so GF(5) takes the eight-element classes.
        by_cert = {rec.cert: want[q] for rec, want in zip(catalogue7, searched)}
        records = catalogue7 if q < 5 else [rec for rec in catalogue8 if rec.n == 8]
        checked = 0
        for rec in records:
            m = rec.matroid()
            if all(m.simple_cosimple()) or representable(m, q) is not None:
                continue
            checked += 1
            assert not all(
                by_cert[minor_certificate(m, i)] for i in range(2 * m.n)
            ), rec
        assert checked == {2: 145, 3: 64, 4: 14, 5: 60}[q]

    def test_minors_agree_across_an_element_orbit(self, matroids6):
        # an automorphism taking e to f maps M \ e onto M \ f and M / e onto M / f
        for m in matroids6:
            for orbit in certificate(m).element_orbits:
                for side in 0, 1:
                    certs = {minor_certificate(m, 2 * e + side) for e in orbit}
                    assert len(certs) == 1, (m, orbit, side)

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

    def test_minors_are_certified_once_across_fields(self, catalogue7, monkeypatch):
        from matcat import canon

        mats = [rec.matroid() for rec in catalogue7]
        calls = []
        certificate_for = canon.certificate_for

        def counted(n, rank, hyps, *known):
            calls.append(n)
            return certificate_for(n, rank, hyps, *known)

        monkeypatch.setattr(canon, "certificate_for", counted)
        found = {}
        for q in (2, 3, 4, 5):
            found[q] = excluded_minors(mats, q)
            # an input is certified once some field finds it simple, cosimple
            # and not representable, which is when its minors are checked, and
            # each minor slot at most once: a later field reuses the
            # certificates cached on the inputs
            labelled = sum(
                all(m.simple_cosimple()) and not all(m._verdicts.values()) for m in mats
            )
            certified = sum(
                cert is not None
                for m in mats
                for cert in getattr(m, "_minor_certificates", ())
            )
            assert len(calls) == labelled + certified
        calls.clear()
        assert excluded_minors(mats, 3, {}) == found[3]
        assert calls == []
        shape = {q: [(m.n, m.rank) for m in found[q]] for q in found}
        assert shape[2] == [(4, 2)]
        assert sorted(shape[3]) == [(5, 2), (5, 3), (7, 3), (7, 4)]
        assert sorted(shape[4]) == [(6, 2), (6, 3), (6, 4), (7, 3), (7, 4)]
        seven = {}
        for n, rank in shape[5]:
            if n == 7:
                seven[rank] = seven.get(rank, 0) + 1
        assert seven == {2: 1, 3: 5, 4: 5, 5: 1}


class TestVerdicts:
    """represent._verdict reads a field's verdict off the fields known."""

    @pytest.fixture
    def search_calls(self, monkeypatch):
        """The field of each representable call from here on."""
        calls = []
        real = represent.representable

        def counted(m, q):
            calls.append(q)
            return real(m, q)

        monkeypatch.setattr(represent, "representable", counted)
        return calls

    @pytest.mark.parametrize("order", [(2, 3, 4, 5), (5, 4, 3, 2), (4, 2, 5, 3)])
    def test_equal_to_the_search_in_any_field_order(self, catalogue7, searched, order):
        for rec, want in zip(catalogue7, searched):
            m = rec.matroid()
            assert [represent._verdict(m, q) for q in order] == [want[q] for q in order], rec

    @pytest.mark.parametrize(
        "m, order, searched",
        [
            (uniform(2, 3), (2, 3, 4, 5), [2, 3]),  # binary: GF(4) holds, GF(5) = GF(3)
            (uniform(2, 3), (5, 2, 3), [5, 2]),
            (uniform(2, 4), (4, 2), [4, 2]),
            (uniform(2, 6), (4, 2), [4]),  # not GF(4), hence not binary
            (uniform(2, 5), (3, 5, 2), [3, 5]),  # GF(3) != GF(5): not binary
            (uniform(2, 4), (3, 5, 2), [3, 5, 2]),
        ],
        ids=["u23-binary", "u23-from-gf5", "u24", "u26-gf4", "u25-gf3-gf5", "u24-gf3-gf5"],
    )
    def test_implied_fields_are_not_searched(self, search_calls, m, order, searched):
        verdicts = [represent._verdict(m, q) for q in order]
        assert search_calls == searched
        # asked again, every verdict is read off m
        assert [represent._verdict(m, q) for q in order] == verdicts
        assert search_calls == searched
        assert verdicts == [representable(m, q) is not None for q in order]

    def test_excluded_minors_search_no_binary_input_over_gf4(
        self, catalogue7, searched, search_calls
    ):
        mats = [rec.matroid() for rec in catalogue7]
        excluded_minors(mats, 2)
        search_calls.clear()
        cache = {}
        excluded_minors(mats, 4, cache)
        # an input is searched only when it is simple and cosimple, and then
        # only when it is not binary; every other search is a minor's, one per
        # class in the cache
        inputs = sum(
            all(m.simple_cosimple()) and not want[2] for m, want in zip(mats, searched)
        )
        assert len(search_calls) == inputs + len(cache) < len(mats)

    def test_excluded_minors_in_reverse_field_order(self, catalogue7, searched):
        # shared instances, fields 5, 4, 3, 2: each input reads its verdicts
        # off the fields it already knows where they settle it
        mats = [rec.matroid() for rec in catalogue7]
        found = {q: excluded_minors(mats, q) for q in (5, 4, 3, 2)}
        by_cert = {certificate(m).bytes: want for m, want in zip(mats, searched)}
        for q in found:
            assert found[q] == [
                m for m, want in zip(mats, searched)
                if not want[q]
                and all(by_cert[minor_certificate(m, i)][q] for i in range(2 * m.n))
            ]
        shape = {q: sorted((m.n, m.rank) for m in found[q]) for q in found}
        assert shape[2] == [(4, 2)]
        assert shape[3] == [(5, 2), (5, 3), (7, 3), (7, 4)]
        assert shape[4] == [(6, 2), (6, 3), (6, 4), (7, 3), (7, 4)]
        seven = {}
        for n, rank in shape[5]:
            if n == 7:
                seven[rank] = seven.get(rank, 0) + 1
        assert seven == {2: 1, 3: 5, 4: 5, 5: 1}


# sha256 over every matrix representable returns (or None) for each class
# with n <= 7 at q = 2..5 and each high_rank8 matroid at q = 2..4, in that
# order; any change to the search order or the matrices it yields shows here
MATRICES_SHA256 = "2ac9c6dd2f708d8b7013035aa801a4b7096f0bb1ac58eac99e75ad53d69daf59"


def test_returned_matrices_pinned(catalogue7, high_rank8):
    cases = [(rec.matroid(), q) for rec in catalogue7 for q in (2, 3, 4, 5)]
    cases += [(m, q) for m in high_rank8 for q in (2, 3, 4)]
    digest = hashlib.sha256()
    for m, q in cases:
        rep = representable(m, q)
        digest.update(f"{q} {m!r} {None if rep is None else rep.entries}\n".encode())
    assert len(cases) == 1932
    assert digest.hexdigest() == MATRICES_SHA256


def _flip_entry(rep, i, e):
    """rep with entry (i, e) turned from zero to 1 or from nonzero to 0."""
    rows = [list(row) for row in rep.entries]
    rows[i][e] = 0 if rows[i][e] else 1
    return RepresentationMatrix(rep.q, tuple(tuple(row) for row in rows))


# run under python -O: representable must refuse a wrong matrix there too
_OPTIMIZED_SCRIPT = """
from matcat import represent
from matcat.core import bits
from matcat.named import p8

m = p8()
good = represent._representable_direct(m, 3)
e = max(set(range(m.n)) - set(bits(min(m._bases))))
rows = [list(row) for row in good.entries]
rows[0][e] = 0 if rows[0][e] else 1
wrong = represent.RepresentationMatrix(3, tuple(tuple(row) for row in rows))
represent._representable_direct = lambda m, q: wrong
try:
    represent.representable(m, 3)
except AssertionError:
    print("refused", __debug__)
else:
    print("accepted", __debug__)
"""


class TestCheckCannotBeBypassed:
    def test_verify_rejects_each_flipped_entry(self):
        # entry (i, e) of A is the 1x1 minor deciding whether B - b_i + e is
        # a basis, so flipping it between zero and nonzero changes the bases
        m = p8()
        rep = representable(m, 3)
        assert verify_representation(m, rep)
        basis = min(m._bases)
        for e in range(m.n):
            if not (basis >> e) & 1:
                for i in range(m.rank):
                    assert not verify_representation(m, _flip_entry(rep, i, e))

    def test_verify_rejects_wrong_shape_and_values(self):
        m = p8()
        rep = representable(m, 3)
        rows = rep.entries
        for entries in (
            rows[:-1],
            rows + (rows[0],),
            tuple(row[:-1] for row in rows),
            ((3,) + rows[0][1:],) + rows[1:],
            ((-1,) + rows[0][1:],) + rows[1:],
        ):
            assert not verify_representation(m, RepresentationMatrix(3, entries))

    @pytest.mark.parametrize(
        "m,q",
        [
            (p8(), 3),  # searched as given
            (Matroid(9, 4, [h | 1 << 8 for h in p8().hyperplanes]), 3),  # a loop
            (uniform(4, 6), 5),  # searched on its dual
        ],
        ids=["direct", "loop", "dual"],
    )
    def test_representable_refuses_a_wrong_search_result(self, monkeypatch, m, q):
        def wrong_direct(mat, q):
            rep = _representable_direct(mat, q)
            e = max(set(range(mat.n)) - set(bits(min(mat._bases))))
            return _flip_entry(rep, 0, e)

        assert verify_representation(m, representable(m, q))
        monkeypatch.setattr(represent, "_representable_direct", wrong_direct)
        with pytest.raises(AssertionError):
            representable(m, q)

    def test_refusal_survives_python_optimize(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(matcat.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["refused", "False"]


def _changed_entries(rep):
    """rep with one entry x moved to x + 1 mod q, for every entry: zero to
    nonzero, nonzero to zero (from q - 1) and, for q > 2, nonzero to nonzero."""
    for i, row in enumerate(rep.entries):
        for e, x in enumerate(row):
            rows = [list(r) for r in rep.entries]
            rows[i][e] = (x + 1) % rep.q
            yield RepresentationMatrix(rep.q, tuple(tuple(r) for r in rows))


class TestVerifierAgainstBruteForce:
    """verify_representation row-reduces once and expands minors over the
    r-subsets; one elimination per r-subset is the reference."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_every_class_through_seven(self, catalogue7, q):
        rng = random.Random(q)
        accepted = 0
        for rec in catalogue7:
            m = rec.matroid()
            cases = [RepresentationMatrix(q, tuple(
                tuple(rng.randrange(q) for _ in range(m.n)) for _ in range(m.rank)
            ))]
            rep = represent._search(m, q)
            if rep is not None:
                cases += [rep, *_changed_entries(rep)]
            for x in cases:
                got = verify_representation(m, x)
                assert got == brute_force_verify(m, x), (m, x)
                accepted += got
        assert accepted > 0

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_scaled_and_changed_matrices(self, catalogue7, data):
        # scaling a column by a nonzero element or adding a multiple of one
        # row to another keeps the column matroid; a changed entry may not
        m = data.draw(st.sampled_from(catalogue7)).matroid()
        q = data.draw(st.sampled_from([2, 3, 4, 5]))
        gf = GF(q)
        rep = represent._search(m, q)
        if rep is None or not m.rank:
            rows = data.draw(st.lists(
                st.lists(st.integers(0, q - 1), min_size=m.n, max_size=m.n),
                min_size=m.rank, max_size=m.rank,
            ))
        else:
            rows = [list(row) for row in rep.entries]
            for e in range(m.n):
                s = data.draw(st.integers(1, q - 1))
                for row in rows:
                    row[e] = gf.mul[s][row[e]]
            if m.rank > 1:
                i, j = data.draw(st.permutations(range(m.rank)))[:2]
                f = data.draw(st.integers(0, q - 1))
                rows[j] = [gf.add[y][gf.mul[f][x]] for x, y in zip(rows[i], rows[j])]
            for _ in range(data.draw(st.integers(0, 2))):
                i = data.draw(st.integers(0, m.rank - 1))
                e = data.draw(st.integers(0, m.n - 1))
                rows[i][e] = data.draw(st.integers(0, q - 1))
        x = RepresentationMatrix(q, tuple(tuple(row) for row in rows))
        assert verify_representation(m, x) == brute_force_verify(m, x)

    def test_reads_nothing_of_the_search(self, monkeypatch):
        def forbidden(*args):
            raise RuntimeError("the verifier called the search's kernel")

        m = p8()
        rep = representable(m, 3)
        monkeypatch.setattr(represent, "_cofactor_terms", forbidden)
        monkeypatch.setattr(represent, "_minors_with_column", forbidden)
        assert verify_representation(m, rep)
        assert not verify_representation(m, _flip_entry(rep, 0, m.n - 1))

    def test_catches_a_sign_error_in_the_search(self, monkeypatch):
        # with one cofactor sign flipped the search finds [[1,0,1,1],[0,1,1,1]]
        # for U(2,4) over GF(3), whose last two columns are parallel; a check
        # that shared the search's expansion would repeat the error
        terms = represent._cofactor_terms

        def one_sign_flipped(r):
            by_size, cofactors = terms(r)
            cofactors = list(cofactors)
            (i, sub, odd), *rest = cofactors[0b11]
            cofactors[0b11] = ((i, sub, 1 - odd), *rest)
            return by_size, cofactors

        monkeypatch.setattr(represent, "_cofactor_terms", one_sign_flipped)
        with pytest.raises(AssertionError):
            representable(uniform(2, 4), 3)


class TestInvariance:
    """representable(m, q) is None is a property of the isomorphism class and
    of the dual pair."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relabelling(self, catalogue7, data):
        rec = data.draw(st.sampled_from(catalogue7))
        perm = data.draw(st.permutations(range(rec.n)))
        m = rec.matroid()
        moved = Matroid.from_hyperplanes(m.n, relabel_family(m.hyperplanes, perm))
        for q in (2, 3, 4, 5):
            assert (representable(moved, q) is None) == (representable(m, q) is None)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_duality(self, catalogue7, data):
        # _representable_direct searches the dual on its own side, whichever
        # side representable would pick
        m = data.draw(st.sampled_from(catalogue7)).matroid()
        for q in (2, 3, 4, 5):
            expected = representable(m, q) is None
            assert (representable(m.dual(), q) is None) == expected
            assert (_representable_direct(m.dual(), q) is None) == expected
