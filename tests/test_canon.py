import gc
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from examples import f8
from groups import group_order
from matcat.canon import (
    _compose,
    _equitable_refine,
    _invert,
    _orbit_closure,
    _orbit_partition,
    _order_down_base,
    canonical_family,
    certificate,
    certificate_for,
    distinguished_element,
    element_has_minimal_signature,
    is_isomorphic,
    minor,
    minor_certificate,
    orbit_minima,
    relabel_family,
    relabel_mask,
)
from matcat.core import EmptyGroundSet, Matroid, mask_of, uniform
from matcat.errors import BudgetExceeded
from matcat.lattice import FlatLattice
from matcat.named import ag32_prime, p8
from matcat.paving import collect_iset_orbits, johnson_graph


def random_permutation(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def permuted(m, perm):
    return Matroid(m.n, m.rank, relabel_family(m.hyperplanes, perm))


def transversal(n, point, gens) -> dict:
    """Orbit of point under gens: each image y -> a group element sending
    point to y, found by search from the identity."""
    found = {point: tuple(range(n))}
    queue = [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in found:
                found[y] = _compose(g, found[x])
                queue.append(y)
    return found


def brute_aut_order(m):
    count = 0
    fam = tuple(sorted(m.hyperplanes))
    for p in itertools.permutations(range(m.n)):
        if relabel_family(fam, p) == fam:
            count += 1
    return count


class TestCertificate:
    def test_permutation_invariance_fuzz(self, fig1):
        rng = random.Random(42)
        want = certificate(fig1).bytes
        for _ in range(100):
            p = random_permutation(fig1.n, rng)
            assert certificate(permuted(fig1, p)).bytes == want

    def test_u24_symmetry(self):
        cert = certificate(uniform(2, 4))
        assert cert.aut_order == 24
        assert cert.element_orbits == ((0, 1, 2, 3),)

    def test_prefix_distinguishes_shape(self):
        c1 = certificate_for(3, 0, ())
        c2 = certificate_for(4, 0, ())
        assert c1.bytes != c2.bytes
        assert c1.bytes[:2] == bytes([3, 0])

    def test_bytes_layout(self, fig1):
        cert = certificate(fig1)
        assert cert.bytes[0] == 7 and cert.bytes[1] == 3
        assert len(cert.bytes) == 2 + 2 * len(fig1.hyperplanes)
        masks = [
            int.from_bytes(cert.bytes[i : i + 2], "big")
            for i in range(2, len(cert.bytes), 2)
        ]
        assert masks == sorted(masks)

    def test_aut_order_matches_brute_force_n6(self, matroids6):
        for m in matroids6:
            assert certificate(m).aut_order == brute_aut_order(m)

    def test_orbit_soundness(self, matroids6):
        rng = random.Random(23)
        for m in rng.sample(matroids6, 30):
            cert = certificate(m)
            fam = tuple(sorted(m.hyperplanes))
            for orbit in cert.element_orbits:
                # an automorphism carries each orbit mate onto the next
                for a, b in zip(orbit, orbit[1:]):
                    g = transversal(m.n, a, cert.generators).get(b)
                    assert g is not None and g[a] == b
                    assert relabel_family(fam, g) == fam

    def test_orbits_partition_under_relabeling(self, fig1):
        rng = random.Random(4)
        cert = certificate(fig1)
        ids = orbit_minima(fig1.n, cert.generators)
        for _ in range(20):
            p = random_permutation(fig1.n, rng)
            other = certificate(permuted(fig1, p))
            other_ids = orbit_minima(fig1.n, other.generators)
            for e in range(fig1.n):
                for f in range(fig1.n):
                    same = ids[e] == ids[f]
                    assert same == (other_ids[p[e]] == other_ids[p[f]])


class TestIsomorphism:
    def test_relabeling_is_isomorphic(self, matroids6):
        rng = random.Random(31)
        for m in rng.sample(matroids6, 30):
            p = random_permutation(m.n, rng)
            assert is_isomorphic(m, permuted(m, p))

    def test_different_sizes_differ(self):
        base = uniform(2, 4)
        extended = Matroid.from_hyperplanes(
            5, [0b00011, 0b00100, 0b01000, 0b10000]
        )  # U24 plus an element parallel to 0
        assert not is_isomorphic(base, extended)

    def test_f8_not_ag32_prime(self):
        assert not is_isomorphic(f8(), ag32_prime())

    def test_certificates_distinct_on_catalogue(self, catalogue6):
        certs = [r.cert for r in catalogue6]
        assert len(certs) == len(set(certs))


class TestDistinguishedElement:
    def test_single_orbit_any_element(self):
        assert distinguished_element(uniform(2, 4)) in range(4)

    def test_empty_ground_raises(self):
        with pytest.raises(EmptyGroundSet):
            distinguished_element(Matroid.from_hyperplanes(0, []))

    def test_orbit_stability_under_relabeling(self):
        # one loop, three coloops: the distinguished orbit is preserved
        m = Matroid.from_hyperplanes(4, [0b1110])
        rng = random.Random(9)
        cert = certificate(m)
        ids = orbit_minima(4, cert.generators)
        base_orbit = ids[distinguished_element(m)]
        for _ in range(20):
            p = random_permutation(4, rng)
            pm = permuted(m, p)
            e = distinguished_element(pm)
            # map back through the relabeling and compare orbits
            assert ids[p.index(e)] == base_orbit

    def test_determinism(self, fig1):
        assert distinguished_element(fig1) == distinguished_element(fig1)


class TestOrderDownBase:
    """aut_order, read off the first leaf's path, is the order of the group
    the generators span, as the reference stabilizer chain computes it."""

    def test_every_class_and_its_dual_through_eight(self, catalogue8):
        for rec in catalogue8:
            m = rec.matroid()
            for x in (m, m.dual()):
                cert = certificate_for(x.n, x.rank, x.hyperplanes)
                assert cert.aut_order == group_order(x.n, cert.generators), x


class TestGroupOrder:
    """The reference chain itself."""

    def test_trivial(self):
        assert group_order(5, []) == 1

    def test_symmetric_group(self):
        gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
        assert group_order(4, gens) == 24

    def test_klein_four(self):
        gens = [(1, 0, 3, 2), (2, 3, 0, 1)]
        assert group_order(4, gens) == 4


def _group_elements(n, gens):
    """Every element of the group gens generate, by closure from the identity."""
    identity = tuple(range(n))
    elements = {identity}
    queue = [identity]
    while queue:
        p = queue.pop()
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in elements:
                elements.add(q)
                queue.append(q)
    return elements


def _flat_orbits(lat, flat_perms):
    """The orbit of each flat index under the flat permutations, as frozensets."""
    orbits = []
    for x in range(lat.nf):
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for fp in flat_perms:
                if fp[y] not in orbit:
                    orbit.add(fp[y])
                    queue.append(fp[y])
        orbits.append(frozenset(orbit))
    return orbits


class TestReducedGenerators:
    """The parent's generators go to flat_permutations as the search found
    them; their flat orbits are the orbits of the whole group."""

    def test_same_group_and_flat_orbits_through_seven(self, catalogue7):
        for rec in catalogue7:
            n = rec.n
            gens = certificate_for(n, rec.rank, rec.hyperplanes).generators
            group = _group_elements(n, gens)
            assert group_order(n, gens) == len(group), rec
            lat = FlatLattice(rec.matroid())
            full = [[lat.index[relabel_mask(f, g)] for f in lat.flats] for g in group]
            assert _flat_orbits(lat, lat.flat_permutations(gens)) == _flat_orbits(
                lat, full
            ), rec

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relabelled_class(self, data, catalogue7):
        rec = data.draw(st.sampled_from(catalogue7))
        perm = data.draw(st.permutations(range(rec.n)))
        hyps = [relabel_mask(h, perm) for h in rec.hyperplanes]
        m = Matroid(rec.n, rec.rank, hyps)
        gens = certificate_for(m.n, m.rank, m.hyperplanes).generators
        want = certificate_for(rec.n, rec.rank, rec.hyperplanes).aut_order
        assert group_order(m.n, gens) == want
        # flat orbits of the relabelled class are the relabelled flat orbits
        lat, lat0 = FlatLattice(m), FlatLattice(rec.matroid())
        orbits = {
            frozenset(lat.flats[i] for i in orbit)
            for orbit in _flat_orbits(lat, lat.flat_permutations(gens))
        }
        orig = certificate_for(rec.n, rec.rank, rec.hyperplanes).generators
        orbits0 = {
            frozenset(relabel_mask(lat0.flats[i], perm) for i in orbit)
            for orbit in _flat_orbits(lat0, lat0.flat_permutations(orig))
        }
        assert orbits == orbits0


class TestMinorCertificates:
    def test_each_slot_is_the_minor_certificate_through_six(self, catalogue6):
        for rec in catalogue6:
            m = rec.matroid()
            for e in range(m.n):
                assert minor_certificate(m, 2 * e) == certificate(m.delete(e)).bytes
                assert minor_certificate(m, 2 * e + 1) == certificate(m.contract(e)).bytes
                assert minor(m, 2 * e) == m.delete(e)
                assert minor(m, 2 * e + 1) == m.contract(e)

    def test_slots_fill_when_first_read(self, monkeypatch):
        from matcat import canon

        m = uniform(3, 4)
        calls = []
        certificate_for = canon.certificate_for

        def counted(n, rank, hyps, *known):
            calls.append(n)
            return certificate_for(n, rank, hyps, *known)

        monkeypatch.setattr(canon, "certificate_for", counted)
        first = minor_certificate(m, 5)
        assert [i for i, c in enumerate(m._minor_certificates) if c] == [5]
        assert minor_certificate(m, 5) == first
        assert calls == [3]


class TestCanonicalFamilyCells:
    def test_cells_restrict_the_group(self):
        # family of singletons; with separated cells, 0 cannot swap with 2
        fam = (0b001, 0b100)
        unrestricted = canonical_family(3, fam)
        restricted = canonical_family(3, fam, cells=[[0, 1], [2]])
        assert group_order(3, unrestricted.generators) == 2
        assert group_order(3, restricted.generators) == 1

    def test_p8_aut_order(self):
        assert certificate(p8()).aut_order == 32


class TestSignaturePrefilter:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_relabelling_invariance(self, catalogue7, seed):
        # one drawn permutation per class; the seed keeps a failure shrinkable
        rng = random.Random(seed)
        for rec in catalogue7:
            if rec.n == 0:
                continue
            perm = random_permutation(rec.n, rng)
            hyps = rec.hyperplanes
            moved = relabel_family(hyps, perm)
            for e in range(rec.n):
                assert element_has_minimal_signature(
                    rec.n, moved, perm[e]
                ) == element_has_minimal_signature(rec.n, hyps, e)

    def test_distinguished_element_passes(self, catalogue8):
        for rec in catalogue8:
            if rec.n == 0:
                continue
            m = rec.matroid()
            assert element_has_minimal_signature(
                m.n, m.hyperplanes, distinguished_element(m)
            ), rec

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 7),
        data=st.data(),
    )
    def test_matches_every_signature_at_once(self, n, data):
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
        e = data.draw(st.integers(0, n - 1))
        assert element_has_minimal_signature(n, masks, e) == _all_signatures_minimal(
            n, masks, e
        )

    def test_shorter_signature_is_smaller(self):
        # signatures: 0 -> [2, 2], 1 -> [2], 2 -> [2]; a prefix is smaller
        masks = (0b011, 0b101)
        assert not element_has_minimal_signature(3, masks, 0)
        assert element_has_minimal_signature(3, masks, 1)
        assert element_has_minimal_signature(3, masks, 2)


class TestCanonicalOutputPinned:
    """The kernel's exact output, not only its dedup verdicts: a kernel that
    picked another canonical form would change these digests."""

    def test_certificate_digest_through_seven(self, catalogue7):
        listing = "\n".join(sorted(rec.cert.hex() for rec in catalogue7))
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "1df7c57d8dd820c4fc04eb428e391b269940697767b5d2d241841a4ef11479a5"
        )

    @staticmethod
    def _digest_calls(catalogue6):
        # every class with n <= 6, then each 6-element class under three
        # cell restrictions
        restrictions = (
            ((0, 1, 2), (3, 4, 5)), ((0,), (1, 2, 3, 4, 5)), ((4, 5), (0, 1, 2, 3)),
        )
        calls = [(rec.n, rec.hyperplanes, None) for rec in catalogue6]
        calls += [
            (6, rec.hyperplanes, cells)
            for rec in catalogue6 if rec.n == 6
            for cells in restrictions
        ]
        assert len(calls) == 168 + 3 * 98
        return calls

    def test_canonical_family_digest(self, catalogue6):
        # (masks, perm): the canonical form and its witness
        digest = hashlib.sha256()
        for n, masks, cells in self._digest_calls(catalogue6):
            cf = canonical_family(n, masks, cells=cells)
            digest.update(repr((cf.masks, cf.perm)).encode())
        assert digest.hexdigest() == (
            "15d8189b1ad4c51dc4d7bded17003d7060b61fbc9932eb3912361ea3892a327f"
        )

    def test_canonical_group_digest(self, catalogue6):
        # (group order, element orbits) of the generators found; the
        # generator lists themselves may change with the search
        digest = hashlib.sha256()
        for n, masks, cells in self._digest_calls(catalogue6):
            gens = canonical_family(n, masks, cells=cells).generators
            digest.update(repr((group_order(n, gens), _orbit_partition(n, gens))).encode())
        assert digest.hexdigest() == (
            "452440e20bac5e5914c64f9de641a6a59a97c51615d199231a4d2277a5002a2a"
        )


def _all_signatures_minimal(n, masks, e):
    """Reference prefilter: every element's size list, then one comparison."""
    sig = [[] for _ in range(n)]
    for m in sorted(masks, key=int.bit_count):
        size = m.bit_count()
        while m:
            b = m & -m
            sig[b.bit_length() - 1].append(size)
            m ^= b
    return sig[e] == min(sig)


# -- reference kernel: the search without backjumps or the degree start -------


class _RefSearch:
    def __init__(self, n, masks, budget):
        self.n_masks = len(masks)
        self.hyps_of = [
            [i for i, m in enumerate(masks) if m & b] for b in [1 << e for e in range(n)]
        ]
        self.budget = budget
        self.nodes = 0
        self.first = None
        self.best = None
        self.gens = []


def _ref_leaf(s, cells):
    perm = [0] * len(s.hyps_of)
    for label, cell in enumerate(cells):
        perm[cell[0]] = label
    vals = [0] * s.n_masks
    for e, hyps in enumerate(s.hyps_of):
        b = 1 << perm[e]
        for i in hyps:
            vals[i] |= b
    value = tuple(sorted(vals))
    perm = tuple(perm)
    if s.first is None:
        s.first = s.best = (value, perm)
        return
    for ref_value, ref_perm in (s.first, s.best):
        if value == ref_value and perm != ref_perm:
            g = _compose(_invert(ref_perm), perm)
            if g not in s.gens:
                s.gens.append(g)
            break
    if value < s.best[0]:
        s.best = (value, perm)


def _ref_search(s, cells, keys, fixed, fixing):
    s.nodes += 1
    if s.nodes > s.budget:
        raise BudgetExceeded(f"canonical search passed {s.budget} nodes")
    cells = _equitable_refine(s.hyps_of, cells, keys)
    target = None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
            target = i
    if target is None:
        _ref_leaf(s, cells)
        return
    cell = cells[target]
    n = len(s.hyps_of)
    start = sum(map(len, cells[:target]))
    delta = (1 << 4 * (n - start - 1)) - (1 << 4 * (n - start - len(cell)))
    closed = 0
    seen = len(s.gens)
    for v in cell:
        if closed >> v & 1:
            continue
        rest = [u for u in cell if u != v]
        sub_keys = keys.copy()
        for i in s.hyps_of[v]:
            sub_keys[i] += delta
        _ref_search(
            s, cells[:target] + [[v], rest] + cells[target + 1:], sub_keys,
            fixed + [v], [g for g in fixing if g[v] == v],
        )
        new = [g for g in s.gens[seen:] if all(g[p] == p for p in fixed)]
        seen = len(s.gens)
        fixing = fixing + new
        closed |= 1 << v
        closed = _orbit_closure(closed, closed if new else 1 << v, fixing)


def _ref_canonical_family(n, masks, cells=None):
    """(masks, perm, generators, nodes) of the reference kernel."""
    masks = tuple(sorted(masks))
    cells = [list(range(n))] if cells is None else [sorted(c) for c in cells if c]
    s = _RefSearch(n, masks, 2_000_000)
    keys = [0] * len(masks)
    end = 0
    for cell in cells:
        end += len(cell)
        digit = 1 << 4 * (n - end)
        for e in cell:
            for i in s.hyps_of[e]:
                keys[i] += digit
    _ref_search(s, cells, keys, [], [])
    value, perm = s.best
    return value, perm, tuple(s.gens), s.nodes


def _assert_order_down_base(n, cf):
    # the order read off the first leaf's path is the Schreier-Sims order
    assert _order_down_base(cf.base, cf.generators) == group_order(n, cf.generators), (
        n, cf.masks, cf.base,
    )


def _assert_same_as_reference(n, masks, cells=None):
    cf = canonical_family(n, masks, cells=cells)
    value, perm, gens, _ = _ref_canonical_family(n, masks, cells)
    assert (cf.masks, cf.perm) == (value, perm), (n, masks, cells)
    assert group_order(n, cf.generators) == group_order(n, gens), (n, masks, cells)
    _assert_order_down_base(n, cf)
    assert _orbit_partition(n, cf.generators) == _orbit_partition(n, gens)


class TestKernelAgainstReference:
    """Backjumps and the degree start leave the canonical form, its witness,
    the group and its orbits as the plain search finds them."""

    def test_every_class_through_seven(self, catalogue7):
        for rec in catalogue7:
            if rec.n:
                _assert_same_as_reference(rec.n, rec.hyperplanes)

    def test_cell_restrictions_on_six(self, catalogue6):
        for n, masks, cells in TestCanonicalOutputPinned._digest_calls(catalogue6):
            if cells is not None:
                _assert_same_as_reference(n, masks, cells)

    @pytest.mark.parametrize("n,k", [(7, 3), (8, 4)])
    def test_johnson_families_and_extensions(self, n, k):
        g = johnson_graph(n, k)
        for family in collect_iset_orbits(g):
            _assert_same_as_reference(n, family)
            for v in g.vertices:
                if all((v & u).bit_count() < k - 1 for u in family):
                    _assert_same_as_reference(n, tuple(sorted(family + (v,))))

    @pytest.mark.parametrize("rank,n", [(3, 6), (4, 8), (4, 9)])
    def test_uniform_needs_n_minus_one_generators(self, rank, n):
        cf = canonical_family(n, uniform(rank, n).hyperplanes)
        assert len(cf.generators) == n - 1
        assert group_order(n, cf.generators) == math.factorial(n)

    def test_u48_visits_fewer_nodes(self):
        hyps = uniform(4, 8).hyperplanes
        assert canonical_family(8, hyps).nodes < _ref_canonical_family(8, hyps)[3]


class TestKnownAutomorphisms:
    """A search seeded with automorphisms keeps the canonical form, the
    witness perm, the group and its orbits of the plain search."""

    def test_every_child_labelling_through_eight(self, monkeypatch):
        # each parent with n <= 7 labels its children with the parent
        # generators that fix the cut, carried down from the level above
        from matcat import orderly

        calls = []

        def recording(n, rank, hyps, known=()):
            cert = certificate_for(n, rank, hyps, known)
            calls.append((n, rank, hyps, known, cert))
            return cert

        monkeypatch.setattr(orderly, "certificate_for", recording)
        orderly.enumerate_matroids(8)
        assert sum(1 for call in calls if call[3]) > 1000
        for n, rank, hyps, known, cert in calls:
            plain = certificate_for(n, rank, hyps)
            assert (cert.bytes, cert.perm) == (plain.bytes, plain.perm), hyps
            assert cert.aut_order == plain.aut_order, hyps
            assert cert.element_orbits == plain.element_orbits, hyps
            assert cert.generators[: len(known)] == tuple(known)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_own_generators_and_products(self, data, catalogue7):
        if data.draw(st.booleans(), label="uniform family"):
            n = data.draw(st.integers(2, 8), label="n")
            k = data.draw(st.integers(1, n - 1), label="k")
            vertices = [mask_of(c) for c in itertools.combinations(range(n), k)]
            masks = data.draw(
                st.lists(st.sampled_from(vertices), min_size=1, max_size=12, unique=True)
            )
        else:
            rec = data.draw(st.sampled_from([r for r in catalogue7 if r.n]))
            n = rec.n
            masks = relabel_family(rec.hyperplanes, data.draw(st.permutations(range(n))))
        plain = canonical_family(n, masks)
        known = []
        if plain.generators:
            picks = data.draw(st.lists(st.sampled_from(plain.generators), max_size=4))
            known = picks + [_compose(g, h) for g, h in zip(picks, picks[1:])]
        seeded = canonical_family(n, masks, known=known)
        assert (seeded.masks, seeded.perm) == (plain.masks, plain.perm)
        assert group_order(n, seeded.generators) == group_order(n, plain.generators)
        _assert_order_down_base(n, seeded)
        assert _orbit_partition(n, seeded.generators) == _orbit_partition(
            n, plain.generators
        )


class TestCellsValidation:
    @pytest.mark.parametrize(
        "cells",
        [[[0], [2]], [[0, 1], [2, 2]], [[0, 1, 2, 3]], [[0, 1], [2], [1]]],
        ids=["missing", "repeated", "outside", "shared"],
    )
    def test_not_a_partition(self, cells):
        with pytest.raises(ValueError):
            canonical_family(3, [0b011, 0b110], cells=cells)

    def test_empty_cells_are_ignored(self):
        got = canonical_family(3, [0b011, 0b110], cells=[[0, 1], [], [2]])
        assert got == canonical_family(3, [0b011, 0b110], cells=[[0, 1], [2]])


def test_labelling_leaves_no_reference_cycles(catalogue7):
    families = [(rec.n, rec.rank, rec.hyperplanes) for rec in catalogue7]
    gc.collect()
    gc.disable()
    try:
        for n, rank, hyps in families:
            certificate_for(n, rank, hyps)
        assert gc.collect() == 0
    finally:
        gc.enable()
