import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from matcat.canon import (
    automorphism_mapping,
    canonical_family,
    certificate,
    certificate_for,
    distinguished_element,
    element_has_minimal_signature,
    group_order,
    hyperplane_graph,
    is_isomorphic,
    relabel_family,
    relabel_mask,
)
from matcat.core import EmptyGroundSet, Matroid, free, mask_of, uniform
from matcat.named import ag32_prime, f8, p8


def random_permutation(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def permuted(m, perm):
    return Matroid(m.n, m.rank, relabel_family(m.hyperplanes, perm))


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
                a = orbit[0]
                for b in orbit[1:]:
                    g = automorphism_mapping(cert, a, b)
                    assert g is not None and g[a] == b
                    assert relabel_family(fam, g) == fam

    def test_orbits_partition_under_relabeling(self, fig1):
        rng = random.Random(4)
        cert = certificate(fig1)
        ids = cert.orbit_ids()
        for _ in range(20):
            p = random_permutation(fig1.n, rng)
            other = certificate(permuted(fig1, p))
            other_ids = other.orbit_ids()
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
        ids = cert.orbit_ids()
        base_orbit = ids[distinguished_element(m)]
        for _ in range(20):
            p = random_permutation(4, rng)
            pm = permuted(m, p)
            e = distinguished_element(pm)
            # map back through the relabeling and compare orbits
            assert ids[p.index(e)] == base_orbit

    def test_determinism(self, fig1):
        assert distinguished_element(fig1) == distinguished_element(fig1)


class TestHyperplaneGraph:
    def test_u23_is_a_perfect_matching(self):
        g = hyperplane_graph(uniform(2, 3))
        assert g.n_elements == 3 and g.n_hyperplanes == 3
        assert g.edge_count() == 3
        assert sorted(g.incidence) == [0b001, 0b010, 0b100]

    def test_rank0_isolated_elements(self):
        g = hyperplane_graph(Matroid.from_hyperplanes(4, []))
        assert g.n_hyperplanes == 0 and g.edge_count() == 0

    def test_figure_graph_shape(self, fig1):
        g = hyperplane_graph(fig1)
        assert g.n_elements == 7
        assert g.n_hyperplanes == 10
        assert g.edge_count() == 25  # sizes 2,2,2,2,2,2,3,3,3,4


class TestGroupOrder:
    def test_trivial(self):
        assert group_order(5, []) == 1

    def test_symmetric_group(self):
        gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
        assert group_order(4, gens) == 24

    def test_klein_four(self):
        gens = [(1, 0, 3, 2), (2, 3, 0, 1)]
        assert group_order(4, gens) == 4


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

    def test_canonical_family_digest(self, catalogue6):
        # (masks, perm, generators) of every class with n <= 6, then of each
        # 6-element class under three cell restrictions
        digest = hashlib.sha256()
        restrictions = (
            ((0, 1, 2), (3, 4, 5)), ((0,), (1, 2, 3, 4, 5)), ((4, 5), (0, 1, 2, 3)),
        )
        calls = [(rec.n, rec.hyperplanes, None) for rec in catalogue6]
        calls += [
            (6, rec.hyperplanes, cells)
            for rec in catalogue6 if rec.n == 6
            for cells in restrictions
        ]
        for n, masks, cells in calls:
            cf = canonical_family(n, masks, cells=cells)
            digest.update(repr((cf.masks, cf.perm, cf.generators)).encode())
        assert len(calls) == 168 + 3 * 98
        assert digest.hexdigest() == (
            "90edf73c0514d1d771ba81b0f8e1ad43a735c63fcda92db2637bc2adee302bb5"
        )


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
