import hashlib
import itertools
import json
import pickle
from fractions import Fraction

import pytest

from matcat.canon import canonical_family, certificate, relabel_family, relabel_mask
from matcat.core import mask_of, popcount, uniform
from matcat.named import P8_CIRCUIT_HYPERPLANES, p8
from matcat.paving import (
    BudgetExceeded,
    IsetSearch,
    NotIndependent,
    _family_canon,
    auxiliary_graph_vertices,
    count_nonsparse_paving,
    count_self_dual_sparse,
    enumerate_isets_orderly,
    estimate_iset_count,
    johnson_graph,
    johnson_search,
    load_iset_checkpoint,
    paving_total,
    save_iset_checkpoint,
    sparse_paving_from_independent_set,
)
from matcat.props import classify

_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _Trap:
    """Unpickling this object calls a function, as a crafted payload would."""

    def __reduce__(self):
        return (_record_unpickling, ())


def brute_force_iset_orbits(g):
    """All independent sets deduped by minimum relabeling (plus complement)."""
    full = (1 << g.n) - 1
    verts = g.vertices
    isets = [()]
    stack = [((), 0)]
    while stack:
        members, start = stack.pop()
        for i in range(start, len(verts)):
            v = verts[i]
            if any(g.adjacent(v, u) for u in members):
                continue
            nxt = members + (v,)
            isets.append(nxt)
            stack.append((nxt, i + 1))
    reps = set()
    for s in isets:
        best = None
        for p in itertools.permutations(range(g.n)):
            img = relabel_family(s, p)
            if best is None or img < best:
                best = img
            if g.with_complement:
                img2 = relabel_family([full ^ v for v in s], p)
                if img2 < best:
                    best = img2
        reps.add(best)
    counts = {}
    for r in reps:
        counts[len(r)] = counts.get(len(r), 0) + 1
    return counts


class TestJohnsonGraph:
    def test_j42_shape(self):
        g = johnson_graph(4, 2)
        assert len(g.vertices) == 6
        assert g.degree() == 4
        v = g.vertices[0]
        assert sum(g.adjacent(v, w) for w in g.vertices if w != v) == 4

    def test_j104_vertex_count(self):
        assert len(johnson_graph(10, 4).vertices) == 210

    def test_complement_flag(self):
        assert johnson_graph(8, 4).with_complement
        assert not johnson_graph(9, 4).with_complement

    def test_bounds(self):
        with pytest.raises(ValueError):
            johnson_graph(13, 2)


class TestSparsePavingBijection:
    def test_empty_iset_gives_uniform(self):
        m = sparse_paving_from_independent_set(6, 2, [])
        assert m == uniform(3, 6)

    def test_p8_blocks_give_p8(self):
        blocks = [mask_of(b) for b in P8_CIRCUIT_HYPERPLANES]
        m = sparse_paving_from_independent_set(8, 3, blocks)
        assert certificate(m).bytes == certificate(p8()).bytes

    def test_round_trip(self):
        blocks = [mask_of(b) for b in P8_CIRCUIT_HYPERPLANES]
        m = sparse_paving_from_independent_set(8, 3, blocks)
        assert sorted(m.circuit_hyperplanes()) == sorted(blocks)

    def test_rejects_adjacent_blocks(self):
        with pytest.raises(NotIndependent):
            sparse_paving_from_independent_set(
                6, 2, [mask_of((0, 1, 2)), mask_of((0, 1, 3))]
            )


class TestOrbitEnumeration:
    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3), (5, 3)])
    def test_matches_brute_force(self, n, k):
        g = johnson_graph(n, k)
        assert enumerate_isets_orderly(g) == brute_force_iset_orbits(g)

    def test_matches_catalogue_counts(self, matroids6):
        for n, k in [(5, 2), (6, 2), (6, 3), (5, 3), (6, 4)]:
            g = johnson_graph(n, k)
            total = sum(enumerate_isets_orderly(g).values())
            if g.with_complement:
                total = 2 * total - count_self_dual_sparse(n, method="z2")
            cat = sum(
                1
                for m in matroids6
                if m.n == n and m.rank == k and classify(m).sparse_paving
            )
            assert total == cat, (n, k)

    def test_self_dual_methods_agree(self):
        for n in (4, 6):
            assert count_self_dual_sparse(n, "z2") == count_self_dual_sparse(
                n, "certificate"
            )

    def test_budget_and_resume(self, tmp_path):
        g = johnson_graph(7, 3)
        path = str(tmp_path / "jk.ckpt")
        search = IsetSearch(
            g.n, g.vertices, conflict_threshold=g.k - 1, z2=g.with_complement
        )
        with pytest.raises(BudgetExceeded):
            search.run(budget=4, checkpoint_path=path, checkpoint_every=1)
        resumed = load_iset_checkpoint(path)
        counts = resumed.run()
        assert counts == enumerate_isets_orderly(johnson_graph(7, 3))

    def test_checkpoint_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"XXXX\x01junk")
        with pytest.raises(ValueError):
            load_iset_checkpoint(path)

    def test_checkpoint_round_trip_is_plain_json(self, tmp_path):
        g = johnson_graph(6, 3)
        path = str(tmp_path / "rt.ckpt")
        search = IsetSearch(
            g.n, g.vertices, conflict_threshold=g.k - 1, z2=g.with_complement,
            cells=((0, 1, 2), (3, 4, 5)), max_size=5,
        )
        with pytest.raises(BudgetExceeded):
            search.run(budget=6, checkpoint_path=path, checkpoint_every=100)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob[:5] == b"MCJK\x02"
        assert json.loads(blob[5:])["nodes"] == search.nodes
        loaded = load_iset_checkpoint(path)
        assert loaded == search
        assert all(type(k) is int for k in loaded.counts)
        assert all(type(m) is tuple for m in loaded.stack)

    def test_checkpoint_pickle_payload_not_unpickled(self, tmp_path):
        _UNPICKLED.clear()
        payload = pickle.dumps(_Trap())
        for version in (1, 2):
            path = tmp_path / f"trap{version}.ckpt"
            path.write_bytes(b"MCJK" + bytes([version]) + payload)
            with pytest.raises(ValueError):
                load_iset_checkpoint(str(path))
        assert _UNPICKLED == []
        pickle.loads(payload)  # the payload does run code when unpickled
        assert _UNPICKLED == [True]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("stack"),
            lambda d: d.update(extra=1),
            lambda d: d.update(n="7"),
            lambda d: d.update(z2=0),
            lambda d: d.update(counts={"x": 1}),
            lambda d: d.update(counts=[1]),
            lambda d: d.update(stack=[[1, "2"]]),
            lambda d: d.update(cells=[3]),
            lambda d: d.update(max_size=1.5),
        ],
    )
    def test_checkpoint_malformed_payload(self, tmp_path, edit):
        g = johnson_graph(5, 2)
        path = str(tmp_path / "m.ckpt")
        save_iset_checkpoint(IsetSearch(g.n, g.vertices, conflict_threshold=1), path)
        with open(path, "rb") as fh:
            data = json.loads(fh.read()[5:])
        edit(data)
        with open(path, "wb") as fh:
            fh.write(b"MCJK\x02" + json.dumps(data).encode())
        with pytest.raises(ValueError):
            load_iset_checkpoint(path)

    def test_checkpoint_stack_of_non_vertices(self, tmp_path):
        g = johnson_graph(5, 2)
        path = str(tmp_path / "v.ckpt")
        save_iset_checkpoint(johnson_search(g, stack=[(0b111,)]), path)
        with pytest.raises(ValueError):
            load_iset_checkpoint(path)

    def test_j84_slice_pinned(self, tmp_path):
        # stopped at 40 nodes, resumed from the checkpoint, stopped at 80
        path = str(tmp_path / "slice.ckpt")
        with pytest.raises(BudgetExceeded):
            enumerate_isets_orderly(johnson_graph(8, 4), budget=40, checkpoint_path=path)
        search = load_iset_checkpoint(path)
        with pytest.raises(BudgetExceeded):
            search.run(budget=80, checkpoint_path=path)
        assert search.nodes == 81
        assert search.counts == {
            0: 1, 1: 1, 2: 3, 3: 2, 4: 4, 5: 8, 6: 12, 7: 13, 8: 17, 9: 8,
            10: 6, 11: 2, 12: 2, 13: 1, 14: 1,
        }
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "bc88f51f8eeee9074bbe997a4ba2fd73a83b99543e2e33b4638c79479592ec1b"
            )


def _direct_children(search, members):
    """Label every candidate vertex; keep the first child of each canonical
    form in vertex order, sorted by canonical form."""
    out = {}
    for v in search.vertices:
        if v in members or any(
            popcount(v & u) >= search.conflict_threshold for u in members
        ):
            continue
        child = tuple(sorted(members + (v,)))
        fc = _family_canon(search.n, child, search.z2, search.cells)
        if v in fc.deletion_orbit:
            out.setdefault(fc.value, child)
    return [out[value] for value in sorted(out)]


class _CheckedSearch(IsetSearch):
    """Compares every orbit-reduced expansion with the direct one and
    records each expanded family in collected."""

    def _children(self, members, actions):
        got = super()._children(members, actions)
        assert [child for child, _ in got] == _direct_children(self, members), members
        self.collected.append(members)
        return got


class TestOrbitReduction:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_johnson_node_through_eight(self, n):
        for k in range(1, n):
            g = johnson_graph(n, k)
            search = _CheckedSearch(
                g.n, g.vertices, conflict_threshold=g.k - 1, z2=g.with_complement
            )
            counts = search.run()
            assert len(search.collected) == search.nodes == sum(counts.values())

    def test_first_1500_nodes_of_j94(self):
        g = johnson_graph(9, 4)
        search = _CheckedSearch(g.n, g.vertices, conflict_threshold=g.k - 1)
        with pytest.raises(BudgetExceeded):
            search.run(budget=1499)
        assert len(search.collected) == 1500

    def test_nonsparse_cell_searches(self):
        # the searches of count_nonsparse_paving(8, 4), one per block size k
        n, d = 8, 3
        nodes = []
        for k in range(d + 2, n):
            search = _CheckedSearch(
                n, auxiliary_graph_vertices(n, d, k), conflict_threshold=d,
                cells=(tuple(range(k)), tuple(range(k, n))),
            )
            search.run()
            nodes.append(len(search.collected))
        assert nodes == [47, 4, 1]

    def test_actions_are_automorphisms(self):
        g = johnson_graph(8, 4)
        full = (1 << g.n) - 1
        search = johnson_search(g, collect=True)
        search.run()
        for members in search.collected:
            for perm, flip in _family_canon(g.n, members, True).actions:
                assert flip in (0, full)
                image = tuple(sorted(relabel_mask(v, perm) ^ flip for v in members))
                assert image == members


class TestEstimator:
    def test_fraction_one_is_exact(self):
        g = johnson_graph(7, 3)
        exact = sum(enumerate_isets_orderly(g).values())
        rep = estimate_iset_count(g, 2, 1.0, seed=3)
        assert rep.estimate == exact
        assert rep.effective_fraction == 1.0

    def test_single_prefix_mean_is_exact(self):
        # unbiasedness: the mean of the N single-prefix estimates (fraction
        # 1/N, so each contributes below + desc*N) equals the exact count
        g = johnson_graph(7, 3)
        exact = sum(enumerate_isets_orderly(g).values())
        search = IsetSearch(
            g.n, g.vertices, conflict_threshold=g.k - 1, z2=g.with_complement,
            max_size=2, collect=True,
        )
        search.run()
        frontier = [s for s in search.collected if len(s) == 2]
        below = sum(c for s, c in search.counts.items() if s < 2)
        mean = 0.0
        for prefix in frontier:
            sub = IsetSearch(
                g.n, g.vertices, conflict_threshold=g.k - 1,
                z2=g.with_complement, stack=[prefix],
            )
            sub.run()
            desc = sum(sub.counts.values())
            mean += (below + desc * len(frontier)) / len(frontier)
        assert mean == pytest.approx(exact)

    def test_seeded_determinism(self):
        g = johnson_graph(7, 3)
        a = estimate_iset_count(g, 3, 0.5, seed=11)
        b = estimate_iset_count(g, 3, 0.5, seed=11)
        assert a == b

    def test_j84_quarter_sample_brackets_exact(self):
        # single-seed estimates are high-variance (subtree sizes are very
        # skewed); the ensemble brackets the truth and its mean is close
        g = johnson_graph(8, 4)
        exact = sum(enumerate_isets_orderly(g).values())
        estimates = [
            estimate_iset_count(g, 3, 0.25, seed=s).estimate for s in range(20)
        ]
        assert min(estimates) <= exact <= max(estimates)
        mean = sum(estimates) / len(estimates)
        assert abs(mean - exact) / exact <= 0.15


class TestNonSparseCounts:
    def test_table8_outer_rows(self):
        assert count_nonsparse_paving(10, 4, only_k=9) == {(9, 1): Fraction(1)}
        assert count_nonsparse_paving(10, 4, only_k=8) == {(8, 1): Fraction(5)}

    def test_paving_totals_match_catalogue(self, matroids6):
        for n, rank in [(5, 2), (6, 2), (6, 3)]:
            cat = sum(
                1
                for m in matroids6
                if m.n == n and m.rank == rank and classify(m).paving
            )
            assert paving_total(n, rank) == cat

    def test_weights_resolve_to_integers(self):
        table = count_nonsparse_paving(7, 3)
        for val in table.values():
            assert val.denominator == 1
