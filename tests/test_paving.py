import hashlib
import itertools
import pickle
from fractions import Fraction

import pytest

from matcat.canon import certificate, relabel_family, relabel_mask
from matcat.core import mask_of, uniform
from matcat.errors import FormatError
from matcat.named import P8_CIRCUIT_HYPERPLANES, NotIndependent, p8, sparse_paving
from matcat import paving
from matcat.paving import (
    BudgetExceeded,
    IsetSearch,
    _family_canon,
    _outranked,
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
)
from matcat.props import classify
from signing import resign

_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _Trap:
    """Unpickling this object calls a function, as a crafted payload would."""

    def __reduce__(self):
        return (_record_unpickling, ())


def adjacent(g, v, w):
    """Whether vertices v and w of the Johnson graph g are adjacent."""
    return (v & w).bit_count() == g.k - 1


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
            if any(adjacent(g, v, u) for u in members):
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
        # J(n,k) is k(n-k)-regular
        for v in g.vertices:
            assert sum(adjacent(g, v, w) for w in g.vertices if w != v) == 4

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
        m = sparse_paving(6, 3, [])
        assert m == uniform(3, 6)

    def test_p8_blocks_give_p8(self):
        blocks = [mask_of(b) for b in P8_CIRCUIT_HYPERPLANES]
        m = sparse_paving(8, 4, blocks)
        assert certificate(m).bytes == certificate(p8()).bytes

    def test_round_trip(self):
        blocks = [mask_of(b) for b in P8_CIRCUIT_HYPERPLANES]
        m = sparse_paving(8, 4, blocks)
        assert sorted(m.circuit_hyperplanes()) == sorted(blocks)

    def test_rejects_adjacent_blocks(self):
        with pytest.raises(NotIndependent):
            sparse_paving(6, 3, [mask_of((0, 1, 2)), mask_of((0, 1, 3))])

    def test_rejects_blocks_of_another_size(self):
        with pytest.raises(ValueError):
            sparse_paving(6, 3, [mask_of((0, 1))])


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
                if m.n == n and m.rank == k and classify(m)["sparsePaving"]
            )
            assert total == cat, (n, k)

    def test_self_dual_methods_agree(self):
        for n in (4, 6):
            assert count_self_dual_sparse(n, "z2") == count_self_dual_sparse(
                n, "certificate"
            )

    def test_budget_and_resume(self, tmp_path, monkeypatch):
        g = johnson_graph(7, 3)
        path = str(tmp_path / "jk.ckpt")
        search = johnson_search(g)
        monkeypatch.setattr(IsetSearch, "_CHECKPOINT_EVERY", 1)
        with pytest.raises(BudgetExceeded):
            search.run(budget=4, checkpoint_path=path)
        resumed = load_iset_checkpoint(path)
        counts = resumed.run()
        assert counts == enumerate_isets_orderly(johnson_graph(7, 3))

    def test_checkpoint_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"XXXX\x01junk")
        with pytest.raises(ValueError):
            load_iset_checkpoint(path)

    def test_checkpoint_round_trip_is_plain_text(self, tmp_path):
        g = johnson_graph(8, 4)
        path = tmp_path / "rt.ckpt"
        search = johnson_search(g)
        with pytest.raises(BudgetExceeded):
            search.run(budget=6, checkpoint_path=str(path))
        header, fields, *stack, footer = path.read_text().splitlines()
        assert header == "#matcat-johnson-checkpoint v4"
        assert fields == f"n=8 k=4 nodes={search.nodes} counts=0:1,1:1,2:1,3:1,4:1,5:1,6:1"
        assert stack == [f"S {','.join(format(v, 'x') for v in s)}" for s in search.stack]
        assert footer.startswith("#sha256 ")
        loaded = load_iset_checkpoint(str(path))
        assert loaded == search
        assert all(type(k) is int for k in loaded.counts)
        assert all(type(m) is tuple for m in loaded.stack)

    @pytest.mark.parametrize(
        "make",
        [
            lambda g: johnson_search(g, cells=((0, 1, 2), (3, 4, 5))),
            lambda g: johnson_search(g, max_size=5),
            lambda g: IsetSearch(g.n, g.vertices, conflict_threshold=1, z2=True),
            lambda g: IsetSearch(g.n, g.vertices, conflict_threshold=2),
            lambda g: IsetSearch(g.n, g.vertices[1:], conflict_threshold=2, z2=True),
        ],
        ids=["cells", "max_size", "threshold", "no-z2", "vertices"],
    )
    def test_checkpoint_only_of_a_johnson_search(self, tmp_path, make):
        path = tmp_path / "j63.ckpt"
        with pytest.raises(ValueError):
            save_iset_checkpoint(make(johnson_graph(6, 3)), str(path))
        assert not path.exists()

    def test_checkpoint_pickle_payload_not_unpickled(self, tmp_path):
        _UNPICKLED.clear()
        payload = pickle.dumps(_Trap())
        for version in (1, 2, 3):
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
            lambda d: d.pop("counts"),
            lambda d: d.update(extra=1),
            lambda d: d.update(n="seven"),
            lambda d: d.update(k="2.0"),
            lambda d: d.update(n=10**6),
            lambda d: d.update(n=13),
            lambda d: d.update(k=5),
            lambda d: d.update(k=0),
            lambda d: d.update(nodes="1.5"),
            lambda d: d.update(counts="x:1"),
            lambda d: d.update(counts="1"),
            lambda d: d.update(stack=["S 1,x"]),
            lambda d: d.update(stack=["S 3,5"]),
            lambda d: d.update(stack=["S 3,3"]),
            lambda d: d.update(stack=["X 3"]),
            lambda d: d.update(stack=["S 3 5"]),
        ],
    )
    def test_checkpoint_malformed_payload(self, tmp_path, edit):
        # each edit is signed, so that the check it breaks is reached
        g = johnson_graph(5, 2)
        path = tmp_path / "m.ckpt"
        save_iset_checkpoint(IsetSearch(g.n, g.vertices, conflict_threshold=1), str(path))
        header, fields, *stack, _ = path.read_text().splitlines()
        data = dict(kv.split("=") for kv in fields.split()) | {"stack": stack}
        edit(data)
        stack = data.pop("stack")
        resign(path, [header, " ".join(f"{k}={v}" for k, v in data.items()), *stack])
        with pytest.raises(FormatError, match="bad checkpoint payload"):
            load_iset_checkpoint(str(path))

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
                "dbe099228e3352de881a62cfcf74199b8dfc80f4d8c149863ad887ba9c628c39"
            )

    def test_label_memo_changes_nothing(self, tmp_path, monkeypatch):
        # a J(9,4) search to 3000 nodes with and without the memo
        labelled = []

        def counting(*args):
            labelled.append(None)
            return _family_canon(*args)

        monkeypatch.setattr(paving, "_family_canon", counting)
        runs = []
        for memo in (None, _NoMemo()):
            labelled.clear()
            path = str(tmp_path / f"memo{len(runs)}.ckpt")
            search = johnson_search(johnson_graph(9, 4))
            if memo is not None:
                search._memo = memo
            with pytest.raises(BudgetExceeded):
                search.run(budget=3000, checkpoint_path=path)
            assert len(search._memo) <= IsetSearch._MEMO_SIZE
            with open(path, "rb") as fh:
                runs.append((fh.read(), search.stack, search.counts, len(labelled)))
        (blob, stack, counts, with_memo), (blob0, stack0, counts0, without) = runs
        assert (blob, stack, counts) == (blob0, stack0, counts0)
        assert with_memo < without

    def test_a_child_accepted_twice_is_kept_twice(self, monkeypatch):
        # every labelling returns one canonical value, so the accepted
        # children of a parent look like one class; each is still counted
        def one_value(*args):
            fc = _family_canon(*args)
            return paving._FamilyCanon((), fc.deletion_orbit, fc.actions)

        want = enumerate_isets_orderly(johnson_graph(7, 3))
        monkeypatch.setattr(paving, "_family_canon", one_value)
        assert enumerate_isets_orderly(johnson_graph(7, 3)) == want


class _NoMemo(dict):
    """A label memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _direct_children(search, members):
    """Label every candidate vertex; keep the first child of each canonical
    form in vertex order, sorted by canonical form."""
    out = {}
    for v in search.vertices:
        if v in members or any(
            (v & u).bit_count() >= search.conflict_threshold for u in members
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

    @pytest.mark.parametrize(
        "n,vertices,cells",
        [
            # the outranking rule would drop accepted children on both
            (7, johnson_graph(7, 3).vertices, ((0, 1, 2), (3, 4, 5, 6))),
            (4, tuple(sorted(
                mask_of(c) for size in (1, 2) for c in itertools.combinations(range(4), size)
            )), None),
        ],
        ids=["fixed-cells", "mixed-sizes"],
    )
    def test_searches_outside_the_degree_rule(self, n, vertices, cells):
        search = _CheckedSearch(n, vertices, conflict_threshold=2, cells=cells)
        search.run()
        assert len(search.collected) == search.nodes

    def test_first_200_nodes_of_j105(self):
        # Z2 at n = 10: the outranking rule tests the complemented child too
        g = johnson_graph(10, 5)
        search = _CheckedSearch(g.n, g.vertices, conflict_threshold=g.k - 1, z2=True)
        with pytest.raises(BudgetExceeded):
            search.run(budget=199)
        assert len(search.collected) == 200

    def test_outranking_skips_most_labellings(self, monkeypatch):
        # the first 4000 nodes of J(9,4) label 28605 children without the rule
        labelled = []

        def counting(*args):
            labelled.append(None)
            return _family_canon(*args)

        monkeypatch.setattr(paving, "_family_canon", counting)
        with pytest.raises(BudgetExceeded):
            johnson_search(johnson_graph(9, 4)).run(budget=3999)
        assert len(labelled) <= 11000

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


class TestOutranked:
    # three layers, highest degree first: {0, 1}, {2, 3}, {4, 5}
    LAYERS = (0b000011, 0b001100, 0b110000)

    @pytest.mark.parametrize(
        "v, w, outranked",
        [
            ((0, 2, 4), (0, 1, 5), True),    # proper subset on the top layer
            ((0, 2, 4), (0, 2, 3), True),    # equal, then a proper subset below
            ((0, 2, 4), (1, 2, 3), False),   # incomparable on the top layer
            ((0, 1, 4), (0, 2, 3), False),   # a proper superset on the top layer
            ((0, 2, 4), (0, 2, 5), False),   # incomparable on the last layer
        ],
    )
    def test_first_differing_layer_decides(self, v, w, outranked):
        assert _outranked(mask_of(v), [mask_of(w)], self.LAYERS) is outranked

    def test_any_member_outranks(self):
        v = mask_of((0, 2, 4))
        members = [mask_of((1, 2, 3)), mask_of((0, 2, 3))]
        assert _outranked(v, members, self.LAYERS)
        assert not _outranked(v, members[:1], self.LAYERS)
        assert not _outranked(v, [], self.LAYERS)

    def test_layer_order_matters(self):
        # read from the lowest layer up, {4} and {5} differ first
        v, w = mask_of((0, 2, 4)), mask_of((0, 1, 5))
        assert not _outranked(v, [w], self.LAYERS[::-1])


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
                if m.n == n and m.rank == rank and classify(m)["paving"]
            )
            assert paving_total(n, rank) == cat

    def test_weights_resolve_to_integers(self):
        table = count_nonsparse_paving(7, 3)
        for val in table.values():
            assert val.denominator == 1

    @pytest.mark.parametrize(
        "n,rank,only_k",
        [(6, 3, 9), (6, 3, 3), (6, 3, 1), (16, 3, 5), (13, 3, None), (-3, 2, None),
         (6, 1, None)],
    )
    def test_out_of_range_refused_before_search(self, monkeypatch, n, rank, only_k):
        def no_search(*args, **kwargs):
            raise AssertionError("search started on a refused argument")

        monkeypatch.setattr(IsetSearch, "run", no_search)
        with pytest.raises(ValueError):
            count_nonsparse_paving(n, rank, only_k=only_k)

    def test_paving_total_8_4_runs_one_johnson_search(self, monkeypatch):
        j84 = johnson_graph(8, 4).vertices
        runs = []
        run = IsetSearch.run

        def counted(search, *args, **kwargs):
            if search.vertices == j84:
                runs.append(search)
            return run(search, *args, **kwargs)

        monkeypatch.setattr(IsetSearch, "run", counted)
        assert paving_total(8, 4) == 322
        assert len(runs) == 1
