import functools
import math

import pytest

from matcat.canon import certificate, certificate_for, orbit_minima, relabel_mask
from matcat.core import Matroid, format_masks, format_packed, pack_masks, parse_masks
from matcat.errors import BudgetExceeded as ResourceBudgetExceeded, ChecksumMismatch
from matcat import orderly
from matcat.lattice import FlatLattice
from signing import resign
from matcat.orderly import (
    EMPTY_MATROID,
    CatalogueRecord,
    _extend_records,
    brute_force_enumerate,
    count_matrix,
    enumerate_matroids,
    extend_all,
    load_checkpoint,
    totals_by_n,
    verify_duality_closure,
)

TABLE1_TOTALS = [1, 2, 4, 8, 17, 38, 98, 306, 1724]

# rank-by-size cells of the published count table through n=7
TABLE1_CELLS = {
    (0, 0): 1,
    (1, 1): 1,
    (2, 1): 2, (2, 2): 1,
    (3, 1): 3, (3, 2): 3, (3, 3): 1,
    (4, 1): 4, (4, 2): 7, (4, 3): 4, (4, 4): 1,
    (5, 2): 13, (5, 3): 13,
    (6, 2): 23, (6, 3): 38, (6, 4): 23,
    (7, 3): 108, (7, 4): 108,
}


class TestEnumerate:
    def test_totals_through_seven(self, catalogue7):
        assert totals_by_n(catalogue7, 7) == TABLE1_TOTALS[:8]

    def test_published_cells(self, catalogue7):
        cm = count_matrix(catalogue7, 7)
        for (n, r), want in TABLE1_CELLS.items():
            assert cm[r][n] == want, (n, r)

    def test_rank_symmetry(self, catalogue7):
        cm = count_matrix(catalogue7, 7)
        for n in range(8):
            for r in range(n + 1):
                assert cm[r][n] == cm[n - r][n]

    def test_output_sorted_and_unique(self, catalogue7):
        keys = [r.sort_key() for r in catalogue7]
        assert keys == sorted(keys)
        assert len(set(k[2] for k in keys)) == len(keys)

    def test_hyperplanes_ascending(self, catalogue7):
        for rec in catalogue7:
            h = rec.hyperplanes
            assert list(h) == sorted(h), rec
            m = Matroid(rec.n, rec.rank, h)
            back = Matroid(rec.n, rec.rank, reversed(h))
            assert back == m
            assert hash(back) == hash(m)

    def test_jobs_do_not_change_output(self):
        one = enumerate_matroids(5, jobs=1)
        two = enumerate_matroids(5, jobs=2)
        assert one == two

    def test_a_record_accepted_twice_is_kept_twice(self, monkeypatch):
        # a level keeps every acceptance, so a duplicate one reaches the totals
        extend = orderly._extend_records

        def doubled(n, rank, hyps, *args):
            records, candidates = extend(n, rank, hyps, *args)
            if (n, rank, hyps) == (3, 2, (1, 2, 4)):
                records = sorted(records + records[:1], key=CatalogueRecord.sort_key)
            return records, candidates

        monkeypatch.setattr(orderly, "_extend_records", doubled)
        records = enumerate_matroids(4)
        twice = doubled(3, 2, (1, 2, 4))[0][0]
        assert records.count(twice) == 2
        assert len(records) == sum(TABLE1_TOTALS[:5]) + 1

    def test_extend_all_of_empty(self):
        children = extend_all(EMPTY_MATROID.matroid())
        assert len(children) == 2

    def test_accepted_child_deletes_to_parent(self, catalogue6):
        from matcat.canon import distinguished_element

        parents = [r.matroid() for r in catalogue6 if r.n == 4]
        for parent in parents:
            for rec in extend_all(parent):
                child = rec.matroid()
                e = distinguished_element(child)
                assert certificate(child.delete(e)).bytes == certificate(parent).bytes

    def test_acceptance_rule_idempotent(self, catalogue6):
        for rec in catalogue6:
            if rec.n != 5:
                continue
            child = rec.matroid()
            cert = certificate_for(child.n, child.rank, child.hyperplanes)
            e = cert.perm.index(0)
            # rebuilding the child from its distinguished deletion re-accepts it
            parent = child.delete(e)
            found = [
                r for r in extend_all(parent) if r.cert == cert.bytes
            ]
            assert len(found) == 1


def labelled_count_from_classes(records) -> int:
    """Sum of n!/|Aut| over records; the orbit-stabilizer cross-check."""
    total = 0
    for rec in records:
        cert = certificate_for(rec.n, rec.rank, rec.hyperplanes)
        total += math.factorial(rec.n) // cert.aut_order
    return total


def _extend_by_certificate(parent):
    """Direct computation: label the child of every modular cut, keep the
    accepted ones and drop repeats by certificate, first cut first."""
    n = parent.n
    lat = FlatLattice(parent)
    accepted = {}
    for cut in lat.modular_cuts():
        child_hyps, child_rank = lat.extension_hyperplanes(cut)
        cert = certificate_for(n + 1, child_rank, child_hyps)
        ids = orbit_minima(n + 1, cert.generators)
        if ids[n] == ids[cert.perm.index(0)] and cert.bytes not in accepted:
            accepted[cert.bytes] = CatalogueRecord(
                None, n + 1, child_rank, pack_masks(child_hyps), cert.bytes
            )
    return sorted(accepted.values(), key=CatalogueRecord.sort_key)


@pytest.fixture(scope="module")
def extensions7(catalogue7):
    """(parent record, child records, candidate count) for every n <= 7 parent."""
    return [
        (rec, *_extend_records(rec.n, rec.rank, rec.hyperplanes))
        for rec in catalogue7
    ]


class TestOrbitReduction:
    def test_matches_direct_computation_through_six(self, catalogue6):
        for rec in catalogue6:
            parent = rec.matroid()
            assert extend_all(parent) == _extend_by_certificate(parent), rec

    def test_candidates_count_every_cut(self, extensions7):
        by_parent_n = [0] * 8
        for rec, _, candidates in extensions7:
            by_parent_n[rec.n] += candidates
        assert sum(by_parent_n[:7]) == 3498
        assert by_parent_n[7] == 61642

    def test_no_parent_repeats_a_class(self, extensions7):
        for rec, children, _ in extensions7:
            certs = [c.cert for c in children]
            assert len(set(certs)) == len(certs), rec

    def test_children_through_eight(self, extensions7):
        totals = [0] * 9
        for _, children, _ in extensions7:
            for child in children:
                totals[child.n] += 1
        assert totals[1:] == TABLE1_TOTALS[1:]


def _orbit_representatives_by_listing(parent):
    """The loop the pruned walk replaced: list every modular cut, and keep
    the first cut of each orbit under the flat permutations of every
    automorphism generator, found by a breadth-first orbit search.
    Returns (representatives, number of cuts)."""
    lat = FlatLattice(parent)
    gens = certificate(parent).generators if parent.n else ()
    flat_perms = [
        [lat.index[relabel_mask(flat, g)] for flat in lat.flats] for g in gens
    ]
    cuts = lat.modular_cuts()
    reps = []
    seen = set()
    for cut in cuts:
        if cut.members in seen:
            continue
        reps.append(cut)
        orbit = {cut.members}
        queue = [cut.minimal_elements]
        while queue:
            mins = queue.pop()
            for fp in flat_perms:
                image = [fp[i] for i in mins]
                members = 0
                for i in image:
                    members |= lat.up[i]
                if members not in orbit:
                    orbit.add(members)
                    queue.append(image)
        seen |= orbit
    return reps, len(cuts)


class TestPrunedCutWalk:
    def test_matches_listing_every_cut_through_seven(self, extensions7):
        for rec, _, candidates in extensions7:
            parent = rec.matroid()
            want, cut_count = _orbit_representatives_by_listing(parent)
            lat = FlatLattice(parent)
            flat_perms = lat.flat_permutations(certificate(parent).generators)
            walk = list(lat.cut_orbit_representatives(flat_perms))
            assert [cut for cut, _ in walk] == want, rec
            assert sum(size for _, size in walk) == cut_count == candidates, rec

    def test_no_permutations_yield_every_cut(self, catalogue6):
        for rec in catalogue6:
            lat = FlatLattice(rec.matroid())
            walk = list(lat.cut_orbit_representatives())
            assert all(size == 1 for _, size in walk)
            # lexicographic order of the minimal-flat tuples, each once
            tuples = [cut.minimal_elements for cut, _ in walk]
            assert all(a < b for a, b in zip(tuples, tuples[1:]))


class TestMaskCodec:
    def test_round_trip(self):
        for masks in ((), (0x7,), (0x3, 0x1C, 0xFF)):
            assert parse_masks(format_masks(masks)) == masks
        assert format_masks(()) == "-"
        assert format_masks((10, 255)) == "a,ff"

    def test_packed_text_matches(self):
        for masks in ((), (0,), (0x7,), (0x3, 0x1C, 0xFF), (0x100, 0x1FE, 0x7FFF)):
            assert format_packed(pack_masks(masks)) == format_masks(masks)

    def test_parse_keeps_file_order(self):
        assert parse_masks("1c,3") == (0x1C, 0x3)

    def test_malformed(self):
        for text in ("", "x", "1,,2"):
            with pytest.raises(ValueError):
                parse_masks(text)


class TestOracle:
    def test_matches_orderly_through_five(self):
        records = enumerate_matroids(5)
        for n in range(6):
            brute, labeled = brute_force_enumerate(n)
            assert sorted(r.cert for r in brute) == sorted(
                r.cert for r in records if r.n == n
            )
            assert labelled_count_from_classes(brute) == labeled

    def test_labeled_sequence(self):
        labeled = [brute_force_enumerate(n)[1] for n in range(5)]
        assert labeled == [1, 2, 5, 16, 68]

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_enumerate(6)

    def test_only_axiom_violations_are_skipped(self, monkeypatch):
        def broken(n, hyps):
            raise RuntimeError("fault in from_hyperplanes")

        monkeypatch.setattr(Matroid, "from_hyperplanes", broken)
        with pytest.raises(RuntimeError):
            brute_force_enumerate(3)


class TestDualityClosure:
    def test_closed_through_six(self, catalogue6):
        report = verify_duality_closure(catalogue6)
        assert report.ok
        assert report.checked == len(catalogue6)

    def test_self_dual_count_stability(self, catalogue6):
        sd = [
            r
            for r in catalogue6
            if r.n == 6 and r.rank == 3
            and certificate(r.matroid().dual()).bytes == r.cert
        ]
        again = [
            r
            for r in enumerate_matroids(6)
            if r.n == 6 and r.rank == 3
            and certificate(r.matroid().dual()).bytes == r.cert
        ]
        assert len(sd) == len(again) > 0

    def test_rank0_pairs_with_free(self, catalogue6):
        by_cert = {r.cert: r for r in catalogue6}
        for rec in catalogue6:
            if rec.rank == 0:
                d = rec.matroid().dual()
                dc = certificate(d).bytes
                assert by_cert[dc].rank == rec.n


class TestCheckpointing:
    def test_budget_then_resume(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.txt")
        monkeypatch.setattr(orderly, "_CHECKPOINT_EVERY", 1)
        with pytest.raises(ResourceBudgetExceeded):
            enumerate_matroids(6, budget=40, checkpoint_path=path)
        job = load_checkpoint(path)
        records = enumerate_matroids(
            6, checkpoint_path=path, resume_job=job
        )
        assert records == enumerate_matroids(6)

    def test_resume_inside_level_eight(self, tmp_path, catalogue8):
        # the checkpoint holds no generators, so the parents left at level 8
        # are labelled afresh rather than seeded from the level above
        path = str(tmp_path / "ck8.txt")
        with pytest.raises(ResourceBudgetExceeded):
            enumerate_matroids(8, budget=3498 + 30000, checkpoint_path=path)
        job = load_checkpoint(path)
        assert job.level == 7 and 0 < job.next_parent < len(job.parents)
        assert job.generators == {}
        assert enumerate_matroids(8, resume_job=job) == catalogue8

    def test_checkpoint_round_trip(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck2.txt")
        monkeypatch.setattr(orderly, "_CHECKPOINT_EVERY", 2)
        records = enumerate_matroids(4, checkpoint_path=path)
        job = load_checkpoint(path)
        assert job.level == 4
        assert job.parents == [r for r in records if r.n == 4]
        # the parents are the emitted records of the level, stored once
        with open(path) as fh:
            tags = [line.split()[0] for line in fh.readlines()[2:-1]]
        assert tags == ["E"] * len(records)

    def test_pooled_resume(self, tmp_path, catalogue7):
        # stopped inside level 7 by the budget, then resumed, both on a pool
        path = str(tmp_path / "pool.txt")
        with pytest.raises(ResourceBudgetExceeded):
            enumerate_matroids(7, jobs=2, budget=2000, checkpoint_path=path)
        job = load_checkpoint(path)
        assert job.level == 6 and 0 < job.next_parent < len(job.parents)
        records = enumerate_matroids(7, jobs=2, checkpoint_path=path, resume_job=job)
        assert records == catalogue7

    def test_pooled_budget_stop_leaves_the_level(self, tmp_path, monkeypatch):
        # imap queues every parent of the level at once; a pool that is
        # closed and joined after the stop would extend all 306 of level 8
        log = tmp_path / "tasks.txt"
        worker = orderly._worker

        @functools.wraps(worker)  # pickled by name, so the workers run it
        def logged(args):
            with open(log, "a") as fh:
                fh.write(f"{args[0]}\n")
            return worker(args)

        monkeypatch.setattr(orderly, "_worker", logged)
        paths = {jobs: str(tmp_path / f"ck{jobs}.txt") for jobs in (1, 2)}
        with pytest.raises(ResourceBudgetExceeded):
            enumerate_matroids(8, jobs=2, budget=30000, checkpoint_path=paths[2])
        assert 0 < log.read_text().split().count("7") < TABLE1_TOTALS[7]
        job = load_checkpoint(paths[2])
        assert job.level == 7 and 0 < job.next_parent < len(job.parents)
        with pytest.raises(ResourceBudgetExceeded):
            enumerate_matroids(8, budget=30000, checkpoint_path=paths[1])
        with open(paths[1], "rb") as one, open(paths[2], "rb") as two:
            assert one.read() == two.read()

    @pytest.fixture
    def budget_checkpoint(self, tmp_path, monkeypatch):
        """The lines of a real checkpoint of enumerate_matroids(6), taken
        inside a level, with its path."""
        path = tmp_path / "ck4.txt"
        monkeypatch.setattr(orderly, "_CHECKPOINT_EVERY", 1)
        with pytest.raises(ResourceBudgetExceeded):
            enumerate_matroids(6, budget=40, checkpoint_path=str(path))
        lines = path.read_text().splitlines()
        assert any(line.startswith("C ") for line in lines)
        return path, lines

    @staticmethod
    def _with_meta(lines, key, value):
        meta = dict(kv.split("=") for kv in lines[1].split())
        meta[key] = str(value)
        return lines[:1] + [" ".join(f"{k}={v}" for k, v in meta.items())] + lines[2:]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("next_parent", 9999, "next_parent 9999"),
            ("next_parent", -1, "next_parent -1"),
            ("level", 7, "level 7 for max_n=6"),
            ("level", -1, "level -1"),
        ],
    )
    def test_cursor_out_of_range_refused(self, budget_checkpoint, key, value, message):
        path, lines = budget_checkpoint
        resign(path, self._with_meta(lines, key, value))
        with pytest.raises(ValueError, match=f"bad checkpoint {message}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("mask", ["10000", "-1"])
    def test_mask_out_of_range_refused(self, budget_checkpoint, mask):
        path, lines = budget_checkpoint
        tag, n, rank, _, cert = lines[2].split()
        lines[2] = f"{tag} {n} {rank} {mask} {cert}"
        resign(path, lines)
        with pytest.raises(ValueError, match="bad checkpoint mask"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "record, message",
        [
            ("E 3 2 1,2,7 0300", "mask has bits outside E or equals E"),
            ("E 3 2 1,2,9 0300", "mask has bits outside E or equals E"),
            ("E 3 2 2,1,4 0300", "masks not strictly ascending"),
            ("E 3 4 1 0300", "rank 4 outside 0..3"),
            # rank 0 with two hyperplanes, unsorted, one of them E
            ("C 4 0 f,1 0400", "masks not strictly ascending"),
        ],
        ids=["mask_is_E", "bit_outside_E", "not_ascending", "rank_above_n", "child"],
    )
    def test_record_fields_checked_as_in_a_catalogue(
        self, budget_checkpoint, record, message
    ):
        path, lines = budget_checkpoint
        resign(path, lines + [record])
        with pytest.raises(ValueError, match=f"bad checkpoint {message}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("tag", ["C"])
    def test_record_on_the_wrong_level_refused(self, budget_checkpoint, tag):
        path, lines = budget_checkpoint
        # an emitted record, from an earlier level, filed under tag
        stray = next(line for line in lines if line.startswith("E 1 "))
        resign(path, lines + [tag + stray[1:]])
        with pytest.raises(ValueError, match=f"bad checkpoint: a {tag} record"):
            load_checkpoint(str(path))

    def test_emitted_record_above_the_level_refused(self, budget_checkpoint):
        path, lines = budget_checkpoint
        # the checkpoint is taken at level 3; this record is on 6 elements
        resign(path, lines + ["E 6 0 - 0600"])
        with pytest.raises(ValueError, match="bad checkpoint: an E record is on more than 3"):
            load_checkpoint(str(path))

    def test_repeated_emitted_record_refused(self, budget_checkpoint):
        path, lines = budget_checkpoint
        repeat = next(line for line in lines if line.startswith("E 2 "))
        resign(path, lines + [repeat])
        with pytest.raises(ValueError, match="bad checkpoint: two E or C records share"):
            load_checkpoint(str(path))

    def test_repeated_child_record_refused(self, budget_checkpoint):
        path, lines = budget_checkpoint
        repeat = next(line for line in lines if line.startswith("C "))
        resign(path, lines + [repeat])
        with pytest.raises(ValueError, match="bad checkpoint: two E or C records share"):
            load_checkpoint(str(path))

    def test_unsigned_edit_refused(self, budget_checkpoint):
        # the cursor edit of test_cursor_out_of_range_refused, footer kept
        path, lines = budget_checkpoint
        path.write_text("\n".join(self._with_meta(lines, "next_parent", 9999)) + "\n")
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(str(path))

    def test_consistent_checkpoint_still_resumes(self, budget_checkpoint):
        path, lines = budget_checkpoint
        job = load_checkpoint(str(path))
        assert 0 < job.next_parent <= len(job.parents)
        records = enumerate_matroids(6, resume_job=job)
        assert totals_by_n(records, 6) == TABLE1_TOTALS[:7]

    def test_unsupported_range(self):
        with pytest.raises(ValueError):
            enumerate_matroids(10)
