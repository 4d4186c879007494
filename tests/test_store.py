import pytest

from examples import f8, l8, p2_doubleprime, p2_prime, p3
from signing import resign
from matcat.canon import certificate
from matcat.core import uniform
from matcat.named import ag32, ag32_prime, p1, p8, vamos
from matcat.orderable import base_orderable, strongly_base_orderable, transversal
from matcat.orderly import CatalogueRecord, pack_masks
from matcat.props import classify, ingleton_violating
from matcat.represent import representable
from matcat.errors import ChecksumMismatch, FormatError
from matcat.store import (
    CATALOGUE_HEADER,
    COLUMNS,
    SEARCH_COLUMNS,
    RowOptions,
    TypeMismatch,
    UnknownColumn,
    assign_ids,
    build_property_table,
    compute_row,
    missing_base_triples,
    parse_property_tsv,
    parse_query,
    query,
    read_catalogue,
    render_property_tsv,
    resolve_cross_references,
    write_catalogue,
)


@pytest.fixture(scope="module")
def catalogued(tmp_path_factory, catalogue6):
    path = tmp_path_factory.mktemp("cat") / "catalogue.txt"
    write_catalogue(assign_ids(catalogue6), str(path))
    return str(path)


@pytest.fixture(scope="module")
def rows6(catalogued):
    return build_property_table(read_catalogue(catalogued))


class TestCatalogueFile:
    def test_round_trip_identity(self, catalogued, catalogue6):
        back = read_catalogue(catalogued)
        assert [(r.n, r.rank, r.hyp_bytes) for r in back] == [
            (r.n, r.rank, r.hyp_bytes) for r in sorted(catalogue6, key=lambda x: x.sort_key())
        ]
        assert [r.id for r in back] == list(range(len(back)))

    def test_checksum_detected(self, catalogued, tmp_path):
        lines = open(catalogued).read().splitlines()
        lines[3] = lines[3] + " "
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ChecksumMismatch):
            read_catalogue(str(bad))

    def test_unsorted_line_rejected(self, catalogue6, tmp_path):
        recs = assign_ids(catalogue6)
        swapped = recs[:]
        a, b = 5, 40  # records in different (n, rank) blocks
        swapped[a], swapped[b] = (
            type(recs[a])(recs[a].id, recs[b].n, recs[b].rank, recs[b].hyp_bytes),
            type(recs[b])(recs[b].id, recs[a].n, recs[a].rank, recs[a].hyp_bytes),
        )
        path = tmp_path / "unsorted.txt"
        from matcat.store import _record_line

        resign(path, [CATALOGUE_HEADER, *map(_record_line, swapped)])
        with pytest.raises(FormatError):
            read_catalogue(str(path))

    def test_descending_masks_rejected(self, tmp_path):
        path = tmp_path / "descending.txt"
        resign(path, [CATALOGUE_HEADER, "0 2 2 2,1"])
        with pytest.raises(FormatError, match="masks not strictly ascending"):
            read_catalogue(str(path))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1 1 1 zz", "expected integers"),
            ("1 1 one 0", "expected integers"),
            ("2 1 1 0", "ids not dense"),
            ("1 0 0 -", "not sorted by"),
            ("1 1 1", "expected `id n rank masks`"),
            ("1 70 2 1", "n = 70 outside 0..15"),
            ("1 -1 0 -", "n = -1 outside 0..15"),
            ("1 3 4 1", "rank 4 outside 0..3"),
            ("1 3 -1 1", "rank -1 outside 0..3"),
            ("1 3 2 1,2,ffff", "outside E or equals E"),
            ("1 3 2 1,2,7", "outside E or equals E"),
            ("1 3 2 -1,2", "outside E or equals E"),
            ("1 3 2 1,1,2", "masks not strictly ascending"),
        ],
    )
    def test_bad_record_reports_its_line(self, tmp_path, bad, message):
        path = tmp_path / "bad.txt"
        resign(path, [CATALOGUE_HEADER, "0 1 0 -", bad, "2 1 1 0"])
        with pytest.raises(FormatError, match=message) as info:
            read_catalogue(str(path))
        assert info.value.line == 3
        assert not isinstance(info.value, ChecksumMismatch)
        # the checksum is reported first when it fails as well
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [f"#sha256 {'0' * 64}"]) + "\n")
        with pytest.raises(ChecksumMismatch):
            read_catalogue(str(path))

    def test_family_that_is_no_matroid_still_reads(self, tmp_path):
        # the range checks are cheap; the axioms are not checked on read
        path = tmp_path / "family.txt"
        resign(path, [CATALOGUE_HEADER, "0 3 2 1,2"])
        [rec] = read_catalogue(str(path))
        assert (rec.n, rec.rank, rec.hyperplanes) == (3, 2, (1, 2))

    def test_missing_footer_reports_last_line(self, catalogued, tmp_path):
        lines = open(catalogued).read().splitlines()[:-1]
        path = tmp_path / "nofooter.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="missing checksum footer") as info:
            read_catalogue(str(path))
        assert info.value.line == len(lines)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("nonsense\n")
        with pytest.raises(FormatError):
            read_catalogue(str(p))

    def test_expected_record_count_through_six(self, catalogued):
        assert len(read_catalogue(catalogued)) == 1 + 2 + 4 + 8 + 17 + 38 + 98


class TestPropertyTable:
    def test_tsv_round_trip(self, rows6):
        tsv = render_property_tsv(rows6)
        rows2 = parse_property_tsv(tsv)
        ordered = sorted(rows6, key=lambda r: r["id"])
        assert rows2 == [{c: r[c] for c in COLUMNS} for r in ordered]

    def test_rerun_idempotent(self, catalogued):
        rows_a = build_property_table(read_catalogue(catalogued))
        rows_b = build_property_table(read_catalogue(catalogued))
        assert render_property_tsv(rows_a) == render_property_tsv(rows_b)

    def test_dual_id_involution(self, rows6):
        by_id = {r["id"]: r for r in rows6}
        for row in rows6:
            assert by_id[row["dualId"]]["dualId"] == row["id"]
            if row["dualId"] == row["id"]:
                assert row["rank"] * 2 == row["n"]

    def test_simplification_points_to_simple(self, rows6):
        by_id = {r["id"]: r for r in rows6}
        for row in rows6:
            target = by_id[row["simplificationId"]]
            assert target["simple"]

    def test_simple_rows_are_their_own_simplification(self, rows6):
        for row in rows6:
            assert (row["simplificationId"] == row["id"]) == row["simple"]

    def test_uncomputed_columns_render_as_dash(self, catalogue6):
        records = assign_ids([r for r in catalogue6 if r.n <= 2])
        rows = resolve_cross_references(
            [compute_row(rec, RowOptions(searches=False)) for rec in records]
        )
        tsv = render_property_tsv(rows)
        assert "\t-\t" in tsv
        rows2 = parse_property_tsv(tsv)
        assert all(r["repGF2"] is None for r in rows2)


    @pytest.mark.parametrize(
        "rank, labellings", [(2, [(5, 2), (5, 3)]), (0, [(5, 0), (5, 5), (0, 0)])]
    )
    def test_compute_row_labels_each_matroid_once(self, monkeypatch, rank, labellings):
        # U(2,5) is simple, so its simplification is itself and its cached
        # certificate is reused; U(0,5), five loops, simplifies to U(0,0)
        from matcat import canon
        from matcat.core import uniform
        from matcat.orderly import CatalogueRecord, pack_masks
        from matcat.store import compute_row

        m = uniform(rank, 5)
        calls = []
        certificate_for = canon.certificate_for

        def counted(n, r, hyps, *known):
            calls.append((n, r))
            return certificate_for(n, r, hyps, *known)

        monkeypatch.setattr(canon, "certificate_for", counted)
        compute_row(CatalogueRecord(0, 5, rank, pack_masks(m.hyperplanes)), RowOptions())
        assert calls == labellings


def reference_row(rec):
    """compute_row's full row with every column searched on its own, none
    read off another."""
    m = rec.matroid()
    cert = certificate(m)
    row = {
        "id": rec.id,
        "n": m.n,
        "rank": m.rank,
        **classify(m),
        "autOrder": cert.aut_order,
        "numOrbits": cert.orbit_count,
        "connectivity": m.connectivity(),
        "dualId": None,
        "simplificationId": None,
    }
    for q in (2, 3, 4, 5):
        row[f"repGF{q}"] = representable(m, q) is not None
    row["ingletonViolating"] = ingleton_violating(m) is not None
    row["baseOrderable"] = base_orderable(m)
    row["stronglyBaseOrderable"] = strongly_base_orderable(m) if row["baseOrderable"] else False
    row["transversal"] = transversal(m) is not None
    row["_dualCert"] = certificate(m.dual(), cert.generators).bytes
    row["_simplificationCert"] = certificate(m.simplify()).bytes
    row["_cert"] = cert.bytes
    return row


@pytest.fixture(scope="module")
def shortcut_records(catalogue7, high_rank8):
    """Every class with n <= 7, high_rank8, and the named 8-element matroids,
    among them the Ingleton violator V8 (no class with n <= 7 violates)."""
    named = [ag32(), ag32_prime(), f8(), l8(), p1(), p2_doubleprime(), p2_prime(),
             p3(), p8(), vamos()]
    return list(catalogue7) + [
        CatalogueRecord(len(catalogue7) + i, m.n, m.rank, pack_masks(m.hyperplanes))
        for i, m in enumerate(high_rank8 + named)
    ]


@pytest.fixture(scope="module")
def reference_rows(shortcut_records):
    return [reference_row(rec) for rec in shortcut_records]


class TestImpliedColumns:
    """compute_row reads columns off each other; reference_row searches them."""

    @pytest.mark.parametrize(
        "opts", [RowOptions(), RowOptions(searches=False)], ids=["all", "no-searches"]
    )
    def test_rows_match_the_searches(self, shortcut_records, reference_rows, opts):
        # without the searches, the full row with exactly SEARCH_COLUMNS None
        left_out = {} if opts.searches else dict.fromkeys(SEARCH_COLUMNS)
        bad = [
            rec.id for rec, full in zip(shortcut_records, reference_rows)
            if compute_row(rec, opts) != {**full, **left_out}
        ]
        assert bad == []

    @pytest.mark.parametrize(
        "rank, n, searched",
        # U(2,3) is binary and ternary, U(2,4) ternary but not binary; both
        # are transversal, hence strongly base orderable
        [(2, 3, [2, 3]), (2, 4, [2, 3, 4, 5])],
    )
    def test_implied_columns_are_not_searched(self, monkeypatch, rank, n, searched):
        from matcat import orderable, props, represent

        calls = []

        def count(module, name):
            real = getattr(module, name)

            def counted(m, *args):
                calls.append((name, *args))
                return real(m, *args)

            monkeypatch.setattr(module, name, counted)

        for module, name in [(represent, "representable"),
                             (props, "ingleton_violating"),
                             (orderable, "base_orderable"),
                             (orderable, "strongly_base_orderable")]:
            count(module, name)
        m = uniform(rank, n)
        row = compute_row(CatalogueRecord(0, n, rank, pack_masks(m.hyperplanes)),
                          RowOptions())
        assert calls == [("representable", q) for q in searched]
        assert [row[f"repGF{q}"] for q in (2, 3, 4, 5)] == [n == 3, True, True, True]
        assert row["ingletonViolating"] is False
        assert row["baseOrderable"] and row["stronglyBaseOrderable"] and row["transversal"]


class TestQuery:
    def test_count_distinct_bases_at_63(self, rows6):
        res = query(
            rows6,
            parse_query("n=6 and rank=3"),
            group_by=("n", "rank"),
            aggregate="count-distinct",
            distinct_column="numBases",
        )
        assert res == [(6, 3, 19)]

    def test_simple_filter_count(self, rows6):
        res = query(rows6, parse_query("simple=true and n=6"), aggregate="count")
        assert res == [(26,)]

    def test_empty_filter_counts_everything(self, rows6):
        res = query(rows6, parse_query(""), aggregate="count")
        assert res == [(len(rows6),)]

    def test_rank0_rows(self, rows6):
        res = query(rows6, parse_query("rank=0"), aggregate=None)
        assert len(res) == 7  # one per ground size 0..6

    def test_operators(self, rows6):
        le = query(rows6, parse_query("n<=3"), aggregate="count")[0][0]
        eq = sum(
            query(rows6, parse_query(f"n={k}"), aggregate="count")[0][0]
            for k in range(4)
        )
        assert le == eq == 15

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            parse_query("bogus=1")

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            parse_query("n=abc")

    @pytest.mark.parametrize(
        "text",
        ["n=true", "rank=false", "simple=1", "simple>0", "simple=inf",
         "repGF2!=0", "numBases>=yes"],
    )
    def test_literal_of_the_wrong_type(self, text):
        # bool is a subclass of int, so before parse_query checked the
        # column, "n=true" matched the n = 1 rows and "simple=1" the simple ones
        with pytest.raises(TypeMismatch):
            parse_query(text)

    @pytest.mark.parametrize(
        "text, count",
        [("simple=true and n=6", 26), ("simple!=false and n=6", 26),
         ("connectivity=inf and n<=2", 4), ("minCircuitSize<inf and n=1", 1)],
    )
    def test_literals_of_the_column_type(self, rows6, text, count):
        assert query(rows6, parse_query(text), aggregate="count") == [(count,)]

    def test_row_order_independence(self, rows6):
        import random

        shuffled = rows6[:]
        random.Random(0).shuffle(shuffled)
        q = parse_query("n=6")
        a = query(rows6, q, group_by=("rank",), aggregate="count")
        b = query(shuffled, q, group_by=("rank",), aggregate="count")
        assert a == b


class TestMissingBases:
    def test_through_five_none(self, rows6):
        assert missing_base_triples(rows6, 5) == []

    def test_through_six_exactly_one(self, rows6):
        assert missing_base_triples(rows6, 6) == [(6, 3, 11)]

    def test_cell_52_full(self, rows6):
        present = {
            r["numBases"] for r in rows6 if r["n"] == 5 and r["rank"] == 2
        }
        assert present == set(range(1, 11))  # every 1..C(5,2)

    def test_sizes_beyond_the_table_are_refused(self, rows6):
        with pytest.raises(ValueError, match="holds n <= 6"):
            missing_base_triples(rows6, 7)
        with pytest.raises(ValueError, match="no rows"):
            missing_base_triples([], 0)
