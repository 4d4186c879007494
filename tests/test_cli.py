import hashlib
import json
import time

import pytest

from matcat import paving, store
from matcat.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from matcat.core import uniform
from matcat.errors import BudgetExceeded
from matcat.named import p8, vamos
from matcat.orderly import extend_all, pack_masks
from matcat.paving import johnson_graph, johnson_search, save_iset_checkpoint
from signing import resign
from matcat.store import (
    COLUMNS,
    SEARCH_COLUMNS,
    TABLE_HEADER,
    CatalogueRecord,
    assign_ids,
    parse_property_tsv,
    write_catalogue,
)


# the root of a J(6,3) search as the version-2 and version-3 formats wrote it
V2_J63_ROOT = b"MCJK\x02" + json.dumps({
    "n": 6, "vertices": list(johnson_graph(6, 3).vertices), "conflict_threshold": 2,
    "z2": True, "cells": None, "counts": {}, "stack": [[]], "nodes": 0, "max_size": None,
}).encode()
V3_J63_ROOT = b'MCJK\x03{"n":6,"k":3,"counts":{},"stack":[[]],"nodes":0}'


def _stopped_enum(tmp_path, max_n="5", budget="20"):
    """The path and lines of the checkpoint of an `enum` run stopped by its budget."""
    ck = tmp_path / "stopped.ckpt"
    assert main(["enum", "--max-n", max_n, "--budget", budget, "--out", f"{ck}.cat",
                 "--checkpoint", str(ck)]) == EXIT_BUDGET
    return ck, ck.read_text().splitlines()


def _resume_errors(capsys, ck, *argv):
    """The stderr lines of `matcat argv --checkpoint ck --resume`, which exits 5."""
    capsys.readouterr()
    assert main([*argv, "--checkpoint", str(ck), "--resume"]) == EXIT_IO
    return capsys.readouterr().err.strip().splitlines()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def small_catalogue(workdir):
    path = str(workdir / "cat5.txt")
    assert main(["enum", "--max-n", "5", "--out", path]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def small_table(workdir, small_catalogue):
    path = str(workdir / "props5.tsv")
    assert (
        main(["props", "--catalogue", small_catalogue, "--out", path]) == EXIT_OK
    )
    return path


class TestEnum:
    def test_table_output(self, capsys, workdir):
        path = str(workdir / "cat3.txt")
        assert main(["enum", "--max-n", "3", "--out", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Total     1     2     4     8" in out

    def test_nine_needs_no_flag(self, tmp_path):
        _stopped_enum(tmp_path, max_n="9", budget="10")  # exit 3, not a usage error

    def test_budget_exit_code(self, tmp_path):
        ck, lines = _stopped_enum(tmp_path)
        assert lines[0] == "#matcat-enum-checkpoint v3"

    def test_resume_after_budget(self, tmp_path, small_catalogue):
        ck, _ = _stopped_enum(tmp_path)
        out = f"{ck}.cat"
        assert main(["enum", "--max-n", "5", "--out", out, "--checkpoint", str(ck),
                     "--resume"]) == EXIT_OK
        assert open(out).read() == open(small_catalogue).read()

    @pytest.mark.parametrize("content", [None, "not a checkpoint\n", ""])
    def test_resume_unreadable_checkpoint(self, tmp_path, capsys, content):
        ck = tmp_path / "bad.ckpt"
        if content is not None:
            ck.write_text(content)
        err = _resume_errors(capsys, ck, "enum", "--max-n", "3", "--out", f"{ck}.cat")
        assert len(err) == 1 and err[0].startswith("cannot load checkpoint")

    def test_resume_inconsistent_checkpoint(self, tmp_path, capsys):
        ck, lines = _stopped_enum(tmp_path)
        meta = lines[1].split()
        lines[1] = " ".join(
            "next_parent=9999" if kv.startswith("next_parent=") else kv for kv in meta
        )
        resign(ck, lines)
        err = _resume_errors(capsys, ck, "enum", "--max-n", "5", "--out", f"{ck}.cat")
        assert len(err) == 1 and "bad checkpoint next_parent 9999" in err[0]

    def test_resume_checkpoint_with_a_bad_record(self, tmp_path, capsys):
        ck, lines = _stopped_enum(tmp_path)
        # rank 0 with two hyperplanes, unsorted, one of them E
        resign(ck, lines + ["C 4 0 f,1 0400"])
        err = _resume_errors(capsys, ck, "enum", "--max-n", "5", "--out", f"{ck}.cat")
        assert err == ["cannot load checkpoint: bad checkpoint masks not strictly ascending"]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("E 5 0 - 0500", "an E record is on more than 3 elements"),
            ("E 1 0 - 0100", "two E or C records share a certificate"),
            # the checkpoint's first C line, repeated
            ("C", "two E or C records share a certificate"),
        ],
        ids=["above_level", "repeated", "repeated_child"],
    )
    def test_resume_checkpoint_with_a_bad_emitted_record(
        self, tmp_path, capsys, line, message
    ):
        ck, lines = _stopped_enum(tmp_path)
        assert "level=3 " in lines[1]
        if line == "C":
            line = next(x for x in lines if x.startswith("C "))
        resign(ck, lines + [line])
        err = _resume_errors(capsys, ck, "enum", "--max-n", "5", "--out", f"{ck}.cat")
        assert err == [f"cannot load checkpoint: bad checkpoint: {message}"]

    def test_resume_version_one_checkpoint(self, tmp_path, capsys):
        # format v1 also held the parents as P records, and v1 and v2 had no
        # footer; neither is read
        ck, (header, *lines, _) = _stopped_enum(tmp_path)
        assert header == "#matcat-enum-checkpoint v3"
        parents = [line.replace("E", "P", 1) for line in lines if line.startswith("E 3 ")]
        for version, extra in ("v1", parents), ("v2", []):
            ck.write_text("\n".join([f"#matcat-enum-checkpoint {version}", *lines, *extra]) + "\n")
            err = _resume_errors(capsys, ck, "enum", "--max-n", "5", "--out", f"{ck}.cat")
            assert err == ["cannot load checkpoint: line 1: expected header "
                           f"'#matcat-enum-checkpoint v3', not '#matcat-enum-checkpoint {version}'"]

    def test_resume_truncated_checkpoint(self, tmp_path, capsys):
        # the last three lines cut: 35/91 for n = 5/6 instead of 38/98 if read
        ck, lines = _stopped_enum(tmp_path, "6", "300")
        ck.write_text("\n".join(lines[:-3]) + "\n")
        err = _resume_errors(capsys, ck, "enum", "--max-n", "6", "--out", f"{ck}.cat")
        assert err == [f"cannot load checkpoint: line {len(lines) - 3}: missing checksum footer"]

    def test_resume_checkpoint_for_other_max_n(self, tmp_path):
        ck, _ = _stopped_enum(tmp_path)
        rc = main(["enum", "--max-n", "4", "--out", f"{ck}.cat", "--checkpoint", str(ck),
                   "--resume"])
        assert rc == EXIT_USAGE

    def test_jobs_identical_output(self, workdir, small_catalogue):
        alt = str(workdir / "cat5_jobs2.txt")
        assert main(["enum", "--max-n", "5", "--jobs", "2", "--out", alt]) == EXIT_OK
        assert open(alt).read() == open(small_catalogue).read()


class TestProps:
    def test_table_prints_published_rows(self, capsys, small_catalogue, workdir):
        out_path = str(workdir / "p.tsv")
        assert main(["props", "--catalogue", small_catalogue, "--out", out_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Simple matroids" in out
        assert "Total     1     1     1     2     4     9" in out

    def test_idempotent_tsv(self, small_catalogue, workdir):
        a = str(workdir / "a.tsv")
        b = str(workdir / "b.tsv")
        assert main(["props", "--catalogue", small_catalogue, "--out", a]) == EXIT_OK
        assert main(["props", "--catalogue", small_catalogue, "--out", b]) == EXIT_OK
        assert open(a).read() == open(b).read()

    def test_missing_catalogue(self, workdir):
        rc = main(["props", "--catalogue", str(workdir / "nope.txt"),
                   "--out", str(workdir / "out.tsv")])
        assert rc == 5

    def test_empty_catalogue(self, tmp_path, capsys):
        cat = str(tmp_path / "empty.txt")
        out = tmp_path / "empty.tsv"
        write_catalogue([], cat)
        assert main(["props", "--catalogue", cat, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == TABLE_HEADER + "\n" + "\t".join(COLUMNS) + "\n"
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == f"wrote 0 rows to {out}"

    @pytest.mark.parametrize("record", ["0 3 2 1,2,ffff", "0 70 2 1", "0 3 4 1"])
    def test_out_of_range_record(self, tmp_path, capsys, record):
        from matcat.store import CATALOGUE_HEADER

        body = f"{CATALOGUE_HEADER}\n{record}\n"
        cat = tmp_path / "range.txt"
        cat.write_text(body + f"#sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")
        rc = main(["props", "--catalogue", str(cat), "--out", str(tmp_path / "o.tsv")])
        assert rc == EXIT_IO
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("cannot read catalogue: line 2:")

    @pytest.mark.parametrize(
        "command", [["props"], ["exminors", "--field", "2", "--max-n", "3"]]
    )
    def test_repeated_mask_record(self, tmp_path, capsys, command):
        # were it read, the repeated hyperplane would count twice in numHyperplanes
        from matcat.store import CATALOGUE_HEADER

        body = f"{CATALOGUE_HEADER}\n0 3 2 1,1,2\n"
        cat = tmp_path / "repeated.txt"
        cat.write_text(body + f"#sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")
        argv = command + ["--catalogue", str(cat)]
        if command[0] == "props":
            argv += ["--out", str(tmp_path / "o.tsv")]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["cannot read catalogue: line 2: masks not strictly ascending"]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# output digests pinned before the record type and the property-table
# driver were each merged into one; catalogue and TSV bytes must not move.
# TSV digests are taken under the version 1 header, the mixed one with every column on
CATALOGUE6_SHA256 = "70aaf061c5e5c4b7544fbb8e42fbeba73165ad6a52d9a881dc2fd9a02a78e67e"
CATALOGUE8_SHA256 = "11c94830cdfc324823b1c1e89555452292603049d5bbd03430ff459cd025cccb"
PROPS6_SHA256 = "f60659955a252ef11a4be1d2972791de71195ca680df7500e881697609f876f7"
MIXED_PROPS_SHA256 = "06926ead0f13ae69828037c54c4b185bf85b9772afcac27a6984d35458027f17"
V1_TABLE_HEADER = "#matcat-properties v1"


def _v1_sha256(path):
    """The sha256 of a version 2 property table with its header read back as version 1."""
    header, body = open(path).read().split("\n", 1)
    assert header == TABLE_HEADER
    return hashlib.sha256(f"{V1_TABLE_HEADER}\n{body}".encode()).hexdigest()


class TestPinnedOutputs:
    @pytest.fixture(scope="class")
    def catalogue6_path(self, workdir):
        path = str(workdir / "pinned6.txt")
        assert main(["enum", "--max-n", "6", "--out", path]) == EXIT_OK
        return path

    @pytest.fixture(scope="class")
    def mixed_catalogue(self, workdir, catalogue6):
        """The n <= 6 classes, three 8-element and three 9-element records."""
        mats = [rec.matroid() for rec in catalogue6]
        mats += [uniform(2, 8), vamos(), p8()]
        mats += [uniform(3, 9)] + [rec.matroid() for rec in extend_all(vamos())[:2]]
        mats.sort(key=lambda m: (m.n, m.rank))
        path = str(workdir / "mixed.txt")
        write_catalogue(
            [
                CatalogueRecord(i, m.n, m.rank, pack_masks(m.hyperplanes))
                for i, m in enumerate(mats)
            ],
            path,
        )
        return path

    def test_enum_catalogue(self, catalogue6_path):
        assert _sha256(catalogue6_path) == CATALOGUE6_SHA256

    def test_catalogue_through_eight(self, catalogue8, tmp_path):
        path = str(tmp_path / "pinned8.txt")
        write_catalogue(assign_ids(catalogue8), path)
        assert _sha256(path) == CATALOGUE8_SHA256

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_props_tsv(self, catalogue6_path, tmp_path, jobs):
        out = str(tmp_path / "p6.tsv")
        assert main(["props", "--catalogue", catalogue6_path, "--out", out,
                     "--jobs", jobs]) == EXIT_OK
        assert _v1_sha256(out) == PROPS6_SHA256

    def test_mixed_sizes_follow_block_options(self, mixed_catalogue, tmp_path):
        out = str(tmp_path / "mixed.tsv")
        assert main(["props", "--catalogue", mixed_catalogue, "--out", out,
                     "--jobs", "1"]) == EXIT_OK
        assert TABLE_HEADER == "#matcat-properties v2"
        assert _v1_sha256(out) == MIXED_PROPS_SHA256
        with open(out) as fh:
            rows = parse_property_tsv(fh.read())
        assert {row["n"] for row in rows} == {0, 1, 2, 3, 4, 5, 6, 8, 9}
        # every column through n = 8; the search-heavy ones are `-` at n = 9
        for row in rows:
            assert {row[c] is None for c in SEARCH_COLUMNS} == {row["n"] == 9}, row["id"]


class TestQuery:
    def test_missing_bases_through_five(self, capsys, small_table):
        assert main(["query", "--missing-bases", "--max-n", "5",
                     "--table", small_table]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "none"

    @pytest.mark.parametrize("max_n", ["6", "9"])
    def test_missing_bases_beyond_the_table(self, capsys, small_table, monkeypatch,
                                            max_n):
        # sizes the table does not hold are absent, not missing; the check
        # comes before the loop over the base counts
        monkeypatch.setattr(store, "math", None)
        rc = main(["query", "--missing-bases", "--max-n", max_n, "--table", small_table])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"query error: max-n {max_n} is above the table, which holds n <= 5\n"
        )

    def test_count_distinct(self, capsys, small_table):
        assert main([
            "query", "n=5 and rank=2", "--table", small_table,
            "--count-distinct", "numBases", "--group-by", "n,rank",
        ]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "5\t2\t10"

    def test_rank0_rows(self, capsys, small_table):
        assert main(["query", "rank=0", "--table", small_table]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6

    def test_version1_table_with_dashes(self, tmp_path, capsys, small_table):
        # a version 1 table that left repGF5 out at n = 5; `-` matches no comparison
        _, columns, *lines = open(small_table).read().splitlines()
        rows = [line.split("\t") for line in lines]
        for cells in rows:
            if cells[COLUMNS.index("n")] == "5":
                cells[COLUMNS.index("repGF5")] = "-"
        table = tmp_path / "v1.tsv"
        table.write_text("\n".join([V1_TABLE_HEADER, columns, *map("\t".join, rows)]) + "\n")
        parsed = parse_property_tsv(table.read_text())
        assert [row["repGF5"] for row in parsed if row["n"] == 5] == [None] * 38
        assert main(["query", "repGF5=true", "--group-by", "n", "--table", str(table)]) == EXIT_OK
        assert capsys.readouterr().out.split() == "0 1 1 2 2 4 3 8 4 17".split()

    def test_bad_expression(self, capsys, small_table):
        rc = main(["query", "bogus=1", "--table", small_table, "--count"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("expr", ["rank=true", "simple=1"])
    def test_literal_of_the_wrong_type(self, capsys, small_table, expr):
        # "rank=true" once listed the rank-1 records
        assert main(["query", expr, "--table", small_table]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("query error: ")

    @pytest.mark.parametrize(
        "body, line",
        [
            ("", 2),
            ("\t".join(COLUMNS) + "\n" + "\t".join(["x"] * len(COLUMNS)) + "\n", 3),
        ],
    )
    def test_malformed_table(self, tmp_path, capsys, body, line):
        table = tmp_path / "bad.tsv"
        table.write_text(TABLE_HEADER + "\n" + body)
        assert main(["query", "--count", "--table", str(table)]) == EXIT_IO
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [err[0]] and err[0].startswith(
            f"cannot read property table: line {line}:"
        )


class TestOracleAndJohnson:
    def test_oracle_passes(self, capsys):
        assert main(["oracle", "--max-n", "3"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_johnson_counts(self, capsys):
        assert main(["johnson", "--n", "6", "--k", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total\t6" in out

    def test_johnson_self_dual(self, capsys):
        assert main(["johnson", "--n", "6", "--k", "3", "--self-dual"]) == EXIT_OK
        assert "self-dual" in capsys.readouterr().out

    def test_johnson_estimate(self, capsys):
        assert main([
            "johnson", "--n", "7", "--k", "3", "--estimate",
            "--prefix-size", "2", "--fraction", "1.0", "--seed", "4",
        ]) == EXIT_OK
        assert "estimate 14" in capsys.readouterr().out

    def test_johnson_estimate_prefix_zero(self, capsys):
        assert main(["johnson", "--n", "7", "--k", "3", "--estimate",
                     "--prefix-size", "0"]) == EXIT_OK
        assert "estimate 14" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--fraction", "nan", "--fraction must lie in (0, 1]"),
            ("--fraction", "inf", "--fraction must lie in (0, 1]"),
            ("--fraction", "3", "--fraction must lie in (0, 1]"),
            ("--fraction", "-1", "--fraction must lie in (0, 1]"),
            ("--fraction", "0", "--fraction must lie in (0, 1]"),
            ("--prefix-size", "-2", "--prefix-size must be at least 0"),
        ],
    )
    def test_johnson_estimate_bad_argument(self, capsys, monkeypatch, flag, value,
                                           message):
        def no_search(*args, **kwargs):
            raise AssertionError("search started on a refused argument")

        monkeypatch.setattr(paving, "johnson_graph", no_search)
        monkeypatch.setattr(paving, "estimate_iset_count", no_search)
        rc = main(["johnson", "--n", "7", "--k", "3", "--estimate", flag, value])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [message]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "6", "--nonsparse-rank", "3", "--only-k", "9"],
             "--only-k must lie in 4..5 (rank + 1 to n - 1)"),
            (["--n", "6", "--nonsparse-rank", "3", "--only-k", "3"],
             "--only-k must lie in 4..5 (rank + 1 to n - 1)"),
            (["--n", "6", "--nonsparse-rank", "3", "--only-k", "1"],
             "--only-k must lie in 4..5 (rank + 1 to n - 1)"),
            (["--n", "16", "--nonsparse-rank", "3", "--only-k", "5"],
             "--nonsparse-rank needs 1 <= n <= 12"),
            (["--n", "13", "--nonsparse-rank", "3"],
             "--nonsparse-rank needs 1 <= n <= 12"),
            (["--n", "-3", "--nonsparse-rank", "2"],
             "--nonsparse-rank needs 1 <= n <= 12"),
            (["--n", "6", "--k", "3", "--only-k", "4"],
             "--only-k needs --nonsparse-rank"),
            (["--n", "8", "--self-dual", "--only-k", "5"],
             "--only-k needs --nonsparse-rank"),
        ],
    )
    def test_johnson_nonsparse_out_of_range(self, capsys, monkeypatch, argv, message):
        def no_search(*args, **kwargs):
            raise AssertionError("search started on a refused argument")

        monkeypatch.setattr(paving.IsetSearch, "run", no_search)
        assert main(["johnson", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [message]

    @pytest.mark.parametrize("only_k,line", [("4", "total 2"), ("5", "total 1")])
    def test_johnson_nonsparse_range_ends(self, capsys, only_k, line):
        rc = main(["johnson", "--n", "6", "--nonsparse-rank", "3", "--only-k", only_k])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == line

    @pytest.mark.parametrize(
        "content",
        [
            None, b"garbage", b"MCJK", b"MCJK\x01garbage", b"MCJK\x01",
            b"MCJK\x02garbage", b"MCJK\x02{}", b"MCJK\x02[]",
            pytest.param(V2_J63_ROOT, id="v2-payload"),
            b"MCJK\x03garbage", b"MCJK\x03{}", b"MCJK\x03[]",
            pytest.param(V3_J63_ROOT, id="v3-payload"),
            b"#matcat-johnson-checkpoint v4\n",
            b"#matcat-johnson-checkpoint v4\nn=6 k=3 nodes=0 counts=-\nS -\n",
            b"#matcat-johnson-checkpoint v4\nn=6 k=3 nodes=0 counts=-\nS -\n#sha256 0\n",
        ],
    )
    def test_johnson_resume_unreadable_checkpoint(self, tmp_path, capsys, content):
        ck = tmp_path / "bad.jck"
        if content is not None:
            ck.write_bytes(content)
        err = _resume_errors(capsys, ck, "johnson", "--n", "6", "--k", "3")
        assert len(err) == 1 and err[0].startswith("cannot load checkpoint")

    @pytest.mark.parametrize("n,k", [(9, 2), (6, 2), (7, 3)])
    def test_johnson_resume_other_graph(self, tmp_path, capsys, n, k):
        ck = str(tmp_path / "j63.jck")
        rc = main(["johnson", "--n", "6", "--k", "3", "--checkpoint", ck,
                   "--budget", "2"])
        assert rc == EXIT_BUDGET
        capsys.readouterr()
        rc = main(["johnson", "--n", str(n), "--k", str(k), "--checkpoint", ck,
                   "--resume"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"checkpoint is not a J({n},{k})")
        rc = main(["johnson", "--n", "6", "--k", "3", "--checkpoint", ck, "--resume"])
        assert rc == EXIT_OK
        assert "total\t6" in capsys.readouterr().out

    def test_johnson_resume_missing_stack_line(self, tmp_path, capsys):
        # one of the 7 stacked families dropped: total 58 instead of 207 if read
        ck = tmp_path / "j84.jck"
        assert main(["johnson", "--n", "8", "--k", "4", "--budget", "40",
                     "--checkpoint", str(ck)]) == EXIT_BUDGET
        lines = ck.read_text().splitlines()
        assert len([line for line in lines if line.startswith("S ")]) == 7
        ck.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        err = _resume_errors(capsys, ck, "johnson", "--n", "8", "--k", "4")
        assert len(err) == 1 and err[0].startswith("cannot load checkpoint: checksum ")

    def test_johnson_resume_dependent_stack(self, tmp_path, capsys):
        ck = str(tmp_path / "dependent.jck")
        search = johnson_search(johnson_graph(6, 3), stack=[(0b000111, 0b001011)])
        save_iset_checkpoint(search, ck)
        err = _resume_errors(capsys, ck, "johnson", "--n", "6", "--k", "3")
        assert len(err) == 1 and err[0].startswith("cannot load checkpoint")

    @pytest.mark.parametrize("n,k", [(10**6, 3), (7, 7), (7, 9)])
    def test_johnson_resume_graph_out_of_range(self, tmp_path, capsys, n, k):
        # a J(7,3) checkpoint edited to name a graph johnson_graph refuses
        ck = tmp_path / "j73.jck"
        save_iset_checkpoint(johnson_search(johnson_graph(7, 3)), str(ck))
        lines = ck.read_text().splitlines()
        assert lines[1].startswith("n=7 k=3 ")
        resign(ck, [lines[0], lines[1].replace("n=7 k=3", f"n={n} k={k}"), *lines[2:]])
        t0 = time.perf_counter()
        err = _resume_errors(capsys, ck, "johnson", "--n", "7", "--k", "3")
        assert time.perf_counter() - t0 < 1.0
        assert len(err) == 1
        assert err[0].startswith("cannot load checkpoint: bad checkpoint payload")

    def test_johnson_resume_needs_checkpoint(self):
        assert main(["johnson", "--n", "6", "--k", "3", "--resume"]) == EXIT_USAGE

    def test_nonsparse_table(self, capsys):
        assert main(["johnson", "--n", "6", "--nonsparse-rank", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total" in out

    def test_exminors_gf2(self, capsys, small_catalogue):
        assert main([
            "exminors", "--field", "2", "--max-n", "5",
            "--catalogue", small_catalogue,
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total 1" in out

    def test_exminors_gf5_at_eight(self, capsys, tmp_path, catalogue8):
        # the GF(5) rows on 8 elements of criterion 07x, with no --extended
        path = str(tmp_path / "cat8.txt")
        write_catalogue(assign_ids(catalogue8), path)
        assert main(["exminors", "--field", "5", "--max-n", "8",
                     "--catalogue", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("   8 ")] == [
            "   8    3     2", "   8    4    92", "   8    5     2",
        ]
        assert lines[-1] == "total 108"

    def test_exminors_max_n_above_the_catalogue(self, capsys, small_catalogue):
        # sizes the catalogue does not hold would be left out of the table
        capsys.readouterr()
        assert main(["exminors", "--field", "3", "--max-n", "8",
                     "--catalogue", small_catalogue]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "max-n 8 is above the catalogue, which holds n <= 5\n"

    @pytest.mark.parametrize("max_n", ["-1", "10", "99"])
    @pytest.mark.parametrize("command", ["exminors", "query"])
    def test_max_n_out_of_range(self, capsys, small_catalogue, small_table,
                                command, max_n):
        # as for enum, --max-n takes 0..9; outside it nothing is read or printed
        args = {
            "exminors": ["exminors", "--field", "2", "--catalogue", small_catalogue],
            "query": ["query", "--missing-bases", "--table", small_table],
        }[command]
        assert main(args + ["--max-n", max_n]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-n: invalid choice" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["johnson", "--n", "7", "--estimate"],
        ["johnson", "--n", "6"],
        ["johnson", "--n", "13", "--k", "3"],
        ["johnson", "--n", "6", "--nonsparse-rank", "1"],
        ["johnson", "--n", "7", "--self-dual"],
        ["enum", "--max-n", "10", "--extended"],
        ["enum", "--max-n", "-1"],
        ["enum", "--max-n", "8", "--extended"],
        ["enum", "--max-n", "2", "--jobs", "-1"],
        ["props", "--catalogue", "absent.cat", "--jobs", "-1"],
        ["props", "--catalogue", "absent.cat", "--extended"],
        ["exminors", "--field", "5", "--max-n", "7", "--catalogue", "absent.cat",
         "--extended"],
    ],
    ids=" ".join,
)
def test_usage_error_is_one_line(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_johnson_self_dual_needs_no_k(capsys):
    assert main(["johnson", "--n", "6", "--self-dual"]) == EXIT_OK
    assert "self-dual" in capsys.readouterr().out


def test_budget_in_props_exits_3(small_catalogue, workdir, monkeypatch, capsys):
    def over_budget(rec, opts):
        raise BudgetExceeded("ingleton search passed 1 table cells")

    monkeypatch.setattr(store, "compute_row", over_budget)
    rc = main(["props", "--catalogue", small_catalogue, "--jobs", "1",
               "--out", str(workdir / "budget.tsv")])
    assert rc == EXIT_BUDGET
    assert capsys.readouterr().err.strip().splitlines() == [
        "budget exceeded: ingleton search passed 1 table cells"
    ]


def test_johnson_self_dual_runs_one_search(monkeypatch, capsys):
    runs = []
    run = paving.IsetSearch.run

    def counted(search, *args, **kwargs):
        runs.append(search.vertices)
        return run(search, *args, **kwargs)

    monkeypatch.setattr(paving.IsetSearch, "run", counted)
    assert main(["johnson", "--n", "8", "--self-dual"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "self-dual sparse paving classes: 144 (z2) / 144 (certificate)\n"
    )
    assert runs == [johnson_graph(8, 4).vertices]
