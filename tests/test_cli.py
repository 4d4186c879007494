import os

import pytest

from matcat import cli
from matcat.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from matcat.errors import BudgetExceeded


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

    def test_nine_requires_extended(self, workdir, capsys):
        rc = main(["enum", "--max-n", "9", "--out", str(workdir / "x.txt")])
        assert rc == EXIT_USAGE

    def test_budget_exit_code(self, workdir):
        rc = main(
            [
                "enum", "--max-n", "5", "--budget", "20",
                "--out", str(workdir / "y.txt"),
                "--checkpoint", str(workdir / "y.ckpt"),
            ]
        )
        assert rc == EXIT_BUDGET

    def test_resume_after_budget(self, workdir, small_catalogue):
        ck = str(workdir / "z.ckpt")
        out = str(workdir / "z.txt")
        assert main(["enum", "--max-n", "5", "--budget", "20", "--out", out,
                     "--checkpoint", ck]) == EXIT_BUDGET
        assert main(["enum", "--max-n", "5", "--out", out, "--checkpoint", ck,
                     "--resume"]) == EXIT_OK
        assert open(out).read() == open(small_catalogue).read()

    @pytest.mark.parametrize("content", [None, "not a checkpoint\n", ""])
    def test_resume_unreadable_checkpoint(self, tmp_path, capsys, content):
        ck = tmp_path / "bad.ckpt"
        if content is not None:
            ck.write_text(content)
        rc = main(["enum", "--max-n", "3", "--out", str(tmp_path / "bad.txt"),
                   "--checkpoint", str(ck), "--resume"])
        assert rc == EXIT_IO
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("cannot load checkpoint")

    def test_resume_checkpoint_for_other_max_n(self, workdir):
        ck = str(workdir / "other.ckpt")
        out = str(workdir / "other.txt")
        assert main(["enum", "--max-n", "5", "--budget", "20", "--out", out,
                     "--checkpoint", ck]) == EXIT_BUDGET
        rc = main(["enum", "--max-n", "4", "--out", out, "--checkpoint", ck,
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


class TestQuery:
    def test_missing_bases_through_five(self, capsys, small_table):
        assert main(["query", "--missing-bases", "--max-n", "5",
                     "--table", small_table]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "none"

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

    def test_bad_expression(self, capsys, small_table):
        rc = main(["query", "bogus=1", "--table", small_table, "--count"])
        assert rc == EXIT_USAGE


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

    @pytest.mark.parametrize(
        "content",
        [
            None, b"garbage", b"MCJK", b"MCJK\x01garbage", b"MCJK\x01",
            b"MCJK\x02garbage", b"MCJK\x02{}", b"MCJK\x02[]",
        ],
    )
    def test_johnson_resume_unreadable_checkpoint(self, tmp_path, capsys, content):
        ck = tmp_path / "bad.jck"
        if content is not None:
            ck.write_bytes(content)
        rc = main(["johnson", "--n", "6", "--k", "3", "--checkpoint", str(ck),
                   "--resume"])
        assert rc == EXIT_IO
        err = capsys.readouterr().err.strip().splitlines()
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

    def test_exminors_gf5_needs_extended(self, small_catalogue):
        rc = main(["exminors", "--field", "5", "--max-n", "8",
                   "--catalogue", small_catalogue])
        assert rc == EXIT_USAGE


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

    monkeypatch.setattr(cli, "compute_row", over_budget)
    rc = main(["props", "--catalogue", small_catalogue, "--jobs", "1",
               "--out", str(workdir / "budget.tsv")])
    assert rc == EXIT_BUDGET
    assert capsys.readouterr().err.strip().splitlines() == [
        "budget exceeded: ingleton search passed 1 table cells"
    ]
