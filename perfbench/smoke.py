"""The benchmark's own tests, on tiny inputs (about a minute in all).

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark contract, runs every workload
with --smoke at --trace 0 and 1, and checks that each run exits 0, prints
every declared metric by name and unit as its last line, runs every check
and passes them (the known-failing catalogue round trip aside).  Finally it
runs the benchmark in a directory holding only BENCHMARK.json and perfbench/
and expects a non-zero exit without a result line.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKS = {
    "enum8": [
        "totals", "rank_row", "certificate_digest", "no_duplicate_records", "catalogue_round_trip",
    ],
    "props": [
        "table_simple", "table_simple_cosimple", "table_simple_paving", "table7_orderability",
        "missing_base_triples", "dual_involution", "simplification_is_simple", "tsv_round_trip",
        "rows_match_reference", "excluded_minors_gf2", "excluded_minors_gf3",
        "excluded_minors_gf4", "excluded_minors_gf5", "ingleton_violators",
    ],
    "johnson": [
        "johnson_totals", "self_dual_both_methods", "paving_total", "estimator_exact",
        "resumed_slice_equals_uninterrupted",
    ],
}
CHECKS["enum8_pool"] = CHECKS["enum8"] + ["pool_equals_serial"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16 and len(spec["command"]) <= 32
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert NAME.match(w["name"]) and w["name"] not in names
        names.add(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    metric_names = set()
    for m in spec["end_to_end"] + spec["per_layer"]:
        keys = {"name", "unit", "better"} | ({"bound"} if m in spec["end_to_end"] else set())
        assert set(m) == keys, m
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert m["name"] not in metric_names, m["name"]
        metric_names.add(m["name"])
        if "bound" in m:
            assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(cwd, workload, trace):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            p = run(ROOT, w["name"], trace)
            assert p.returncode == 0, (w["name"], trace, p.stderr[-2000:])
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, p.stdout
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, sorted(set(got) ^ set(want))
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)) and set(v) == {"value", "unit"}, name
                if trace == 0:
                    assert v["value"] > 0, name
            seen = {line.split()[1].rstrip(":") for line in lines if line.startswith("check ")}
            assert set(CHECKS[w["name"]]) <= seen, set(CHECKS[w["name"]]) - seen
            print(f"ok {w['name']} trace={trace}: {len(seen)} checks, "
                  f"{result['attempted']} ops, {result['failed']} failed")
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, spec["workloads"][0]["name"], 0)
        assert p.returncode != 0 and '"metrics"' not in p.stdout, p.stdout
        print(f"ok bare directory: exit {p.returncode}, {p.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
