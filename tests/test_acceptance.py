"""Acceptance battery: one test per published-result criterion.

Each test prints a single `ACCEPTANCE <k>: PASS/FAIL` line.  Criteria that
enumerate the 9-element catalogue (its count and its derived tables) take
minutes each and are gated behind MATCAT_EXTENDED=1; GF(5) excluded minors on
8 elements take seconds and run by default.
"""

import random

import pytest

from conftest import requires_extended
from examples import f8, p2_doubleprime, p2_prime, p3
from matcat.canon import certificate, certificate_for, relabel_family
from matcat.core import AxiomViolation, Matroid, uniform
from matcat.errors import BudgetExceeded as ResourceBudgetExceeded
from matcat.named import ag32_prime, p1, vamos
from matcat.orderly import (
    brute_force_enumerate,
    count_matrix,
    enumerate_matroids,
    load_checkpoint,
    totals_by_n,
    verify_duality_closure,
)
from matcat.props import classify, ingleton_violating
from matcat.represent import excluded_minors, representable, verify_representation
from matcat.orderable import base_orderable, strongly_base_orderable, transversal
from matcat.paving import (
    count_self_dual_sparse,
    enumerate_isets_orderly,
    estimate_iset_count,
    johnson_graph,
)
from matcat.store import assign_ids, compute_row, missing_base_triples, RowOptions

TABLE1_TOTALS = [1, 2, 4, 8, 17, 38, 98, 306, 1724]

TABLE2_SIMPLE = {
    0: 1, 1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 26, 7: 101, 8: 950,
}
TABLE2_N8_BY_RANK = {2: 1, 3: 68, 4: 617, 5: 217, 6: 40, 7: 6, 8: 1}
TABLE3_SIMPLE_COSIMPLE = {
    0: 1, 1: 0, 2: 0, 3: 0, 4: 1, 5: 2, 6: 8, 7: 42, 8: 657,
}
TABLE3_N8_BY_RANK = {2: 1, 3: 65, 4: 525, 5: 65, 6: 1}
TABLE4_SIMPLE_PAVING = {
    0: 1, 1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 18, 7: 50, 8: 439,
}
TABLE4_N8_BY_RANK = {2: 1, 3: 68, 4: 322, 5: 39, 6: 6, 7: 2, 8: 1}

TABLE7 = {
    # (n, rank): (all, base-orderable, strongly base-orderable, transversal)
    (2, 2): (1, 1, 1, 1), (3, 2): (3, 3, 3, 3), (4, 2): (7, 7, 7, 7),
    (5, 2): (13, 13, 13, 13), (6, 2): (23, 23, 23, 22), (7, 2): (37, 37, 37, 34),
    (3, 3): (1, 1, 1, 1), (4, 3): (4, 4, 4, 4), (5, 3): (13, 13, 13, 13),
    (6, 3): (38, 37, 37, 37), (7, 3): (108, 101, 101, 92),
    (4, 4): (1, 1, 1, 1), (5, 4): (5, 5, 5, 5), (6, 4): (23, 23, 23, 23),
    (7, 4): (108, 101, 101, 100),
    (5, 5): (1, 1, 1, 1), (6, 5): (6, 6, 6, 6), (7, 5): (37, 37, 37, 37),
    (6, 6): (1, 1, 1, 1), (7, 6): (7, 7, 7, 7),
}
TABLE7_N8 = {
    (8, 4): (940, 677, 644, 432),
}

TABLE5_GF5_N7 = {2: 1, 3: 5, 4: 5, 5: 1}
TABLE5_GF5_N8 = {3: 2, 4: 92, 5: 2}


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def matroids8(catalogue8):
    return [r.matroid() for r in catalogue8]


@pytest.fixture(scope="module")
def flags8(matroids8):
    return [classify(m) for m in matroids8]


def test_criterion_01_full_count_matrix_n8(catalogue8):
    totals = totals_by_n(catalogue8, 8)
    cm = count_matrix(catalogue8, 8)
    ok = totals == TABLE1_TOTALS and cm[4][8] == 940
    report(1, ok, f"totals {totals}, cell(8,4)={cm[4][8]}")


@requires_extended
def test_criterion_02_extended_count_n9(tmp_path):
    ck = str(tmp_path / "n9.ckpt")
    with pytest.raises(ResourceBudgetExceeded):
        enumerate_matroids(9, jobs=2, budget=20000, checkpoint_path=ck)
    job = load_checkpoint(ck)
    records = enumerate_matroids(9, jobs=2, checkpoint_path=ck, resume_job=job)
    totals = totals_by_n(records, 9)
    cm = count_matrix(records, 9)
    ok = totals[9] == 383172 and cm[4][9] == 190214
    report(2, ok, f"n=9 total {totals[9]}, cell(9,4)={cm[4][9]}, resumed from checkpoint")


def test_criterion_03_oracle_equivalence():
    records = enumerate_matroids(5)
    ok = True
    counts = []
    for n in range(6):
        brute, _ = brute_force_enumerate(n)
        mine = sorted(r.cert for r in records if r.n == n)
        counts.append(len(mine))
        ok = ok and mine == sorted(r.cert for r in brute)
    ok = ok and counts[5] == 38
    report(3, ok, f"class counts {counts} match the hyperplane-axiom oracle")


def test_criterion_04_duality_closure(catalogue8):
    rep = verify_duality_closure(catalogue8)
    cm = count_matrix(catalogue8, 8)
    symmetric = all(
        cm[r][n] == cm[n - r][n] for n in range(9) for r in range(n + 1)
    )
    report(4, rep.ok and symmetric,
           f"{rep.checked} duals present, rank symmetry {symmetric}")


def test_criterion_05_derived_tables_n8(matroids8, flags8):
    simple = {n: 0 for n in range(9)}
    cosimple = {n: 0 for n in range(9)}
    paving = {n: 0 for n in range(9)}
    by_rank = {"t2": {}, "t3": {}, "t4": {}}
    for m, f in zip(matroids8, flags8):
        if f["simple"]:
            simple[m.n] += 1
            if m.n == 8:
                by_rank["t2"][m.rank] = by_rank["t2"].get(m.rank, 0) + 1
            if f["cosimple"]:
                cosimple[m.n] += 1
                if m.n == 8:
                    by_rank["t3"][m.rank] = by_rank["t3"].get(m.rank, 0) + 1
            if f["paving"]:
                paving[m.n] += 1
                if m.n == 8:
                    by_rank["t4"][m.rank] = by_rank["t4"].get(m.rank, 0) + 1
    ok = (
        simple == TABLE2_SIMPLE
        and cosimple == TABLE3_SIMPLE_COSIMPLE
        and paving == TABLE4_SIMPLE_PAVING
        and by_rank["t2"] == TABLE2_N8_BY_RANK
        and by_rank["t3"] == TABLE3_N8_BY_RANK
        and by_rank["t4"] == TABLE4_N8_BY_RANK
    )
    report(5, ok, f"simple {simple[8]}, simple+cosimple {cosimple[8]}, "
                  f"simple paving {paving[8]} at n=8")


@requires_extended
def test_criterion_05x_derived_tables_n9():
    records = enumerate_matroids(9, jobs=2)
    simple = cosimple = paving = cell94 = 0
    for rec in records:
        if rec.n != 9:
            continue
        f = classify(rec.matroid())
        if f["simple"]:
            simple += 1
            if f["cosimple"]:
                cosimple += 1
            if f["paving"]:
                paving += 1
                if rec.rank == 4:
                    cell94 += 1
    ok = (simple, cosimple, paving, cell94) == (376467, 372002, 266784, 147163)
    report("5x", ok, f"n=9 simple {simple} / cosimple {cosimple} / paving {paving} "
                     f"/ cell(9,4) {cell94}")


def test_criterion_06_ingleton_census(matroids8, flags8):
    violators = []
    for m, f in zip(matroids8, flags8):
        if m.n != 8:
            continue
        w = ingleton_violating(m)
        if w is not None:
            violators.append((m, f))
    all_sparse_rank4 = all(
        f["sparsePaving"] and m.rank == 4 for m, f in violators
    )
    certs = {certificate(m).bytes: m for m, _ in violators}
    # relaxation DAG inside the violating set
    edges = {}
    for cb, m in certs.items():
        edges[cb] = set()
        for ch in m.circuit_hyperplanes():
            child = m.relax(ch)
            ccb = certificate(child).bytes
            if ccb in certs:
                edges[cb].add(ccb)
    has_incoming = {t for outs in edges.values() for t in outs}
    sinks = [cb for cb, outs in edges.items() if not outs]
    ag_cert = certificate(ag32_prime()).bytes
    f8_cert = certificate(f8()).bytes
    v8_cert = certificate(vamos()).bytes
    # circuit-hyperplane counts per level, as drawn in the census diagram
    level_histogram = {}
    for m, _ in violators:
        k = len(m.circuit_hyperplanes())
        level_histogram[k] = level_histogram.get(k, 0) + 1
    chain_ok = (
        ag_cert in certs
        and ag_cert not in has_incoming
        and edges[ag_cert] == {f8_cert}
        and sinks == [v8_cert]
        and level_histogram
        == {13: 1, 12: 1, 11: 4, 10: 5, 9: 13, 8: 7, 7: 6, 6: 1, 5: 1}
    )
    v8_parents = [cb for cb, outs in edges.items() if v8_cert in outs]
    v8plus_ok = len(v8_parents) == 1 and len(
        certs[v8_parents[0]].circuit_hyperplanes()
    ) == 6
    p_family_ok = all(
        ingleton_violating(m) is None
        and all(representable(m, q) is None for q in (2, 3, 4, 5))
        for m in (p1(), p2_prime(), p2_doubleprime(), p3())
    )
    ok = (
        len(violators) == 39
        and all_sparse_rank4
        and chain_ok
        and v8plus_ok
        and p_family_ok
    )
    report(6, ok, f"{len(violators)} violators, all sparse paving rank 4: "
                  f"{all_sparse_rank4}, AG(3,2)'->F8 chain and V8+ -> V8 tail: "
                  f"{chain_ok and v8plus_ok}, P8 relaxations unrepresentable: "
                  f"{p_family_ok}")


def test_criterion_07_excluded_minors(matroids8):
    cache = {}
    gf2 = excluded_minors(matroids8, 2, cache)
    ok2 = len(gf2) == 1 and certificate(gf2[0]).bytes == certificate(
        uniform(2, 4)
    ).bytes
    gf3 = excluded_minors(matroids8, 3, {})
    ok3 = len(gf3) == 4
    gf4 = excluded_minors(matroids8, 4, {})
    ok4 = len(gf4) == 7
    upto7 = [m for m in matroids8 if m.n <= 7]
    gf5 = excluded_minors(upto7, 5, {})
    shape5 = {}
    for m in gf5:
        if m.n == 7:
            shape5[m.rank] = shape5.get(m.rank, 0) + 1
    rank2 = [m for m in gf5 if m.n == 7 and m.rank == 2]
    ok5 = shape5 == TABLE5_GF5_N7 and all(
        certificate(m).bytes == certificate(uniform(2, 7)).bytes for m in rank2
    ) and all(m.n == 7 for m in gf5)
    ok = ok2 and ok3 and ok4 and ok5
    report(7, ok, f"GF2 {len(gf2)} (U24), GF3 {len(gf3)}, GF4 {len(gf4)}, "
                  f"GF5@7 by rank {shape5}")


def test_criterion_07x_excluded_minors_gf5_n8(matroids8):
    found = excluded_minors(matroids8, 5, {})
    shape = {}
    for m in found:
        if m.n == 8:
            shape[m.rank] = shape.get(m.rank, 0) + 1
    ok = shape == TABLE5_GF5_N8
    report("7x", ok, f"GF5@8 by rank {shape} (expect {TABLE5_GF5_N8})")


def test_criterion_08_welsh_missing_base_triples(catalogue8):
    rows = [compute_row(rec, RowOptions(searches=False)) for rec in assign_ids(catalogue8)]
    missing = missing_base_triples(rows, 8)
    ok = missing == [(6, 3, 11)]
    report(8, ok, f"missing base triples through n=8: {missing}")


def test_criterion_09_orderability_tables(catalogue7):
    mats = [r.matroid() for r in catalogue7]
    results = {}
    chain_ok = True
    for (n, rank), want in TABLE7.items():
        sel = [m for m in mats if m.n == n and m.rank == rank]
        bo = sbo = tr = 0
        for m in sel:
            b = base_orderable(m)
            s = strongly_base_orderable(m) if b else False
            t = transversal(m) is not None
            chain_ok = chain_ok and (t <= s <= b)
            bo += b
            sbo += s
            tr += t
        results[(n, rank)] = (len(sel), bo, sbo, tr)
    ok = results == TABLE7 and chain_ok
    bad = {k: v for k, v in results.items() if TABLE7[k] != v}
    report(9, ok, f"all Table-7 cells for n<=7 exact, implication chain clean"
                  + (f"; mismatches {bad}" if bad else ""))


def test_criterion_09x_orderability_n8(matroids8):
    sel = [m for m in matroids8 if m.n == 8 and m.rank == 4]
    bo = sbo = tr = 0
    for m in sel:
        b = base_orderable(m)
        s = strongly_base_orderable(m) if b else False
        t = transversal(m) is not None
        assert t <= s <= b
        bo += b
        sbo += s
        tr += t
    got = (len(sel), bo, sbo, tr)
    ok = got == TABLE7_N8[(8, 4)]
    report("9x", ok, f"(8,4) all/BO/SBO/transversal = {got}")


def test_criterion_10_johnson_cross_validation(matroids8, flags8):
    ok = True
    details = []
    for n in range(4, 9):
        for d in range(1, n - 1):
            rank = d + 1
            g = johnson_graph(n, rank)
            orbit_total = sum(enumerate_isets_orderly(g).values())
            cat = sum(
                1
                for m, f in zip(matroids8, flags8)
                if m.n == n and m.rank == rank and f["sparsePaving"]
            )
            if g.with_complement:
                sd = count_self_dual_sparse(n, method="z2")
                derived = 2 * orbit_total - sd
            else:
                derived = orbit_total
            if derived != cat:
                ok = False
                details.append(f"J({n},{rank}): {derived} != {cat}")
    # dual pairing at (8,4): both self-dual computations agree
    sd_a = count_self_dual_sparse(8, method="z2")
    sd_b = count_self_dual_sparse(8, method="certificate")
    pairing_ok = sd_a == sd_b
    # exact-estimator checks
    est_ok = True
    for n, k in ((7, 3), (8, 4)):
        g = johnson_graph(n, k)
        exact = sum(enumerate_isets_orderly(g).values())
        rep = estimate_iset_count(g, 2, 1.0, seed=5)
        est_ok = est_ok and rep.estimate == exact
    ok = ok and pairing_ok and est_ok
    report(10, ok, f"sparse counts match catalogue for n<=8"
                   f"{'; ' + '; '.join(details) if details else ''}, "
                   f"(8,4) self-dual {sd_a}=={sd_b}, fraction-1.0 estimator exact {est_ok}")


def test_criterion_11_property_suites(catalogue8):
    rng = random.Random(2024)
    sample = rng.sample(catalogue8, max(22, len(catalogue8) // 100))
    failures = []
    for rec in sample:
        m = rec.matroid()
        try:
            rebuilt = Matroid.from_hyperplanes(m.n, m.hyperplanes)
        except AxiomViolation:
            rebuilt = None
        if rebuilt != m:
            failures.append(("axioms", rec.cert.hex()))
        base = certificate_for(m.n, m.rank, m.hyperplanes).bytes
        for _ in range(100):
            p = list(range(m.n))
            rng.shuffle(p)
            fam = relabel_family(m.hyperplanes, tuple(p))
            if certificate_for(m.n, m.rank, fam).bytes != base:
                failures.append(("certificate", rec.cert.hex()))
                break
        for q in (2, 3):
            rep = representable(m, q)
            if rep is not None and not verify_representation(m, rep):
                failures.append(("representation", q, rec.cert.hex()))
        chs = m.circuit_hyperplanes()
        if chs:
            relaxed = m.relax(chs[0])
            if len(relaxed.bases()) != len(m.bases()) + 1:
                failures.append(("relax", rec.cert.hex()))
        rp = m.rank_polynomial()
        rd = m.dual().rank_polynomial()
        if any(
            rp[i][j] != rd[j][i]
            for i in range(len(rp))
            for j in range(len(rp[0]))
        ):
            failures.append(("rank-polynomial", rec.cert.hex()))
    ok = not failures
    report(11, ok, f"{len(sample)} matroids sampled, zero failures"
                   + (f"; first: {failures[:3]}" if failures else ""))
