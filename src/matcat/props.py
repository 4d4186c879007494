"""Classification flags, counting battery, and the Ingleton violation search.

The Ingleton search runs over flat quadruples only: every term of the
inequality is unchanged when any argument is replaced by its closure, so a
violation exists iff one exists among flats.  Pairs (A, B) with
r(A) + r(B) = r(A u B) are skipped since the violation amount is bounded by
that modular defect.  The (C, D) tables of the other pairs are scanned in
blocks, one numpy call for as many pairs as fit in 2^16 table cells, taken
in the order of a loop over A and then B; the witness is the first
violating pair's first largest (C, D) cell.

Satisfying the inequality for every quadruple is invariant under duality
(Ingleton 1971), and the search cost grows steeply with the number of flats,
hence with rank.  So the full search decides on the lower-rank side of each
dual pair: a matroid with 2r > n is searched through its dual, of rank
n - r < n/2.  The answer is exact because a matroid violates the inequality
exactly when its dual does.  Only when the dual does violate is the matroid
itself searched, so that a returned witness is always a quadruple of the
matroid that was asked about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canon import minor, minor_certificate
from .core import INFINITY, Matroid, lift_table


def classify(m: Matroid) -> dict:
    """The flag and count columns of a property row, keyed by their
    store.COLUMNS names."""
    table = m.rank_table
    circuits = m._circuits
    min_circuit = min((c.bit_count() for c in circuits), default=INFINITY)
    loops = m.loops().bit_count()
    hyp_sizes = {h.bit_count() for h in m.hyperplanes}
    paving = min_circuit >= m.rank
    sparse = paving and all(s in (m.rank - 1, m.rank) for s in hyp_sizes)
    simple, cosimple = m.simple_cosimple()
    n_indep = sum(1 for a in range(1 << m.n) if table[a] == a.bit_count())
    hset = set(m.hyperplanes)
    return {
        "simple": simple,
        "cosimple": cosimple,
        "paving": paving,
        "sparsePaving": sparse,
        "uniform": len(m._bases) == math.comb(m.n, m.rank),
        "minCircuitSize": min_circuit,
        "numBases": len(m._bases),
        "numCircuits": len(circuits),
        "numFlats": len(m._flat_data[0]),
        "numHyperplanes": len(m.hyperplanes),
        "numIndependent": n_indep,
        "numCircuitHyperplanes": sum(1 for c in circuits if c in hset),
        "numLoops": loops,
        "numColoops": m.coloops().bit_count(),
    }


@dataclass(frozen=True)
class IngletonWitness:
    a: int
    b: int
    c: int
    d: int
    lhs: int
    rhs: int


def ingleton_sides(table, a, b, c, d):
    lhs = table[a] + table[b] + table[a | b | c] + table[a | b | d] + table[c | d]
    rhs = (
        table[a | b] + table[a | c] + table[a | d] + table[b | c] + table[b | d]
    )
    return lhs, rhs


def ingleton_violating(m: Matroid, violators8=None):
    """An IngletonWitness if the inequality fails for some quadruple, else None.

    With violators8, the certificates of the 8-element violators, a matroid
    on more than 8 elements is decided by its minors: it violates when some
    single-element deletion or contraction is one of them, per the census
    fact that Ingleton violation on 9 elements always comes from an
    8-element violator minor.  Otherwise the search runs over flat
    quadruples, deciding on the dual first when 2 * rank > n (see the module
    docstring).
    """
    if m.n > 8 and violators8 is not None:
        return _ingleton_by_minor(m, violators8)
    if 2 * m.rank > m.n and _ingleton_full(m.dual()) is None:
        return None
    return _ingleton_full(m)


# table cells per numpy call of the Ingleton scan; bounds its memory
_BLOCK_CELLS = 1 << 16


def _ingleton_full(m: Matroid):
    table = np.asarray(m.rank_table, dtype=np.int16)
    flats, ranks, _ = m._flat_data
    fl = np.asarray(flats, dtype=np.int32)
    nf = len(fl)
    union = np.bitwise_or.outer(fl, fl)
    union_rank = table[union]
    rk = np.asarray(ranks, dtype=np.int16)
    defect = rk[:, None] + rk[None, :] - union_rank
    # the flat pairs (A, B), A before B, with a positive modular defect, in
    # the order of the pair loop: by A, then by B
    pair_a, pair_b = np.nonzero(np.triu(defect > 0, 1))
    step = max(1, _BLOCK_CELLS // (nf * nf))
    for start in range(0, len(pair_a), step):
        ia, ib = pair_a[start:start + step], pair_b[start:start + step]
        # p[k, c] = r(A u B u C) - r(A u C) - r(B u C) for the k-th pair, so
        # that lhs - rhs = defect(A, B) + p[k, c] + p[k, d] + r(C u D)
        p = table[union[ia, ib][:, None] | fl] - union_rank[ia] - union_rank[ib]
        grid = (p[:, :, None] + p[:, None, :] + union_rank).reshape(len(ia), -1)
        hits = np.flatnonzero(grid.max(axis=1) > -defect[ia, ib])
        if len(hits):
            k = hits[0]
            ci, di = divmod(int(grid[k].argmax()), nf)
            a, b, c, d = (flats[x] for x in (ia[k], ib[k], ci, di))
            lhs, rhs = ingleton_sides(m.rank_table, a, b, c, d)
            return IngletonWitness(a, b, c, d, lhs, rhs)
    return None


def _ingleton_by_minor(m: Matroid, violators8):
    certs = set(violators8)
    for i in range(2 * m.n):
        if minor_certificate(m, i) not in certs:
            continue
        w = _ingleton_full(minor(m, i))
        e = i >> 1
        extra = (1 << e) if i & 1 else 0  # i odd: the minor contracts e
        lifted = lift_table(m.full & ~(1 << e))
        quad = [lifted[x] | extra for x in (w.a, w.b, w.c, w.d)]
        lhs, rhs = ingleton_sides(m.rank_table, *quad)
        if lhs <= rhs:  # lifted witness must stay strict
            raise AssertionError("witness lifting failed")
        return IngletonWitness(*quad, lhs, rhs)
    return None
