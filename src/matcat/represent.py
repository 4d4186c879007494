"""Representability over GF(2), GF(3), GF(4), GF(5) by backtracking search.

A candidate matrix fixes one basis of the matroid to an identity block; the
zero pattern of every other column is forced by its fundamental circuit, a
spanning forest of the nonzero positions is normalized to 1 (projective
scaling), and the remaining entries range over the nonzero field elements.
A column assignment survives only while every subset of the processed
columns has matrix rank equal to matroid rank, so a completed matrix is a
verified representation.

Representability over a field is invariant under duality: if M* is the
column matroid of [I | A], then M is the column matroid of [-A^T | I] with
the same column labels (Oxley, Matroid Theory, Thm 2.2.8).  The search cost
grows steeply with rank, so a loopless matroid with 2r > n is searched
through its dual, of rank n - r < n/2, and the dual's matrix is turned into
one for the matroid.  The answer is exact, and the matrix returned is still
checked against the matroid's own rank table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Matroid, UnionFind, bits, mask_of, popcount


class GF:
    """Arithmetic tables for GF(q), q in {2,3,4,5} (GF(4) via x^2+x+1)."""

    _cache = {}

    def __new__(cls, q: int):
        if q in cls._cache:
            return cls._cache[q]
        self = super().__new__(cls)
        if q in (2, 3, 5):
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            mul = [[(a * b) % q for b in range(q)] for a in range(q)]
            neg = [(-a) % q for a in range(q)]
        elif q == 4:
            add = [[a ^ b for b in range(4)] for a in range(4)]

            def m4(a, b):
                r = 0
                x = a
                for i in range(2):
                    if (b >> i) & 1:
                        r ^= x << i
                for bit in (3, 2):
                    if r & (1 << bit):
                        r ^= 0b111 << (bit - 2)
                return r

            mul = [[m4(a, b) for b in range(4)] for a in range(4)]
            neg = list(range(4))
        else:
            raise ValueError("supported fields: GF(2), GF(3), GF(4), GF(5)")
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
        self.q = q
        self.add = add
        self.mul = mul
        self.neg = neg
        self.inv = inv
        cls._cache[q] = self
        return self

    def matrix_rank(self, rows, ncols):
        """Rank of a list-of-lists matrix over the field (destructive copy)."""
        m = [row[:] for row in rows]
        rank = 0
        for c in range(ncols):
            piv = None
            for i in range(rank, len(m)):
                if m[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            iv = self.inv[m[rank][c]]
            m[rank] = [self.mul[iv][x] for x in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][c]:
                    f = m[i][c]
                    m[i] = [
                        self.add[x][self.neg[self.mul[f][y]]]
                        for x, y in zip(m[i], m[rank])
                    ]
            rank += 1
            if rank == len(m):
                break
        return rank


@dataclass(frozen=True)
class RepresentationMatrix:
    q: int
    entries: tuple  # rank rows of n field elements; column i <-> element i

    def column_rank(self, subset_mask: int, gf: GF | None = None) -> int:
        gf = gf or GF(self.q)
        cols = list(bits(subset_mask))
        rows = [[row[c] for c in cols] for row in self.entries]
        return gf.matrix_rank(rows, len(cols))


def verify_representation(m: Matroid, rep: RepresentationMatrix) -> bool:
    """Full check of r(A) = column rank for every one of the 2^n subsets."""
    gf = GF(rep.q)
    table = m.rank_table
    return all(
        rep.column_rank(a, gf) == table[a] for a in range(1 << m.n)
    )


def representable(m: Matroid, q: int):
    """A RepresentationMatrix over GF(q), or None when none exists.

    Loops are stripped first; a loopless matroid with 2 * rank > n is
    searched on its dual (see the module docstring).
    """
    if m.rank == 0:
        return RepresentationMatrix(q, ())
    if m.loops():
        # loops are zero columns; represent the loopless part and pad
        keep = m.full & ~m.loops()
        sub = m.restrict(keep)
        rep = representable(sub, q)
        if rep is None:
            return None
        kept = sorted(bits(keep))
        entries = []
        for row in rep.entries:
            full_row = [0] * m.n
            for idx, e in enumerate(kept):
                full_row[e] = row[idx]
            entries.append(tuple(full_row))
        return RepresentationMatrix(q, tuple(entries))
    if 2 * m.rank > m.n:
        dual = m.dual()
        rep = _representable_direct(dual, q)
        if rep is not None:
            rep = _dual_matrix(rep, min(dual._bases), m.n)
    else:
        rep = _representable_direct(m, q)
    if rep is None:
        return None
    assert verify_representation(m, rep)
    return rep


def _dual_matrix(rep: RepresentationMatrix, basis: int, n: int):
    """[-A^T | I] from a matrix [I | A] whose identity sits on basis.

    Row i of rep holds its identity 1 in the i-th element of basis; the
    result has one row per element outside basis.
    """
    neg = GF(rep.q).neg
    basis_elems = list(bits(basis))
    entries = []
    for f in range(n):
        if (basis >> f) & 1:
            continue
        row = [0] * n
        row[f] = 1
        for i, b in enumerate(basis_elems):
            row[b] = neg[rep.entries[i][f]]
        entries.append(tuple(row))
    return RepresentationMatrix(rep.q, tuple(entries))


def _representable_direct(m: Matroid, q: int):
    """The backtracking search on m as given, unverified.

    The columns of min(m._bases) hold the identity block, in ascending
    element order.  Loops come out as zero columns.
    """
    gf = GF(q)
    table = m.rank_table
    r = m.rank
    basis = min(m._bases)
    basis_elems = sorted(bits(basis))
    row_of = {e: i for i, e in enumerate(basis_elems)}
    others = [e for e in range(m.n) if not (basis >> e) & 1]

    # forced zero pattern from fundamental circuits
    support = {}
    for e in others:
        circ = [
            b
            for b in basis_elems
            if table[(basis & ~(1 << b)) | (1 << e)] == r
        ]
        support[e] = circ

    # spanning forest over (row, column) incidences pins entries to 1;
    # row i is node i and column e is node r + e
    forest = set()
    uf = UnionFind(range(r + m.n))
    unknowns = []
    for e in others:
        for b in support[e]:
            if uf.union(row_of[b], r + e):
                forest.add((row_of[b], e))
            else:
                unknowns.append((row_of[b], e))

    cols = {e: [0] * r for e in others}
    for e in others:
        for b in support[e]:
            if (row_of[b], e) in forest:
                cols[e][row_of[b]] = 1

    unknown_by_col = {e: [u for u in unknowns if u[1] == e] for e in others}
    nonzero = list(range(1, q))

    matrix = [[0] * m.n for _ in range(r)]
    for i, b in enumerate(basis_elems):
        matrix[i][b] = 1
    search = (gf, table, others, unknown_by_col, cols, nonzero, matrix)
    if not _assign_columns(search, basis_elems[:], 0):
        return None
    return RepresentationMatrix(q, tuple(tuple(row) for row in matrix))


def _assign_columns(search, processed, idx):
    """Fill the columns others[idx:] of the matrix, each checked against the
    processed columns before it; True when every column is filled.  (Not a
    closure: a recursive closure is a reference cycle.)"""
    gf, table, others, unknown_by_col, cols, nonzero, matrix = search
    if idx == len(others):
        return True
    e = others[idx]
    slots = unknown_by_col[e]
    for values in itertools.product(nonzero, repeat=len(slots)):
        col = cols[e][:]
        for (i, _), v in zip(slots, values):
            col[i] = v
        for i, row in enumerate(matrix):
            row[e] = col[i]
        if _column_fits(gf, table, matrix, processed, e):
            processed.append(e)
            if _assign_columns(search, processed, idx + 1):
                return True
            processed.pop()
    for row in matrix:
        row[e] = 0
    return False


def _column_fits(gf, table, matrix, processed, e):
    """Every subset of processed + [e] holding e has matrix rank equal to
    its matroid rank."""
    r = len(matrix)
    elems = processed + [e]
    for size in range(1, min(r, len(elems)) + 1):
        for sub in itertools.combinations(elems, size):
            if e not in sub:
                continue
            rows = [[row[c] for c in sub] for row in matrix]
            if gf.matrix_rank(rows, size) != table[mask_of(sub)]:
                return False
    return True


def excluded_minors(matroids, q: int, representable_cache=None):
    """Matroids not representable over GF(q) whose single-element deletions
    and contractions all are; input must be minor-closed (a full catalogue).
    """
    from .canon import certificate_for

    cache = representable_cache if representable_cache is not None else {}

    def rep_by_cert(mat):
        cert = certificate_for(mat.n, mat.rank, mat.hyperplanes).bytes
        if cert not in cache:
            cache[cert] = representable(mat, q) is not None
        return cache[cert]

    out = []
    for m in matroids:
        if rep_by_cert(m):
            continue
        minors_ok = all(
            rep_by_cert(child)
            for e in range(m.n)
            for child in (m.delete(e), m.contract(e))
        )
        if minors_ok:
            out.append(m)
    return out
