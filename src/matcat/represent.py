"""Representability over GF(2), GF(3), GF(4), GF(5) by backtracking search.

A candidate matrix [I_r | A] fixes one basis B of the matroid to the
identity block, row i holding the identity 1 of the i-th element of B; the
zero pattern of every other column is forced by its fundamental circuit, a
spanning forest of the nonzero positions is normalized to 1 (projective
scaling), and the remaining entries range over the nonzero field elements.

Bases are nonzero minors.  For a set R of rows and a set T of columns of A
with |R| = |T|, the r-subset (B - B_R) + T is a basis of the column matroid
exactly when det A[R, T] != 0, where B_R holds the basis elements of the
rows in R.  The columns of A are placed in ascending order.  When column e
is tried, each minor det A[R, T + e] over placed columns T is one cofactor
expansion along e, its last column, with signs taken in that order: it
reads the minors det A[R - i, T] cached when the last column of T was
placed, so it costs O(|R|) field operations.  The column survives only if
those minors are nonzero exactly on the matroid's bases.  On B, the placed
columns and e, the matrix and the matroid both have rank r, and two rank-r
matroids agree iff their bases agree; so a completed matrix represents the
matroid.

Representability over a field is invariant under duality: if M* is the
column matroid of [I | A], then M is the column matroid of [-A^T | I] with
the same column labels (Oxley, Matroid Theory, Thm 2.2.8).  The search cost
grows steeply with rank, so a loopless matroid with 2r > n is searched
through its dual, of rank n - r < n/2, and the dual's matrix is turned into
one for the matroid.

Every matrix `representable` returns has passed `verify_representation`
against the matroid itself: it has r rows, and its full-rank r-column
subsets are exactly the matroid's bases.  The check row-reduces its own copy
of the matrix to reduced echelon form A', whose pivot columns P come from
the matrix and not from the search; each r-subset is (P - P_R) + T for one
pair (R, T) and has full rank exactly when det A'[R, T] != 0.  These minors
are filled by increasing |T|, each by one expansion along the lowest row of
R, so the check costs one elimination plus O(|T|) field operations per
r-subset, where one elimination per r-subset was paid before.  It shares no
code with the search: for a matroid searched as given P is the search's own
basis, and a check through the search's minor cache would repeat an error
in that arithmetic instead of catching it.  A failure raises
AssertionError, under ``python -O`` as well.

The property pass and excluded_minors ask for verdicts through _verdict,
which keeps each field's verdict on the matroid and reads a field off the
others where a theorem settles it (binary implies GF(4)-representable, and
GF(3)- exactly when GF(5)-representable) instead of searching.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .canon import certificate, minor, minor_certificate
from .core import Matroid, bits, mask_of


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


@dataclass(frozen=True)
class RepresentationMatrix:
    q: int
    entries: tuple  # rank rows of n field elements; column i <-> element i


def verify_representation(m: Matroid, rep: RepresentationMatrix) -> bool:
    """Exact check that rep represents m: r = m.rank rows of m.n field
    elements whose full-rank r-column subsets are exactly m's bases.

    The matrix is row-reduced once, and every r-subset is then decided by
    one cofactor expansion (see the module docstring); nothing is taken from
    the search that produced rep.
    """
    r, n, q = m.rank, m.n, rep.q
    if len(rep.entries) != r or any(
        len(row) != n or not all(0 <= x < q for x in row) for row in rep.entries
    ):
        return False
    gf = GF(q)
    add, mul, neg = gf.add, gf.mul, gf.neg
    rows, pivots = _reduced_echelon(gf, rep.entries)
    table = m.rank_table
    pivot_mask = mask_of(pivots)
    if table[pivot_mask] != r:  # also when there are fewer than r pivots
        return False
    # det[S] = det A'[R, T] for S = (P - P_R) + T, filled by increasing |T|;
    # expanding along the lowest row i of R reads det[S + p_i - t]
    det = [0] * (1 << n)
    det[pivot_mask] = 1
    free_cols = [c for c in range(n) if not (pivot_mask >> c) & 1]
    for k in range(1, min(r, n - r) + 1):
        col_sets = [
            (mask_of(cols), cols) for cols in itertools.combinations(free_cols, k)
        ]
        for row_set in itertools.combinations(range(r), k):
            low = rows[row_set[0]]
            kept = pivot_mask & ~mask_of(pivots[i] for i in row_set)
            lifted = kept | (1 << pivots[row_set[0]])
            for cols_mask, cols in col_sets:
                subset = kept | cols_mask
                d = 0
                for j, t in enumerate(cols):
                    a, sub = low[t], det[lifted | (cols_mask & ~(1 << t))]
                    if a and sub:
                        term = mul[a][sub]
                        d = add[d][neg[term] if j & 1 else term]
                if (d != 0) != (table[subset] == r):
                    return False
                det[subset] = d
    return True


def _reduced_echelon(gf: GF, entries):
    """(rows, pivot columns) of the reduced row echelon form of entries over
    gf; entries is left as it was."""
    add, mul, neg, inv = gf.add, gf.mul, gf.neg, gf.inv
    rows = [list(row) for row in entries]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        iv = inv[rows[k][c]]
        pivot = rows[k] = [mul[iv][x] for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[c]:
                f = neg[row[c]]
                rows[i] = [add[x][mul[f][y]] for x, y in zip(row, pivot)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def representable(m: Matroid, q: int):
    """A RepresentationMatrix over GF(q), or None when none exists.

    Loops are stripped first; a loopless matroid with 2 * rank > n is
    searched on its dual (see the module docstring).  Whichever way it was
    found, the matrix is checked against m itself.
    """
    rep = _search(m, q)
    if rep is not None and not verify_representation(m, rep):
        raise AssertionError(f"GF({q}) matrix {rep.entries} does not represent {m!r}")
    return rep


def _search(m: Matroid, q: int):
    """representable's answer for m, unverified."""
    if m.rank == 0:
        return RepresentationMatrix(q, ())
    if m.loops():
        # loops are zero columns; represent the loopless part and pad
        keep = m.full & ~m.loops()
        rep = _search(m.restrict(keep), q)
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
        return None if rep is None else _dual_matrix(rep, min(dual._bases), m.n)
    return _representable_direct(m, q)


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
    # row i is node i and column e is node r + e, labelled by its component
    forest = set()
    component = list(range(r + m.n))
    unknowns = []
    for e in others:
        for b in support[e]:
            a, c = component[row_of[b]], component[r + e]
            if a != c:
                component = [a if x == c else x for x in component]
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
    # the basis elements whose identity 1s sit in the rows of each row mask
    row_elems = [mask_of(basis_elems[i] for i in bits(rows)) for rows in range(1 << r)]
    check = (GF(q), table, r, basis, row_elems, _cofactor_terms(r))
    search = (others, unknown_by_col, cols, nonzero, matrix, check)
    # the empty minor is 1; with r = 0 there is no minor to extend
    minors = [(0, 0, [1] + [0] * ((1 << r) - 1))] if r else []
    if not _assign_columns(search, minors, 0):
        return None
    return RepresentationMatrix(q, tuple(tuple(row) for row in matrix))


@functools.cache
def _cofactor_terms(r):
    """(row masks by size, terms) for r rows.

    terms[R] lists (i, R - i, odd) for each row i of R: the cofactor of row i
    in an expansion along the last column of a minor on rows R has sign -1
    when odd, i.e. when an odd number of rows of R lie below row i.
    """
    by_size = [[] for _ in range(r + 1)]
    terms = []
    for rows in range(1 << r):
        by_size[rows.bit_count()].append(rows)
        terms.append(tuple(
            (i, rows & ~(1 << i), (rows >> (i + 1)).bit_count() & 1) for i in bits(rows)
        ))
    return by_size, terms


def _assign_columns(search, minors, idx):
    """Fill the columns others[idx:] of the matrix; True when every column is
    filled.  minors holds (T, |T|, dets) for each set T of placed columns of
    size below r, dets[R] = det A[R, T] for each row mask R of size |T|.
    (Not a closure: a recursive closure is a reference cycle.)"""
    others, unknown_by_col, cols, nonzero, matrix, check = search
    if idx == len(others):
        return True
    e = others[idx]
    slots = unknown_by_col[e]
    for values in itertools.product(nonzero, repeat=len(slots)):
        col = cols[e][:]
        for (i, _), v in zip(slots, values):
            col[i] = v
        grown = _minors_with_column(check, minors, e, col)
        if grown is not None:
            for i, row in enumerate(matrix):
                row[e] = col[i]
            if _assign_columns(search, minors + grown, idx + 1):
                return True
    for row in matrix:
        row[e] = 0
    return False


def _minors_with_column(check, minors, e, col):
    """The minors det A[R, T + e] for every cached T, each by cofactor
    expansion along column e; those with |T + e| < r come back as new cache
    entries.  None as soon as one of them is zero where (B - B_R) + T + e is
    a basis of the matroid, or nonzero where it is not."""
    gf, table, r, basis, row_elems, (by_size, terms) = check
    add, mul, neg = gf.add, gf.mul, gf.neg
    bit = 1 << e
    grown = []
    for placed, k, dets in minors:
        placed |= bit
        new = [0] * (1 << r)
        for rows in by_size[k + 1]:
            det = 0
            for i, sub, odd in terms[rows]:
                a, d = col[i], dets[sub]
                if a and d:
                    det = add[det][mul[neg[a] if odd else a][d]]
            if (det != 0) != (table[basis & ~row_elems[rows] | placed] == r):
                return None
            new[rows] = det
        if k + 1 < r:
            grown.append((placed, k + 1, new))
    return grown


def _verdict(m: Matroid, q: int) -> bool:
    """representable(m, q) is not None, kept on m for later calls.

    A field whose verdict follows from the verdicts already kept for other
    fields is read off them (see _implied_verdict) instead of searched.
    """
    known = getattr(m, "_verdicts", None)
    if known is None:
        known = m._verdicts = {}
    if q not in known:
        implied = _implied_verdict(known, q)
        known[q] = (representable(m, q) is not None) if implied is None else implied
    return known[q]


def _implied_verdict(known: dict, q: int):
    """The GF(q) verdict that the verdicts in known (field -> bool) force, or
    None when they leave it open.

    A binary matroid is GF(4)-representable, as GF(2) is a subfield of GF(4).
    It is representable over a field of characteristic other than two
    exactly when it is regular, that is over every field (Tutte 1958; Oxley,
    Matroid Theory, section 6.6); so over GF(3) exactly when over GF(5).
    Read backwards: a matroid that is not GF(4)-representable, or whose
    GF(3) and GF(5) verdicts differ, is not binary.
    """
    binary = known.get(2)
    if binary:
        if q == 4:
            return True
        if q in (3, 5):
            return known.get(8 - q)
    if q == 2:
        if known.get(4) is False:
            return False
        if 3 in known and 5 in known and known[3] != known[5]:
            return False
    return None


def excluded_minors(matroids, q: int, representable_cache=None):
    """Matroids not representable over GF(q) whose single-element deletions
    and contractions all are, in input order; the input need not be
    minor-closed.

    Adding a loop, a coloop, a parallel or a series element keeps
    GF(q)-representability (Oxley, Matroid Theory, ch. 6), so only simple,
    cosimple inputs are searched, through _verdict, whose verdicts the inputs
    keep for a later field's call.  A non-representable one is labelled, and
    as an automorphism maps M\\e onto M\\f and M/e onto M/f when e and f
    share an orbit, only the deletion and contraction of each element
    orbit's least element are checked; the input keeps those certificates.
    representable_cache maps the certificate bytes of those minors to their
    GF(q) verdicts, and a minor missing from it is searched.
    """
    cache = representable_cache if representable_cache is not None else {}

    def representable_minor(m, i):
        cert = minor_certificate(m, i)
        if cert not in cache:
            cache[cert] = representable(minor(m, i), q) is not None
        return cache[cert]

    return [
        m for m in matroids
        if all(m.simple_cosimple())
        and not _verdict(m, q)
        and all(
            representable_minor(m, i)
            for orbit in certificate(m).element_orbits
            for i in (2 * orbit[0], 2 * orbit[0] + 1)
        )
    ]
