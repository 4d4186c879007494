"""Base-orderability, strong base-orderability, and transversal presentations.

Both exchange searches visit each pair of bases {A, B} and work only on the
difference D = A − B against B − A.  Two facts make that exact:

- An exchange bijection σ: A → B fixes A ∩ B pointwise.  If x ∈ A ∩ B had
  σ(x) = y ≠ x, one of (A − x) ∪ y and (B − y) ∪ x would hold r − 1
  elements and so not be a basis.  A pair with |D| = 1 therefore always
  exchanges (the swap turns A into B and B into A) and is skipped.
- X and D − X give the same two sets: (A − X) ∪ σ(X) = (B − σ(D − X)) ∪
  (D − X).  When |D| <= 3 every X ⊆ D is then empty, all of D, a singleton
  or the complement of one, so strong exchange for the pair holds exactly
  when its exchange graph has a perfect matching.  Only pairs with |D| >= 4
  need the subset search, and there the last element of D adds no condition
  that its complement has not already checked.

Transversality searches presentations of exactly rank-many sets drawn (with
repetition) from complements of cyclic flats; matchable-subset families are
maintained as one big bitset (bit s <=> subset s matchable), so candidate
pruning and the final matroid-equality check are single integer operations.
"""

from __future__ import annotations

import functools
import itertools

from .core import Matroid, bits
from .errors import BudgetExceeded

# The recursive searches below are module functions, not nested ones: a
# recursive closure is a reference cycle that only the cyclic collector frees.


def _has_perfect_matching(rows) -> bool:
    """Kuhn's augmenting paths; rows[i] = mask of the columns left i may take."""
    owner = {}
    return all(_augment(rows, owner, i, set()) for i in range(len(rows)))


def _augment(rows, owner, i, seen):
    """Match left i along an augmenting path, if there is one."""
    cols = rows[i]
    while cols:
        col = cols & -cols
        cols ^= col
        if col in seen:
            continue
        seen.add(col)
        if col not in owner or _augment(rows, owner, owner[col], seen):
            owner[col] = i
            return True
    return False


def _exchange_pairs(m: Matroid, bases_set):
    """(A, B, A − B, rows) for each pair of bases {A, B} with |A − B| >= 2.

    rows[i] is the exchange graph's row of the i-th element d of A − B: the
    mask of the e in B − A with (A − d) ∪ e and (B − e) ∪ d both bases.
    """
    n = m.n
    bases = m._bases
    # bit d*n + e of swap_out[X] says that (X − d) ∪ e is a basis, and of
    # swap_in[X] that (X − e) ∪ d is; swap_out[A] & swap_in[B] is then the
    # exchange graph of the pair, rows d in A − B and columns e in B − A
    swap_out, swap_in = {}, {}
    for a_mask in bases:
        out = into = 0
        for d in bits(a_mask):
            rest = a_mask & ~(1 << d)
            for e in bits(m.full & ~a_mask):
                if rest | (1 << e) in bases_set:
                    out |= 1 << (d * n + e)
                    into |= 1 << (e * n + d)
        swap_out[a_mask] = out
        swap_in[a_mask] = into
    row = (1 << n) - 1
    for a_mask, b_mask in itertools.combinations(bases, 2):
        d_mask = a_mask & ~b_mask
        if d_mask & (d_mask - 1) == 0:
            continue
        graph = swap_out[a_mask] & swap_in[b_mask]
        yield a_mask, b_mask, d_mask, [(graph >> (d * n)) & row for d in bits(d_mask)]


def base_orderable(m: Matroid) -> bool:
    """Every pair of bases admits an elementwise exchange bijection."""
    return all(
        _has_perfect_matching(rows)
        for _, _, _, rows in _exchange_pairs(m, set(m._bases))
    )


def strongly_base_orderable(m: Matroid) -> bool:
    """Some exchange bijection works for every subset, for every basis pair."""
    bases_set = set(m._bases)
    for a_mask, b_mask, d_mask, rows in _exchange_pairs(m, bases_set):
        if len(rows) <= 3:
            if not _has_perfect_matching(rows):
                return False
            continue
        pair = (a_mask, b_mask, [1 << d for d in bits(d_mask)], bases_set)
        if not _extend_pairing(pair, rows, 0, []):
            return False
    return True


def _subsets_ok(pair, pairing):
    """Every X of two or more elements of A − B within the matched prefix,
    holding its newest element, exchanges; singletons are the graph's edges."""
    a_mask, b_mask, d_bits, bases_set = pair
    upto = len(pairing) - 1
    for k in range(1, upto + 1):
        for extra in itertools.combinations(range(upto), k):
            x, y = d_bits[upto], pairing[upto]
            for i in extra:
                x |= d_bits[i]
                y |= pairing[i]
            if (a_mask & ~x) | y not in bases_set:
                return False
            if (b_mask & ~y) | x not in bases_set:
                return False
    return True


def _extend_pairing(pair, rows, used, pairing):
    """Grow pairing (the images, as bits, of a prefix of A − B) to a strong
    exchange; used is the mask of the images taken.

    Every X holding the last element of A − B is the complement of an X
    checked before it, so the one column left over completes the bijection.
    """
    i = len(pairing)
    if i == len(rows) - 1:
        return True
    cols = rows[i] & ~used
    while cols:
        col = cols & -cols
        cols ^= col
        pairing.append(col)
        if _subsets_ok(pair, pairing) and _extend_pairing(pair, rows, used | col, pairing):
            return True
        pairing.pop()
    return False


# -- transversal presentations ------------------------------------------------


def _matchable_extend(matchable: int, a_set: int, contains):
    """Add one presentation set to a matchable-subset bitset."""
    out = matchable
    for e in bits(a_set):
        out |= (matchable & ~contains[e]) << (1 << e)
    return out


@functools.cache
def _contains_tables(n):
    """contains[e]: the bitset of the subsets of range(n) that hold e."""
    tables = []
    for e in range(n):
        acc = 0
        for s in range(1 << n):
            if (s >> e) & 1:
                acc |= 1 << s
        tables.append(acc)
    return tuple(tables)


def cyclic_flats(m: Matroid):
    """Flats whose restriction has no coloops (unions of circuits)."""
    table = m.rank_table
    out = []
    for f in m._flat_data[0]:
        if all(table[f & ~(1 << e)] == table[f] for e in bits(f)):
            out.append(f)
    return out


# search nodes one transversal call may visit before BudgetExceeded
_NODE_BUDGET = 2_000_000


def transversal(m: Matroid):
    """A presentation by rank-many sets inducing exactly m, or None.

    Candidate sets are complements of cyclic flats (every transversal
    matroid has a maximal presentation of that shape); a partial choice dies
    as soon as some circuit of m becomes matchable.
    """
    n, r = m.n, m.rank
    if r == 0:
        return ()
    table = m.rank_table
    contains = _contains_tables(n)
    indep_bits = 0
    for s in range(1 << n):
        if table[s] == s.bit_count():
            indep_bits |= 1 << s
    circ_bits = 0
    for c in m._circuits:
        circ_bits |= 1 << c

    cands = sorted(
        {m.full & ~f for f in cyclic_flats(m)} - {0}, reverse=True
    )
    nonloops = m.full & ~m.loops()
    suffix_union = [0] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | cands[i]

    search = (cands, suffix_union, nonloops, circ_bits, indep_bits, contains, r)
    found = _grow_presentation(search, [0, _NODE_BUDGET], 0, 0, 1, 0, [])
    return tuple(found) if found is not None else None


def _grow_presentation(search, nodes, start, depth, matchable, covered, chosen):
    """Extend chosen by candidates from start on; nodes = [visited, budget]."""
    cands, suffix_union, nonloops, circ_bits, indep_bits, contains, r = search
    nodes[0] += 1
    if nodes[0] > nodes[1]:
        raise BudgetExceeded(f"transversal search passed {nodes[1]} nodes")
    if depth == r:
        return list(chosen) if matchable == indep_bits else None
    for i in range(start, len(cands)):
        if covered | suffix_union[i] != nonloops:
            return None  # later candidates only shrink coverage
        a = cands[i]
        nxt = _matchable_extend(matchable, a, contains)
        if nxt & circ_bits:
            continue
        got = _grow_presentation(
            search, nodes, i, depth + 1, nxt, covered | a, chosen + [a]
        )
        if got is not None:
            return got
    return None
