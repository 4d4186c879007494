"""Base-orderability, strong base-orderability, and transversal presentations.

Transversality searches presentations of exactly rank-many sets drawn (with
repetition) from complements of cyclic flats; matchable-subset families are
maintained as one big bitset (bit s <=> subset s matchable), so candidate
pruning and the final matroid-equality check are single integer operations.
"""

from __future__ import annotations

import itertools

from .core import Matroid, bits, mask_of, popcount
from .errors import BudgetExceeded

# The recursive searches below are module functions, not nested ones: a
# recursive closure is a reference cycle that only the cyclic collector frees.


def _perfect_matching(adj, size):
    """Kuhn's augmenting paths; adj[i] = candidate right ids for left i."""
    match_right = {}
    for i in range(size):
        if not _augment(adj, match_right, i, set()):
            return None
    pairing = [None] * size
    for j, i in match_right.items():
        pairing[i] = j
    return pairing


def _augment(adj, match_right, i, visited):
    """Match left i along an augmenting path, if there is one."""
    for j in adj[i]:
        if j in visited:
            continue
        visited.add(j)
        if j not in match_right or _augment(adj, match_right, match_right[j], visited):
            match_right[j] = i
            return True
    return False


def _exchange_graph(m, a_elems, b_elems, bases_set, a_mask, b_mask):
    adj = []
    for a in a_elems:
        row = []
        for jdx, b in enumerate(b_elems):
            na = (a_mask & ~(1 << a)) | (1 << b)
            nb = (b_mask & ~(1 << b)) | (1 << a)
            if na in bases_set and nb in bases_set:
                row.append(jdx)
        adj.append(row)
    return adj


def base_orderable(m: Matroid) -> bool:
    """Every pair of bases admits an elementwise exchange bijection."""
    bases = m._bases
    bases_set = set(bases)
    for a_mask, b_mask in itertools.combinations(bases, 2):
        a_elems = list(bits(a_mask))
        b_elems = list(bits(b_mask))
        adj = _exchange_graph(m, a_elems, b_elems, bases_set, a_mask, b_mask)
        if _perfect_matching(adj, len(a_elems)) is None:
            return False
    return True


def strongly_base_orderable(m: Matroid) -> bool:
    """Some exchange bijection works for every subset, for every basis pair."""
    bases = m._bases
    bases_set = set(bases)
    for a_mask, b_mask in itertools.combinations(bases, 2):
        a_elems = list(bits(a_mask))
        b_elems = list(bits(b_mask))
        adj = _exchange_graph(m, a_elems, b_elems, bases_set, a_mask, b_mask)
        pair = (a_mask, b_mask, a_elems, b_elems, bases_set)
        if not _extend_pairing(pair, adj, [False] * m.rank, []):
            return False
    return True


def _subsets_ok(pair, pairing, upto):
    """Every X holding a_elems[upto] within the matched prefix exchanges."""
    a_mask, b_mask, a_elems, b_elems, bases_set = pair
    rest = list(range(upto))
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            idxs = extra + (upto,)
            x = mask_of(a_elems[i] for i in idxs)
            y = mask_of(b_elems[pairing[i]] for i in idxs)
            if (a_mask & ~x) | y not in bases_set:
                return False
            if (b_mask & ~y) | x not in bases_set:
                return False
    return True


def _extend_pairing(pair, adj, used, pairing):
    """Grow pairing (a prefix of the bijection) to a strong exchange."""
    i = len(pairing)
    if i == len(adj):
        return True
    for j in adj[i]:
        if used[j]:
            continue
        pairing.append(j)
        used[j] = True
        if _subsets_ok(pair, pairing, i) and _extend_pairing(pair, adj, used, pairing):
            return True
        used[j] = False
        pairing.pop()
    return False


# -- transversal presentations ------------------------------------------------


def _matchable_extend(matchable: int, a_set: int, n: int, contains):
    """Add one presentation set to a matchable-subset bitset."""
    out = matchable
    for e in bits(a_set):
        out |= (matchable & ~contains[e]) << (1 << e)
    return out


def _contains_tables(n):
    tables = []
    for e in range(n):
        acc = 0
        for s in range(1 << n):
            if (s >> e) & 1:
                acc |= 1 << s
        tables.append(acc)
    return tables


def cyclic_flats(m: Matroid):
    """Flats whose restriction has no coloops (unions of circuits)."""
    table = m.rank_table
    out = []
    for f in m._flat_data[0]:
        if all(table[f & ~(1 << e)] == table[f] for e in bits(f)):
            out.append(f)
    return out


def transversal(m: Matroid, node_budget: int = 2_000_000):
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
        if table[s] == popcount(s):
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

    search = (cands, suffix_union, nonloops, circ_bits, indep_bits, contains, n, r)
    found = _grow_presentation(search, [0, node_budget], 0, 0, 1, 0, [])
    return tuple(found) if found is not None else None


def _grow_presentation(search, nodes, start, depth, matchable, covered, chosen):
    """Extend chosen by candidates from start on; nodes = [visited, budget]."""
    cands, suffix_union, nonloops, circ_bits, indep_bits, contains, n, r = search
    nodes[0] += 1
    if nodes[0] > nodes[1]:
        raise BudgetExceeded(f"transversal search passed {nodes[1]} nodes")
    if depth == r:
        return list(chosen) if matchable == indep_bits else None
    for i in range(start, len(cands)):
        if covered | suffix_union[i] != nonloops:
            return None  # later candidates only shrink coverage
        a = cands[i]
        nxt = _matchable_extend(matchable, a, n, contains)
        if nxt & circ_bits:
            continue
        got = _grow_presentation(
            search, nodes, i, depth + 1, nxt, covered | a, chosen + [a]
        )
        if got is not None:
            return got
    return None


def transversal_matroid_independence(n: int, sets) -> int:
    """Matchable-subset bitset of the transversal system given by sets."""
    contains = _contains_tables(n)
    matchable = 1
    for a in sets:
        matchable = _matchable_extend(matchable, a, n, contains)
    return matchable


def brute_force_transversal_certs(n: int, max_sets: int | None = None):
    """Certificates of every transversal matroid on n elements.

    Enumerates presentations as multisets of nonempty subsets (up to
    max_sets of them, default n); independence-family deduplication keeps
    the certificate workload tiny.  Exponential; intended for n <= 6.
    """
    from .canon import certificate_for

    limit = n if max_sets is None else max_sets
    contains = _contains_tables(n)
    families = {1}  # rank-0 empty presentation
    frontier = {1}
    for _ in range(limit):
        new = set()
        for matchable in frontier:
            for a in range(1, 1 << n):
                nxt = _matchable_extend(matchable, a, n, contains)
                if nxt not in families:
                    families.add(nxt)
                    new.add(nxt)
        frontier = new
        if not frontier:
            break
    certs = set()
    for fam in families:
        table = [0] * (1 << n)
        for s in range(1 << n):
            table[s] = max(
                popcount(t)
                for t in _submask_iter(s)
                if (fam >> t) & 1
            )
        mat = Matroid.from_rank_table(n, table)
        certs.add(certificate_for(mat.n, mat.rank, mat.hyperplanes).bytes)
    return certs


def _submask_iter(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
