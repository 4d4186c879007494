"""Canonical labelling of set families via refinement and individualization.

A matroid is canonicalized through its hyperplane graph: the bipartite graph
on element-vertices and hyperplane-vertices with containment edges.  Because
distinct hyperplanes have distinct neighbourhoods, a colour-respecting graph
isomorphism is determined by the element permutation alone, so the search
runs over element labellings only.  The same engine canonicalizes arbitrary
mask families under a given ordered partition of the elements (used for
group-restricted searches such as the stabilizer of a fixed block).

The search individualizes inside the first smallest non-singleton cell and
keeps the minimum leaf as the canonical form.  Two leaves with the same
relabelled family differ by an automorphism, which is kept as a generator.
A node tries the elements of its target cell in order and skips an element
that lies in the orbit closure of the elements already tried, under the
generators found so far that fix every element individualized on the path
to the node; the closure is a bitset that grows as elements are tried and
generators found.  Discovered generators yield element orbits and, through
a small stabilizer chain, the automorphism group order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EmptyGroundSet, UnionFind, bits, popcount
from .errors import BudgetExceeded


def relabel_mask(mask: int, perm) -> int:
    """Apply an element permutation to a mask (bit e -> bit perm[e])."""
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def relabel_family(masks, perm):
    return tuple(sorted(relabel_mask(m, perm) for m in masks))


def _compose(p, q):
    """Permutation applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def _invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _orbit_partition(n, gens):
    uf = UnionFind(range(n))
    for g in gens:
        for i in range(n):
            uf.union(i, g[i])
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def _transversal(n, point, gens) -> dict:
    """Orbit of point under gens: each image y -> a group element sending
    point to y, found by search from the identity."""
    transversal = {point: tuple(range(n))}
    queue = [point]
    while queue:
        x = queue.pop()
        tx = transversal[x]
        for g in gens:
            y = g[x]
            if y not in transversal:
                transversal[y] = _compose(g, tx)
                queue.append(y)
    return transversal


def group_order(n: int, gens) -> int:
    """Order of the permutation group generated by gens (stabilizer chain)."""
    identity = tuple(range(n))
    gens = [tuple(g) for g in gens if tuple(g) != identity]
    order = 1
    for point in range(n):
        if not gens:
            break
        transversal = _transversal(n, point, gens)
        order *= len(transversal)
        stab = set()
        for x, tx in transversal.items():
            for g in gens:
                rep = transversal[g[x]]
                sg = _compose(_invert(rep), _compose(g, tx))
                if sg != identity:
                    stab.add(sg)
        gens = list(stab)
    return order


@dataclass
class CanonicalForm:
    """Canonical relabelling of a mask family under element permutations."""

    n: int
    masks: tuple            # canonical (relabelled, sorted) family
    perm: tuple             # element -> canonical label, one witness
    generators: tuple       # automorphism generators (element perms)


def _equitable_refine(hyps_of, cells, keys):
    """Stable refinement by mask-colour signatures until no cell splits.

    keys holds each mask's colour under cells and is updated in place.  A
    colour holds, in 4 bits per cell, the number of the mask's elements in
    that cell; a cell that ends at position end of the ordered elements
    sits at 4 * (n - end) bits.  Earlier cells sit higher, so colours
    compare as their count vectors do, cell by cell, and a split moves only
    the subcells that end before their parent.  An element's signature is
    the ascending list of the colours of the masks containing it.  Cell
    order is preserved: subcells replace their parent in place, sorted by
    signature, so an element of the first cell keeps the smallest labels
    down every branch of the search.
    """
    n = len(hyps_of)
    while len(cells) < n:  # else every cell is a singleton
        key_of = keys.__getitem__
        out = []
        moved = []       # (elements, colour change) of subcells that end earlier
        end = 0
        for cell in cells:
            end += len(cell)
            if len(cell) > 1:
                sig = {}
                for e in cell:
                    key = tuple(sorted(map(key_of, hyps_of[e])))
                    sig.setdefault(key, []).append(e)
                if len(sig) > 1:
                    sub_end = end - len(cell)
                    for key in sorted(sig):
                        sub = sig[key]
                        out.append(sub)
                        sub_end += len(sub)
                        if sub_end < end:
                            delta = (1 << 4 * (n - sub_end)) - (1 << 4 * (n - end))
                            moved.append((sub, delta))
                    continue
            out.append(cell)
        if not moved:
            break
        for sub, delta in moved:
            for e in sub:
                for i in hyps_of[e]:
                    keys[i] += delta
        cells = out
    return cells


def element_has_minimal_signature(n, masks, e) -> bool:
    """True iff no element's one-round signature is smaller than e's.

    An element's signature is the ascending list of the sizes of the masks
    that contain it.  The first cell of the root refinement holds the
    elements of least signature, and deeper refinement only shrinks that
    cell, so this is a necessary condition for e to receive the lowest
    canonical label.
    """
    sig = [[] for _ in range(n)]
    for m in sorted(masks, key=int.bit_count):
        size = m.bit_count()
        while m:
            b = m & -m
            sig[b.bit_length() - 1].append(size)
            m ^= b
    return sig[e] == min(sig)


def _orbit_closure(closed, frontier, gens):
    """Least superset of the element set closed that is closed under gens,
    given that only the elements of frontier may have images outside it."""
    while frontier:
        new = 0
        for e in bits(frontier):
            for g in gens:
                new |= 1 << g[e]
        frontier = new & ~closed
        closed |= frontier
    return closed


class _Search:
    """State of one canonical search: the family, the leaves kept so far
    and the automorphism generators found at leaf collisions."""

    __slots__ = ("n_masks", "hyps_of", "budget", "nodes", "first", "best", "gens")

    def __init__(self, n, masks, budget):
        self.n_masks = len(masks)
        self.hyps_of = [
            [i for i, m in enumerate(masks) if m & b] for b in [1 << e for e in range(n)]
        ]
        self.budget = budget
        self.nodes = 0
        self.first = None          # (value, perm) of the first leaf
        self.best = None           # (value, perm) of the least leaf
        self.gens = []


def _leaf(s, cells):
    perm = [0] * len(s.hyps_of)
    for label, cell in enumerate(cells):
        perm[cell[0]] = label
    vals = [0] * s.n_masks
    for e, hyps in enumerate(s.hyps_of):
        b = 1 << perm[e]
        for i in hyps:
            vals[i] |= b
    value = tuple(sorted(vals))
    perm = tuple(perm)
    if s.first is None:
        s.first = s.best = (value, perm)
        return
    for ref_value, ref_perm in (s.first, s.best):
        if value == ref_value and perm != ref_perm:
            # relabel(masks, perm) == relabel(masks, ref) means the
            # composition ref^-1 after perm fixes the family
            g = _compose(_invert(ref_perm), perm)
            if g not in s.gens:
                s.gens.append(g)
            break
    if value < s.best[0]:
        s.best = (value, perm)


def _search(s, cells, keys, fixed, fixing):
    """One node: keys are the mask colours under cells, fixed lists the
    individualized elements along the path, fixing the generators found
    before this node that fix each of them."""
    s.nodes += 1
    if s.nodes > s.budget:
        raise BudgetExceeded(f"canonical search passed {s.budget} nodes")
    cells = _equitable_refine(s.hyps_of, cells, keys)
    target = None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
            target = i
    if target is None:
        _leaf(s, cells)
        return
    cell = cells[target]
    n = len(s.hyps_of)
    start = sum(map(len, cells[:target]))
    # v alone ends at start + 1; the rest keeps the cell's end
    delta = (1 << 4 * (n - start - 1)) - (1 << 4 * (n - start - len(cell)))
    closed = 0               # orbit closure of the tried elements under fixing
    seen = len(s.gens)       # generators before seen are sorted into fixing
    for v in cell:
        if closed >> v & 1:
            continue
        rest = [u for u in cell if u != v]
        sub_keys = keys.copy()
        for i in s.hyps_of[v]:
            sub_keys[i] += delta
        _search(
            s, cells[:target] + [[v], rest] + cells[target + 1:], sub_keys,
            fixed + [v], [g for g in fixing if g[v] == v],
        )
        new = [g for g in s.gens[seen:] if all(g[p] == p for p in fixed)]
        seen = len(s.gens)
        fixing = fixing + new
        closed |= 1 << v
        closed = _orbit_closure(closed, closed if new else 1 << v, fixing)


def canonical_family(n, masks, cells=None, node_budget=2_000_000):
    """Canonicalize a family of masks under permutations of {0..n-1}.

    cells, when given, is an ordered partition of the elements restricting
    the group to permutations preserving each cell; the canonical form is
    then minimal over that subgroup only.
    """
    masks = tuple(sorted(masks))
    if n == 0:
        return CanonicalForm(0, masks, (), ())
    if cells is None:
        cells = [list(range(n))]
    else:
        cells = [sorted(c) for c in cells if c]
    s = _Search(n, masks, node_budget)
    keys = [0] * len(masks)
    end = 0
    for cell in cells:
        end += len(cell)
        digit = 1 << 4 * (n - end)
        for e in cell:
            for i in s.hyps_of[e]:
                keys[i] += digit
    _search(s, cells, keys, [], [])
    value, perm = s.best
    return CanonicalForm(n, value, perm, tuple(s.gens))


@dataclass
class Certificate:
    """Canonical byte string for a matroid plus symmetry byproducts."""

    n: int
    rank: int
    bytes: bytes
    canonical_hyperplanes: tuple
    perm: tuple
    generators: tuple

    @property
    def element_orbits(self):
        return _orbit_partition(self.n, self.generators)

    @property
    def aut_order(self) -> int:
        return group_order(self.n, self.generators)

    @property
    def orbit_count(self) -> int:
        return len(self.element_orbits)

    def orbit_ids(self):
        """orbit id per element, usable for same-orbit tests."""
        ids = [0] * self.n
        for k, orb in enumerate(self.element_orbits):
            for e in orb:
                ids[e] = k
        return ids


def certificate_for(n: int, rank: int, hyperplanes) -> Certificate:
    cf = canonical_family(n, hyperplanes)
    body = b"".join(m.to_bytes(2, "big") for m in cf.masks)
    return Certificate(
        n, rank, bytes([n, rank]) + body, cf.masks, cf.perm, cf.generators
    )


def certificate(m) -> Certificate:
    """Certificate of a Matroid; cached on the instance."""
    cached = getattr(m, "_certificate", None)
    if cached is None:
        cached = certificate_for(m.n, m.rank, m.hyperplanes)
        m._certificate = cached
    return cached


def is_isomorphic(m1, m2) -> bool:
    return certificate(m1).bytes == certificate(m2).bytes


def distinguished_element(m) -> int:
    """The element receiving canonical label 0."""
    if m.n == 0:
        raise EmptyGroundSet("no elements to distinguish")
    cert = certificate(m)
    return cert.perm.index(0)


@dataclass(frozen=True)
class HyperplaneGraph:
    """Bipartite element/hyperplane incidence structure."""

    n_elements: int
    n_hyperplanes: int
    incidence: tuple  # per hyperplane, the mask of contained elements

    def edge_count(self) -> int:
        return sum(popcount(m) for m in self.incidence)


def hyperplane_graph(m) -> HyperplaneGraph:
    return HyperplaneGraph(m.n, len(m.hyperplanes), tuple(m.hyperplanes))


def automorphism_mapping(cert: Certificate, a: int, b: int):
    """An explicit automorphism sending a to b, or None if in distinct orbits."""
    return _transversal(cert.n, a, cert.generators).get(b)
