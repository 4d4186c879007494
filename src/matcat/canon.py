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
generators found.  Discovered generators yield element orbits and the
automorphism group order.

Backjumping.  A leaf that matches the first or the least leaf kept yields
an automorphism g, and the search then returns to the node where the two
paths split: every node deeper than their common prefix returns at once
(McKay 1981; McKay and Piperno 2014).  Refinement commutes with
relabelling, so g maps the kept leaf's path onto the new one element by
element, and the child of the split node on the new path roots the g-image
of the child on the kept path, which lies earlier in the search order and
was searched in full.  Every leaf skipped is thus the image of one already
seen, with the same value, so the least value is unchanged; and the least
leaf kept, the first in search order to reach that value, is never
skipped, so the witness perm is unchanged as well.  The group the
generators span is unchanged too; only the list is shorter (n - 1
transpositions for the full symmetric group instead of all of them).

Group order.  The first leaf's path b_1 .. b_k is a base of the group and
the generators a strong generating set for it, so the order is the
product of the orbit sizes of each b_i under the generators that fix
b_1 .. b_i-1 (McKay 1981).  On the first path's node at depth i, each
element of the target cell is searched, or skipped as an image of one
searched under generators that fix the path so far.  A searched element
of b_i's orbit roots an image of b_i's subtree, so it reaches a leaf equal
to the first or the least leaf kept; the generator that leaf yields fixes
b_1 .. b_i-1 and joins the element to b_i or to one searched earlier in
the orbit, and its backjump returns to this node, so each orbit is
complete.  Refinement is invariant and the first leaf is discrete, so
only the identity fixes the whole path.

Degree start.  When no cells are given and every mask has the same size,
as for the vertex families of a Johnson graph, all masks start with one
colour and the first refinement round is the partition of the elements by
ascending degree.  It is built from the degrees directly, with the colour
changes the round would make, and the round is not run.  The element lists
of the masks are read from a table filled as masks are met.

Known automorphisms.  A caller that already holds automorphisms of the
family, such as the parent automorphisms that map a modular cut onto
itself, passes them as known; the search starts with them as generators
found before the root, so they prune from the first node on (McKay and
Piperno 2014).  Pruning, by orbit closure or by a backjump, skips a subtree
only when it is the image, under an automorphism, of a subtree earlier in
the search order; each leaf it holds then has an earlier leaf of the same
value.  So the least leaf that comes first in the full search order is
never skipped, with or without known automorphisms, and the least value and
the witness perm stay the same.  Known automorphisms only add elements of
the group, so the group order argument above holds with them.  Only the
generator list changes; it starts with the known automorphisms, and
element orbits and the group order read from it are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import EmptyGroundSet, bits, pack_ascending
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
    return tuple(map(p.__getitem__, q))


def _invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def orbit_minima(size: int, perms) -> list:
    """For each point of 0..size-1, the least point of its orbit under perms."""
    least = [-1] * size
    for a in range(size):
        if least[a] < 0:
            least[a] = a
            stack = [a]
            while stack:
                x = stack.pop()
                for p in perms:
                    y = p[x]
                    if least[y] < 0:
                        least[y] = a
                        stack.append(y)
    return least


def _orbit_partition(n, gens):
    """The element orbits, each ascending, ordered by their least element."""
    groups = {}
    for i, a in enumerate(orbit_minima(n, gens)):
        groups.setdefault(a, []).append(i)
    return tuple(tuple(g) for g in groups.values())


@dataclass
class CanonicalForm:
    """Canonical relabelling of a mask family under element permutations."""

    n: int
    masks: tuple            # canonical (relabelled, sorted) family
    perm: tuple             # element -> canonical label, one witness
    generators: tuple       # automorphism generators (element perms)
    base: tuple             # the first leaf's path, a base of the group
    nodes: int = field(default=0, compare=False)  # search nodes visited


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
    canonical label.  The other elements' lists are built one at a time,
    stopping at the first that is smaller than e's.  They are taken from
    the highest element down: over the calls of the n <= 8 enumeration,
    which test the newest element, a call then builds 2.9 other lists on
    average, against 4.5 from the lowest element up.
    """
    sized = [(m, m.bit_count()) for m in sorted(masks, key=int.bit_count)]
    mine = [size for m, size in sized if m >> e & 1]
    for f in reversed(range(n)):
        if f != e and [size for m, size in sized if m >> f & 1] < mine:
            return False
    return True


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


def _order_down_base(base, gens) -> int:
    """Order of the group gens span, given that base is a base of it and
    gens a strong generating set for that base (see Group order)."""
    order = 1
    for b in base:
        order *= _orbit_closure(1 << b, 1 << b, gens).bit_count()
        gens = [g for g in gens if g[b] == b]
    return order


# mask -> its elements, ascending; filled as masks are met
_ELEMENTS = {}


class _Search:
    """State of one canonical search: the family, the leaves kept so far
    and the automorphism generators found at leaf collisions."""

    __slots__ = ("n_masks", "hyps_of", "budget", "nodes", "first", "best", "gens")

    def __init__(self, n, masks, budget, known):
        self.n_masks = len(masks)
        self.hyps_of = [[] for _ in range(n)]
        for i, m in enumerate(masks):
            els = _ELEMENTS.get(m)
            if els is None:
                els = _ELEMENTS[m] = tuple(bits(m))
            for e in els:
                self.hyps_of[e].append(i)
        self.budget = budget
        self.nodes = 0
        self.first = None          # (value, perm, path) of the first leaf
        self.best = None           # (value, perm, path) of the least leaf
        self.gens = list(known)


def _leaf(s, cells, fixed):
    """Record a leaf; when it matches a kept leaf, the length of the path
    prefix it shares with that leaf, else None."""
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
        s.first = s.best = (value, perm, fixed)
        return None
    for ref_value, ref_perm, ref_path in (s.first, s.best):
        if value == ref_value:
            # relabel(masks, perm) == relabel(masks, ref) means the
            # composition ref^-1 after perm fixes the family
            g = _compose(_invert(ref_perm), perm)
            if g not in s.gens:
                s.gens.append(g)
            depth = 0
            while fixed[depth] == ref_path[depth]:
                depth += 1
            return depth
    if value < s.best[0]:
        s.best = (value, perm, fixed)
    return None


def _search(s, cells, keys, fixed, fixing):
    """One node: cells are equitable, keys are the mask colours under them,
    fixed lists the individualized elements along the path, fixing the
    generators found before this node that fix each of them.  Returns the
    depth to resume at when a leaf below matched a kept leaf, else None."""
    s.nodes += 1
    if s.nodes > s.budget:
        raise BudgetExceeded(f"canonical search passed {s.budget} nodes")
    target = None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
            target = i
    if target is None:
        return _leaf(s, cells, fixed)
    cell = cells[target]
    n = len(s.hyps_of)
    depth = len(fixed)
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
        sub_cells = _equitable_refine(
            s.hyps_of, cells[:target] + [[v], rest] + cells[target + 1:], sub_keys
        )
        jump = _search(
            s, sub_cells, sub_keys, fixed + [v], [g for g in fixing if g[v] == v]
        )
        if jump is not None and jump < depth:
            return jump
        new = [g for g in s.gens[seen:] if all(g[p] == p for p in fixed)]
        seen = len(s.gens)
        fixing = fixing + new
        closed |= 1 << v
        closed = _orbit_closure(closed, closed if new else 1 << v, fixing)
    return None


def _degree_cells(hyps_of, keys):
    """The first refinement round of one cell whose masks share a colour:
    the elements by ascending degree, with keys moved to match."""
    n = len(hyps_of)
    by_degree = {}
    for e, hyps in enumerate(hyps_of):
        by_degree.setdefault(len(hyps), []).append(e)
    cells = [by_degree[d] for d in sorted(by_degree)]
    end = 0
    for cell in cells[:-1]:
        end += len(cell)
        delta = (1 << 4 * (n - end)) - 1
        for e in cell:
            for i in hyps_of[e]:
                keys[i] += delta
    return cells


def _require_partition(n, cells):
    """ValueError unless the cells together hold each of 0..n-1 once."""
    if sorted(e for cell in cells for e in cell) != list(range(n)):
        raise ValueError(f"cells {cells!r} do not partition range({n})")


# search nodes one canonical_family call may visit before BudgetExceeded
_NODE_BUDGET = 2_000_000


def canonical_family(n, masks, cells=None, known=()):
    """Canonicalize a family of masks under permutations of {0..n-1}.

    cells, when given, is an ordered partition of the elements restricting
    the group to permutations preserving each cell; the canonical form is
    then minimal over that subgroup only.  ValueError if it is not one.
    known holds automorphisms of the family (tuples, preserving each cell)
    that seed the search; the form, its perm and the group are the same
    with or without them (see the module docstring), and the generators
    returned start with them.
    """
    masks = tuple(sorted(masks))
    if cells is not None:
        _require_partition(n, cells)
    if n == 0:
        return CanonicalForm(0, masks, (), (), ())
    known = [tuple(g) for g in known]
    s = _Search(n, masks, _NODE_BUDGET, known)
    if cells is None and len(set(map(int.bit_count, masks))) <= 1:
        keys = [m.bit_count() for m in masks]
        cells = _degree_cells(s.hyps_of, keys)
        if len(cells) > 1:
            cells = _equitable_refine(s.hyps_of, cells, keys)
    else:
        keys = [0] * len(masks)
        cells = [list(range(n))] if cells is None else [sorted(c) for c in cells if c]
        end = 0
        for cell in cells:
            end += len(cell)
            digit = 1 << 4 * (n - end)
            for e in cell:
                for i in s.hyps_of[e]:
                    keys[i] += digit
        cells = _equitable_refine(s.hyps_of, cells, keys)
    _search(s, cells, keys, [], known)
    value, perm, _ = s.best
    return CanonicalForm(n, value, perm, tuple(s.gens), tuple(s.first[2]), s.nodes)


@dataclass
class Certificate:
    """Canonical byte string for a matroid plus symmetry byproducts."""

    n: int
    rank: int
    bytes: bytes
    perm: tuple
    generators: tuple
    base: tuple

    @property
    def element_orbits(self):
        return _orbit_partition(self.n, self.generators)

    @property
    def aut_order(self) -> int:
        return _order_down_base(self.base, self.generators)

    @property
    def orbit_count(self) -> int:
        return len(self.element_orbits)


def certificate_for(n: int, rank: int, hyperplanes, known=()) -> Certificate:
    """Certificate of a raw record; a Matroid's is cached by certificate.
    known: automorphisms that seed the search, as for canonical_family."""
    cf = canonical_family(n, hyperplanes, known=known)
    body = pack_ascending(cf.masks)
    return Certificate(n, rank, bytes([n, rank]) + body, cf.perm, cf.generators, cf.base)


def certificate(m, known=()) -> Certificate:
    """Certificate of a Matroid; cached on the instance.  known seeds the
    search when it runs, as for canonical_family."""
    cached = getattr(m, "_certificate", None)
    if cached is None:
        cached = m._certificate = certificate_for(m.n, m.rank, m.hyperplanes, known)
    return cached


def minor(m, i):
    """m delete e for i = 2e, m contract e for i = 2e + 1."""
    e = i >> 1
    return m.contract(e) if i & 1 else m.delete(e)


def minor_certificate(m, i) -> bytes:
    """Certificate bytes of minor(m, i), cached on m; each of the 2n slots
    is labelled when first read, and the minor itself is not kept."""
    certs = getattr(m, "_minor_certificates", None)
    if certs is None:
        certs = m._minor_certificates = [None] * (2 * m.n)
    cert = certs[i]
    if cert is None:
        cert = certs[i] = certificate(minor(m, i)).bytes
    return cert


def is_isomorphic(m1, m2) -> bool:
    return certificate(m1).bytes == certificate(m2).bytes


def distinguished_element(m) -> int:
    """The element receiving canonical label 0."""
    if m.n == 0:
        raise EmptyGroundSet("no elements to distinguish")
    cert = certificate(m)
    return cert.perm.index(0)
