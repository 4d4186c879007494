"""Canonical labelling of set families via refinement and individualization.

A matroid is canonicalized through its hyperplane graph: the bipartite graph
on element-vertices and hyperplane-vertices with containment edges.  Because
distinct hyperplanes have distinct neighbourhoods, a colour-respecting graph
isomorphism is determined by the element permutation alone, so the search
runs over element labellings only.  The same engine canonicalizes arbitrary
mask families under a given ordered partition of the elements (used for
group-restricted searches such as the stabilizer of a fixed block).

The search individualizes inside the first smallest non-singleton cell,
prunes branches using automorphisms discovered from leaf collisions, and
keeps the minimum leaf as the canonical form.  Discovered generators yield
element orbits and, through a small stabilizer chain, the automorphism
group order.
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


def _hyp_membership(n, masks):
    hyps_of = [[] for _ in range(n)]
    for idx, m in enumerate(masks):
        for e in bits(m):
            hyps_of[e].append(idx)
    return hyps_of


def _equitable_refine(masks, hyps_of, cells):
    """Stable refinement by mask-colour signatures until no cell splits.

    Cell order is preserved: subcells replace their parent in place, sorted
    by signature, so an element of the first cell keeps the smallest labels
    down every branch of the search.
    """
    cells = [list(c) for c in cells]
    while True:
        if all(len(c) == 1 for c in cells):
            return cells
        cellmask = []
        for c in cells:
            cm = 0
            for e in c:
                cm |= 1 << e
            cellmask.append(cm)
        # per-mask colour key: 4 bits of intersection count per cell
        keys = []
        for m in masks:
            k = 0
            for cm in cellmask:
                k = (k << 4) | (m & cm).bit_count()
            keys.append(k)
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        hcid = [palette[k] for k in keys]
        out = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sig = {}
            for e in cell:
                key = tuple(sorted(hcid[i] for i in hyps_of[e]))
                sig.setdefault(key, []).append(e)
            if len(sig) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    out.append(sig[key])
        cells = out
        if not changed:
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

    hyps_of = _hyp_membership(n, masks)

    best = {"value": None, "perm": None}
    first = {"value": None, "perm": None}
    gens = []
    nodes = [0]

    def refine(cells):
        return _equitable_refine(masks, hyps_of, cells)

    def leaf(cells, fixed):
        perm = [0] * n
        for label, cell in enumerate(cells):
            perm[cell[0]] = label
        value = relabel_family(masks, perm)
        perm = tuple(perm)
        if first["value"] is None:
            first["value"] = value
            first["perm"] = perm
            best["value"] = value
            best["perm"] = perm
            return
        for ref in (first, best):
            if value == ref["value"] and perm != ref["perm"]:
                # relabel(masks, perm) == relabel(masks, ref) means the
                # composition ref^-1 after perm fixes the family
                g = _compose(_invert(ref["perm"]), perm)
                if g not in gens:
                    gens.append(g)
                break
        if value < best["value"]:
            best["value"] = value
            best["perm"] = perm

    def search(cells, fixed):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceeded(f"canonical search passed {node_budget} nodes")
        cells = refine(cells)
        target = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
                target = i
        if target is None:
            leaf(cells, fixed)
            return
        cell = cells[target]
        tried = []
        uf = None
        gens_seen = -1
        for v in cell:
            if tried:
                if gens_seen != len(gens):
                    gens_seen = len(gens)
                    fixing = [g for g in gens if all(g[p] == p for p in fixed)]
                    uf = None
                    if fixing:
                        uf = UnionFind(range(n))
                        for g in fixing:
                            for i in range(n):
                                uf.union(i, g[i])
                if uf is not None and any(
                    uf.find(v) == uf.find(u) for u in tried
                ):
                    continue
            tried.append(v)
            rest = [u for u in cell if u != v]
            sub = cells[:target] + [[v], rest] + cells[target + 1:]
            search(sub, fixed + [v])

    search(cells, [])
    return CanonicalForm(n, best["value"], best["perm"], tuple(gens))


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
