"""Paving-matroid pipelines over Johnson graphs and their auxiliary graphs.

Independent sets in J(n, d+1) are circuit-hyperplane families of sparse
paving matroids of rank d+1; orbits are enumerated isomorph-freely by
canonical augmentation: a grown set survives only when the added vertex
lies in the automorphism orbit of the canonical deletion vertex, with
same-parent survivors deduplicated by canonical form.  At n = 2(d+1) the
group gains the complementation involution and orbits then pair each
matroid with its dual.

A family is grown by one vertex per orbit of its automorphism group on the
vertices that may join it, the first of each orbit in vertex order: two
vertices of one orbit give isomorphic children with the same verdict, so
the accepted children are those of labelling every vertex.  The group's
generators are those of the labelling that accepted the family, carried on
the search stack beside it, plus the map that complements the family onto
itself when there is one.  They are not checkpointed; a family taken up
without them (the root, a resumed stack, an estimator prefix) is labelled
once more to find them.  Each vertex's conflicts are a bitset over vertex
indices, built once per search.

Non-sparse counting fixes a largest block {0..k-1}, enumerates independent
sets of the auxiliary conflict graph G(k) under the block stabilizer, and
weights each completed matroid by 1/c where c is the number of automorphism
orbits on its size-k hyperplanes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .canon import canonical_family, certificate_for, relabel_mask, _compose, _invert
from .core import Matroid, UnionFind, bits, mask_of, popcount
from .errors import BudgetExceeded
from .named import sparse_paving


class NotIndependent(ValueError):
    """Vertex family is not independent in the Johnson graph."""


@dataclass(frozen=True)
class JohnsonGraph:
    n: int
    k: int
    vertices: tuple  # all k-subset masks, ascending

    @property
    def with_complement(self) -> bool:
        return self.n == 2 * self.k

    def adjacent(self, v: int, w: int) -> bool:
        return popcount(v & w) == self.k - 1

    def degree(self) -> int:
        return self.k * (self.n - self.k)


def johnson_graph(n: int, k: int) -> JohnsonGraph:
    if not 1 <= k < n <= 12:
        raise ValueError("need 1 <= k < n <= 12")
    verts = [mask_of(c) for c in itertools.combinations(range(n), k)]
    return JohnsonGraph(n, k, tuple(sorted(verts)))


def sparse_paving_from_independent_set(n: int, d: int, iset) -> Matroid:
    blocks = list(iset)
    for v, w in itertools.combinations(blocks, 2):
        if popcount(v & w) == d:
            raise NotIndependent(f"{v:#x} and {w:#x} meet in {d} points")
    if n <= d + 1:
        raise ValueError("degenerate: ground set must exceed rank")
    return sparse_paving(n, d + 1, blocks)


def paving_from_blocks(n: int, d: int, blocks) -> Matroid:
    """Paving matroid of rank d+1 whose d-partition blocks of size > d are given."""
    hyps = list(blocks)
    for small in itertools.combinations(range(n), d):
        sm = mask_of(small)
        if not any(sm & b == sm for b in blocks):
            hyps.append(sm)
    return Matroid.from_hyperplanes(n, hyps)


# -- canonical augmentation over a vertex family ------------------------------


@dataclass
class _FamilyCanon:
    value: tuple
    deletion_orbit: set           # orbit of the canonical deletion member
    actions: tuple                # automorphism generators as (perm, flip) pairs


def _orbit(v: int, actions) -> set:
    """Orbit of a vertex mask under automorphisms (perm, flip), each of which
    relabels by perm and then complements if flip is the full mask (0 if not)."""
    orbit = {v}
    work = [v]
    while work:
        x = work.pop()
        for perm, flip in actions:
            y = relabel_mask(x, perm) ^ flip
            if y not in orbit:
                orbit.add(y)
                work.append(y)
    return orbit


def _family_canon(n: int, masks: tuple, z2: bool, cells=None) -> _FamilyCanon:
    full = (1 << n) - 1
    cf = canonical_family(n, masks, cells=cells)
    actions = [(g, 0) for g in cf.generators]
    chosen, flip = cf, 0
    if z2:
        comp = tuple(sorted(full ^ m for m in masks))
        cf2 = canonical_family(n, comp, cells=cells)
        if cf2.masks < cf.masks:
            chosen, flip = cf2, full
        if cf2.masks == cf.masks:
            # tau maps the complemented family back onto the family
            actions.append((_compose(_invert(cf.perm), cf2.perm), full))
    # canonical deletion: the member whose canonical image is largest, i.e.
    # the preimage of the last canonical mask (complemented on the Z2 side)
    if masks:
        deletion = relabel_mask(chosen.masks[-1], _invert(chosen.perm)) ^ flip
        deletion_orbit = _orbit(deletion, actions)
    else:
        deletion_orbit = set()
    return _FamilyCanon(chosen.masks, deletion_orbit, tuple(actions))


@dataclass
class IsetSearch:
    """Checkpointable orbit enumeration of independent sets of a graph."""

    n: int
    vertices: tuple
    conflict_threshold: int       # adjacency: intersection size >= threshold
    z2: bool = False
    cells: tuple = None
    counts: dict = field(default_factory=dict)
    stack: list = field(default_factory=lambda: [()])
    nodes: int = 0
    max_size: int | None = None
    collect: bool = False
    collected: list = field(default_factory=list)
    # vertex -> bitset over vertex indices that cannot join it (itself included)
    _conflict: dict = field(init=False, repr=False, compare=False)
    # stacked family -> automorphism actions of the labelling that accepted it
    _actions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = self.conflict_threshold
        self._conflict = {
            v: sum(1 << j for j, u in enumerate(self.vertices) if popcount(v & u) >= t)
            | 1 << i
            for i, v in enumerate(self.vertices)
        }
        self._actions = {}

    def _children(self, members, actions):
        """Accepted canonical augmentations of one family, sorted by canonical
        form, each with its automorphism actions.  One candidate vertex per
        orbit of Aut(members) (generated by actions) is labelled."""
        taken = 0
        for u in members:
            taken |= self._conflict[u]
        out = {}
        seen = set()
        for i in bits(((1 << len(self.vertices)) - 1) & ~taken):
            v = self.vertices[i]
            if v in seen:
                continue
            if actions:
                seen |= _orbit(v, actions)
            child = tuple(sorted(members + (v,)))
            fc = _family_canon(self.n, child, self.z2, self.cells)
            if v not in fc.deletion_orbit:
                continue
            if fc.value not in out:
                out[fc.value] = (child, fc.actions)
        return [out[value] for value in sorted(out)]

    def run(self, budget: int | None = None, checkpoint_path: str | None = None,
            checkpoint_every: int = 5000):
        while self.stack:
            members = self.stack.pop()
            actions = self._actions.pop(members, None)
            self.nodes += 1
            size = len(members)
            self.counts[size] = self.counts.get(size, 0) + 1
            if self.collect:
                self.collected.append(members)
            if self.max_size is not None and size >= self.max_size:
                continue
            if actions is None:
                actions = _family_canon(self.n, members, self.z2, self.cells).actions
            for child, child_actions in reversed(self._children(members, actions)):
                self.stack.append(child)
                self._actions[child] = child_actions
            if checkpoint_path and self.nodes % checkpoint_every == 0:
                save_iset_checkpoint(self, checkpoint_path)
            if budget is not None and self.nodes > budget:
                if checkpoint_path:
                    save_iset_checkpoint(self, checkpoint_path)
                raise BudgetExceeded(f"{self.nodes} nodes exceed budget {budget}")
        return self.counts


# -- checkpoint serialization (magic, version byte, JSON) --------------------

_CKPT_MAGIC = b"MCJK"
_CKPT_VERSION = 2
_CKPT_FIELDS = (
    "n", "vertices", "conflict_threshold", "z2", "cells",
    "counts", "stack", "nodes", "max_size",
)


def save_iset_checkpoint(search: IsetSearch, path: str) -> None:
    payload = {name: getattr(search, name) for name in _CKPT_FIELDS}
    blob = json.dumps(payload, separators=(",", ":")).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_CKPT_MAGIC + bytes([_CKPT_VERSION]) + blob)
    os.replace(tmp, path)


def _int(x):
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _ints(xs) -> tuple:
    if type(xs) is not list:
        raise TypeError(f"expected a list, got {xs!r}")
    return tuple(_int(x) for x in xs)


def load_iset_checkpoint(path: str) -> IsetSearch:
    """Read a checkpoint written by save_iset_checkpoint; ValueError if malformed.

    The payload is plain JSON data: nothing in the file is executed.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != _CKPT_MAGIC + bytes([_CKPT_VERSION]):
        raise ValueError("bad checkpoint magic/version")
    try:
        data = json.loads(blob[5:])
        if set(data) != set(_CKPT_FIELDS):
            raise TypeError(f"expected fields {_CKPT_FIELDS}")
        if type(data["z2"]) is not bool or type(data["counts"]) is not dict:
            raise TypeError("bad z2 or counts field")
        cells = data["cells"]
        max_size = data["max_size"]
        search = IsetSearch(
            n=_int(data["n"]),
            vertices=_ints(data["vertices"]),
            conflict_threshold=_int(data["conflict_threshold"]),
            z2=data["z2"],
            cells=None if cells is None else tuple(_ints(c) for c in cells),
            counts={int(k): _int(v) for k, v in data["counts"].items()},
            stack=[_ints(members) for members in data["stack"]],
            nodes=_int(data["nodes"]),
            max_size=None if max_size is None else _int(max_size),
        )
        if not all(v in search._conflict for members in search.stack for v in members):
            raise ValueError("stack holds a family of non-vertices")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad checkpoint payload: {exc}") from None
    return search


def johnson_search(g: JohnsonGraph, **kwargs) -> IsetSearch:
    """The orbit search over independent sets of J(n,k): S_n, plus Z2 if n=2k."""
    return IsetSearch(
        g.n, g.vertices, conflict_threshold=g.k - 1, z2=g.with_complement, **kwargs
    )


def enumerate_isets_orderly(
    g: JohnsonGraph,
    budget: int | None = None,
    checkpoint_path: str | None = None,
    resume: IsetSearch | None = None,
):
    """Count independent-set orbits of J(n,k) by size (S_n, plus Z2 if n=2k)."""
    search = resume or johnson_search(g)
    return search.run(budget=budget, checkpoint_path=checkpoint_path)


def collect_iset_orbits(g: JohnsonGraph):
    """Orbit representatives themselves (families of vertex masks)."""
    search = johnson_search(g, collect=True)
    search.run()
    return search.collected


# -- self-dual counting --------------------------------------------------------


def count_self_dual_sparse(n: int, method: str = "certificate"):
    """Self-dual sparse paving classes of rank n/2 on n (even) elements."""
    if n % 2:
        raise ValueError("ground size must be even")
    k = n // 2
    g = johnson_graph(n, k)
    full = (1 << n) - 1
    reps = collect_iset_orbits(g)
    count = 0
    for members in reps:
        if method == "certificate":
            m = sparse_paving_from_independent_set(n, k - 1, members)
            d = m.dual()
            if (
                certificate_for(m.n, m.rank, m.hyperplanes).bytes
                == certificate_for(d.n, d.rank, d.hyperplanes).bytes
            ):
                count += 1
        elif method == "z2":
            comp = tuple(sorted(full ^ v for v in members))
            if (
                canonical_family(n, members).masks
                == canonical_family(n, comp).masks
            ):
                count += 1
        else:
            raise ValueError(f"unknown method {method!r}")
    return count


# -- sampling estimator ----------------------------------------------------------


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    exact_below_prefix: int
    frontier_size: int
    sample_size: int
    effective_fraction: float
    completions: int
    seed: int


def estimate_iset_count(
    g: JohnsonGraph, prefix_size: int, sample_fraction: float, seed: int
) -> EstimateReport:
    """Estimate total orbit count by completing a sampled prefix frontier."""
    search = johnson_search(g, max_size=prefix_size, collect=True)
    search.run()
    frontier = [s for s in search.collected if len(s) == prefix_size]
    below = sum(c for size, c in search.counts.items() if size < prefix_size)
    rng = random.Random(seed)
    m = max(1, round(sample_fraction * len(frontier)))
    m = min(m, len(frontier))
    sample = rng.sample(frontier, m) if frontier else []
    completions = 0
    for prefix in sample:
        sub = johnson_search(g, stack=[prefix])
        sub.run()
        completions += sum(sub.counts.values())
    frac = m / len(frontier) if frontier else 1.0
    estimate = below + (completions / frac if frac else 0.0)
    return EstimateReport(
        estimate, below, len(frontier), m, frac, completions, seed
    )


# -- non-sparse paving counts ----------------------------------------------------


def auxiliary_graph_vertices(n: int, d: int, k: int):
    """Blocks of size d+1..k meeting the fixed block {0..k-1} in < d points."""
    k0 = (1 << k) - 1
    verts = []
    for size in range(d + 1, k + 1):
        for c in itertools.combinations(range(n), size):
            v = mask_of(c)
            if popcount(v & k0) < d:
                verts.append(v)
    return tuple(sorted(verts))


def count_nonsparse_paving(n: int, rank: int, only_k: int | None = None):
    """Weighted counts of non-sparse paving matroids keyed by
    (largest hyperplane size k, number of size-k hyperplanes).

    only_k restricts to one largest-hyperplane size; the k range near n/2
    explodes combinatorially at paper scale (n = 10), so callers budget
    those buckets explicitly.
    """
    d = rank - 1
    if d < 1:
        raise ValueError("rank must be at least 2")
    results = {}
    k_range = range(d + 2, n) if only_k is None else [only_k]
    for k in k_range:
        k0 = (1 << k) - 1
        verts = auxiliary_graph_vertices(n, d, k)
        cells = (tuple(range(k)), tuple(range(k, n)))
        search = IsetSearch(
            n, verts, conflict_threshold=d, cells=cells, collect=True
        )
        search.run()
        for members in search.collected:
            blocks = (k0,) + members
            m = paving_from_blocks(n, d, blocks)
            cert = certificate_for(m.n, m.rank, m.hyperplanes)
            k_hyps = [h for h in m.hyperplanes if popcount(h) == k]
            c = _orbit_count_on_masks(cert.generators, k_hyps)
            key = (k, len(k_hyps))
            results[key] = results.get(key, Fraction(0)) + Fraction(1, c)
    return {key: val for key, val in sorted(results.items())}


def _orbit_count_on_masks(generators, masks):
    uf = UnionFind(masks)
    for g in generators:
        for m in masks:
            uf.union(m, relabel_mask(m, g))
    return len({uf.find(m) for m in masks})


def paving_total(n: int, rank: int):
    """Sparse + weighted non-sparse paving classes of the given rank."""
    g = johnson_graph(n, rank)
    sparse = sum(enumerate_isets_orderly(g).values())
    if g.with_complement:
        selfdual = count_self_dual_sparse(n, method="z2")
        sparse = 2 * sparse - selfdual
    nonsparse = sum(count_nonsparse_paving(n, rank).values(), Fraction(0))
    if nonsparse.denominator != 1:
        raise AssertionError("1/c weights did not resolve to an integer")
    return sparse + int(nonsparse)
