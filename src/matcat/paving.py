"""Paving-matroid pipelines over Johnson graphs and their auxiliary graphs.

Independent sets in J(n, d+1) are circuit-hyperplane families of sparse
paving matroids of rank d+1; orbits are enumerated isomorph-freely by
canonical augmentation: a grown set survives only when the added vertex
lies in the automorphism orbit of the canonical deletion vertex.  Every
survivor is kept: two survivors of one parent are isomorphic only when their
added vertices share an Aut(parent)-orbit, so a repeat would show in the
counts.  At n = 2(d+1) the group gains the complementation involution and
orbits then pair each matroid with its dual.

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

Label memo.  A family P + v + w is reached once from P + v and once from
P + w, and both times labelled as the same child.  A search keeps the
labellings of the last 1024 children it labelled, keyed by the child's
sorted vertex tuple, and reuses them; labelling is deterministic, so the
search is unchanged.  The memo is not checkpointed.

Outranking rule.  With no fixed cells and vertices of one size, as in
J(n, k), a candidate v is labelled only when it is not outranked in the
child.  Group the child's elements into layers by degree, the number of
members holding them; v is outranked when some member w has v & C a proper
subset of w & C at the first layer C, from the highest degree down, where
the two differ.  This is exact.  The first refinement round of the
canonical labelling orders the elements by ascending degree and cells then
only split in place, so every leaf gives each layer a label range, higher
degree higher; relabelled w then exceeds relabelled v, and v is never the
canonical deletion, the preimage of the largest canonical mask.
Automorphisms preserve degrees, so they map outranked members to outranked
members and v is not in the deletion orbit either.  Under Z2 the deletion
may come from the complemented family, whose layers are the same in
reverse order, and an automorphism that complements maps each side's
layers onto the other's; v is skipped only when it is outranked and its
complement is outranked in the complemented family too.  The skipped
vertices form a union of Aut(parent)-orbits, so the first vertex of each
surviving orbit is unchanged.

Non-sparse counting fixes a largest block {0..k-1}, enumerates independent
sets of the auxiliary conflict graph G(k) under the block stabilizer, and
weights each completed matroid by 1/c where c is the number of automorphism
orbits on its size-k hyperplanes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .canon import (
    canonical_family, certificate, orbit_minima, relabel_mask, _compose, _invert,
)
from .core import bits, format_masks, mask_of, parse_masks, read_checked, write_checked
from .errors import BudgetExceeded, FormatError
from .named import paving_from_blocks, sparse_paving


@dataclass(frozen=True)
class JohnsonGraph:
    n: int
    k: int
    vertices: tuple  # all k-subset masks, ascending

    @property
    def with_complement(self) -> bool:
        return self.n == 2 * self.k


def johnson_graph(n: int, k: int) -> JohnsonGraph:
    if not 1 <= k < n <= 12:
        raise ValueError("need 1 <= k < n <= 12")
    verts = [mask_of(c) for c in itertools.combinations(range(n), k)]
    return JohnsonGraph(n, k, tuple(sorted(verts)))


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
        # complementing commutes with relabelling: the complemented family
        # has the same automorphisms, which seed its search
        cf2 = canonical_family(n, comp, cells=cells, known=cf.generators)
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


def _outranked(v: int, members, layers) -> bool:
    """Whether some member w has v & C a proper subset of w & C at the first
    of the layers C, in the order given, where v and w differ."""
    for w in members:
        for c in layers:
            a = v & c
            b = w & c
            if a != b:
                if a & b == a:
                    return True
                break
    return False


@dataclass
class IsetSearch:
    """Orbit enumeration of independent sets of a graph; a J(n, k) search,
    as johnson_search builds it, is checkpointable."""

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
    # whether the outranking rule of the module docstring applies
    _ranked: bool = field(init=False, repr=False, compare=False)
    # stacked family -> automorphism actions of the labelling that accepted it
    _actions: dict = field(init=False, repr=False, compare=False)
    # child family -> its labelling, the last _MEMO_SIZE labelled, oldest first
    _memo: dict = field(init=False, repr=False, compare=False)

    _MEMO_SIZE = 1024
    # nodes between two saves of a checkpointed run
    _CHECKPOINT_EVERY = 5000

    def __post_init__(self):
        t = self.conflict_threshold
        self._conflict = {
            v: sum(1 << j for j, u in enumerate(self.vertices) if (v & u).bit_count() >= t)
            | 1 << i
            for i, v in enumerate(self.vertices)
        }
        self._ranked = len(set(map(int.bit_count, self.vertices))) == 1 and self.cells is None
        self._actions = {}
        self._memo = {}

    def _children(self, members, actions):
        """Accepted canonical augmentations of one family, each with its
        automorphism actions, sorted by canonical form and none dropped.
        One candidate vertex per orbit of Aut(members) (generated by actions)
        is labelled, and under the outranking rule only a vertex that is not
        outranked in its child, or under Z2 one whose complement is not
        outranked in the complemented child."""
        taken = 0
        for u in members:
            taken |= self._conflict[u]
        free = ((1 << len(self.vertices)) - 1) & ~taken
        if self._ranked:
            deg = [sum(u >> e & 1 for u in members) for e in range(self.n)]
            top = max(deg)
            layer = [0] * (top + 2)     # degree -> mask of its elements
            for e, d in enumerate(deg):
                layer[d] |= 1 << e
            full = (1 << self.n) - 1
            comp = [full ^ u for u in members] if self.z2 else None
        out = []
        seen = set()
        for i in bits(free):
            v = self.vertices[i]
            if v in seen:
                continue
            if actions:
                seen |= _orbit(v, actions)
            if self._ranked:
                # the child's degree layers, highest first: v adds 1 on its elements
                layers = [(layer[d] & ~v) | (layer[d - 1] & v) for d in range(top + 1, 0, -1)]
                layers.append(layer[0] & ~v)
                if _outranked(v, members, layers) and (
                    not self.z2 or _outranked(full ^ v, comp, layers[::-1])
                ):
                    continue
            child = tuple(sorted(members + (v,)))
            fc = self._memo.get(child)
            if fc is None:
                fc = _family_canon(self.n, child, self.z2, self.cells)
                if len(self._memo) >= self._MEMO_SIZE:
                    del self._memo[next(iter(self._memo))]
                self._memo[child] = fc
            if v not in fc.deletion_orbit:
                continue
            out.append((fc.value, child, fc.actions))
        out.sort(key=lambda accepted: accepted[0])
        return [(child, actions) for _, child, actions in out]

    def run(self, budget: int | None = None, checkpoint_path: str | None = None):
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
            if checkpoint_path and self.nodes % self._CHECKPOINT_EVERY == 0:
                save_iset_checkpoint(self, checkpoint_path)
            if budget is not None and self.nodes > budget:
                if checkpoint_path:
                    save_iset_checkpoint(self, checkpoint_path)
                raise BudgetExceeded(f"{self.nodes} nodes exceed budget {budget}")
        return self.counts


# -- checkpoint serialization (a core.write_checked file) --------------------

_CKPT_HEADER = "#matcat-johnson-checkpoint v4"


def save_iset_checkpoint(search: IsetSearch, path: str) -> None:
    """Write the search as J(n, k) plus its progress: one fields line, then
    one `S <masks>` line per stacked family; ValueError for a search that
    johnson_search(johnson_graph(n, k)) does not rebuild."""
    n, k = search.n, search.conflict_threshold + 1
    g = johnson_graph(n, k)
    if (search.vertices, search.z2, search.cells, search.max_size) != (
        g.vertices, g.with_complement, None, None
    ):
        raise ValueError("only a J(n,k) search without cells or max_size is checkpointed")
    counts = ",".join(f"{size}:{c}" for size, c in sorted(search.counts.items())) or "-"
    fields = f"n={n} k={k} nodes={search.nodes} counts={counts}"
    stack = (f"S {format_masks(members)}" for members in search.stack)
    write_checked(path, _CKPT_HEADER, itertools.chain([fields], stack))


def _parse_search(lines) -> IsetSearch:
    """The search a checkpoint's body lines hold; FormatError if one is
    malformed or a stacked family is not an independent set.
    johnson_graph(n, k) checks its range before anything is built."""
    _, fields = next(lines, (1, ""))
    try:
        meta = dict(kv.split("=") for kv in fields.split())
        if sorted(meta) != ["counts", "k", "n", "nodes"]:
            raise ValueError(f"fields {sorted(meta)}, not counts, k, n and nodes")
        counts = meta["counts"].split(",") if meta["counts"] != "-" else []
        search = johnson_search(
            johnson_graph(int(meta["n"]), int(meta["k"])),
            counts=dict(map(int, kv.split(":")) for kv in counts),
            stack=[],
            nodes=int(meta["nodes"]),
        )
        index = {v: i for i, v in enumerate(search.vertices)}
        for _, line in lines:
            tag, masks = line.split()
            if tag != "S":
                raise ValueError(f"expected `S masks`, not {line!r}")
            members, taken = parse_masks(masks), 0
            for v in members:
                if v not in index or taken >> index[v] & 1:
                    raise ValueError("stack holds a family that is not an independent set")
                taken |= search._conflict[v]
            search.stack.append(members)
    except ValueError as exc:
        raise FormatError(f"bad checkpoint payload: {exc}") from None
    return search


def load_iset_checkpoint(path: str) -> IsetSearch:
    """Read a checkpoint written by save_iset_checkpoint; FormatError if its
    checksum fails (core.read_checked) or _parse_search refuses it.  The file
    is plain text: nothing in it is executed."""
    return read_checked(path, _CKPT_HEADER, _parse_search)


def johnson_search(g: JohnsonGraph, **kwargs) -> IsetSearch:
    """The orbit search over independent sets of J(n,k): S_n, plus Z2 if n=2k."""
    return IsetSearch(
        g.n, g.vertices, conflict_threshold=g.k - 1, z2=g.with_complement, **kwargs
    )


def enumerate_isets_orderly(
    g: JohnsonGraph,
    budget: int | None = None,
    checkpoint_path: str | None = None,
):
    """Count independent-set orbits of J(n,k) by size (S_n, plus Z2 if n=2k)."""
    return johnson_search(g).run(budget=budget, checkpoint_path=checkpoint_path)


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
    return _count_self_dual(n, collect_iset_orbits(johnson_graph(n, n // 2)), method)


def _count_self_dual(n: int, reps, method: str) -> int:
    """How many J(n, n/2) orbit representatives are self-dual."""
    k = n // 2
    full = (1 << n) - 1
    count = 0
    for members in reps:
        if method == "certificate":
            m = sparse_paving(n, k, members)
            cert = certificate(m)
            # Aut(M*) = Aut(M), which seeds the dual's search
            if cert.bytes == certificate(m.dual(), cert.generators).bytes:
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
            if (v & k0).bit_count() < d:
                verts.append(v)
    return tuple(sorted(verts))


def count_nonsparse_paving(n: int, rank: int, only_k: int | None = None):
    """Weighted counts of non-sparse paving matroids keyed by
    (largest hyperplane size k, number of size-k hyperplanes).

    only_k restricts to one largest-hyperplane size, from rank + 1 to n - 1;
    the k range near n/2 explodes combinatorially at paper scale (n = 10),
    so callers budget those buckets explicitly.  ValueError, before any
    search, unless rank >= 2, 1 <= n <= 12 and only_k lies in its range.
    """
    d = rank - 1
    if d < 1:
        raise ValueError("rank must be at least 2")
    if not 1 <= n <= 12:
        raise ValueError("need 1 <= n <= 12")
    if only_k is not None and not rank + 1 <= only_k <= n - 1:
        raise ValueError(f"only_k must lie in {rank + 1}..{n - 1}")
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
            cert = certificate(m)
            k_hyps = [h for h in m.hyperplanes if h.bit_count() == k]
            c = _orbit_count_on_masks(cert.generators, k_hyps)
            key = (k, len(k_hyps))
            results[key] = results.get(key, Fraction(0)) + Fraction(1, c)
    return {key: val for key, val in sorted(results.items())}


def _orbit_count_on_masks(generators, masks):
    index = {m: i for i, m in enumerate(masks)}
    perms = [[index[relabel_mask(m, g)] for m in masks] for g in generators]
    return len(set(orbit_minima(len(masks), perms)))


def paving_total(n: int, rank: int):
    """Sparse + weighted non-sparse paving classes of the given rank."""
    g = johnson_graph(n, rank)
    reps = collect_iset_orbits(g)
    sparse = len(reps)
    if g.with_complement:
        sparse = 2 * sparse - _count_self_dual(n, reps, "z2")
    nonsparse = sum(count_nonsparse_paving(n, rank).values(), Fraction(0))
    if nonsparse.denominator != 1:
        raise AssertionError("1/c weights did not resolve to an integer")
    return sparse + int(nonsparse)
