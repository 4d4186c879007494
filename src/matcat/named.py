"""Paving matroids from blocks, and the paper's named 8-element ones.

A paving matroid of rank r is specified by its hyperplanes of size at least
r (blocks pairwise meeting in at most r-2 points); its hyperplanes are those
blocks plus every (r-1)-set not inside any block.  Sparse paving matroids
are those whose blocks are r-sets, their circuit-hyperplanes.
"""

from __future__ import annotations

import itertools

from .core import Matroid, mask_of


class NotIndependent(ValueError):
    """Two blocks share rank - 1 elements: they are adjacent in the Johnson
    graph, so no sparse paving matroid has both as circuit-hyperplanes."""


def paving_from_blocks(n: int, d: int, blocks) -> Matroid:
    """Paving matroid of rank d+1 whose hyperplanes of size > d are the given
    masks; the d-sets in no block are the other hyperplanes."""
    hyps = list(blocks)
    for small in itertools.combinations(range(n), d):
        sm = mask_of(small)
        if not any(sm & b == sm for b in blocks):
            hyps.append(sm)
    return Matroid.from_hyperplanes(n, hyps)


def sparse_paving(n: int, rank: int, circuit_hyperplanes) -> Matroid:
    """Matroid of the given rank whose circuit-hyperplanes are the blocks,
    given as masks or element iterables; NotIndependent for two blocks that
    share rank - 1 elements."""
    blocks = [b if isinstance(b, int) else mask_of(b) for b in circuit_hyperplanes]
    if any(b.bit_count() != rank for b in blocks):
        raise ValueError("circuit-hyperplane blocks must have size rank")
    for b1, b2 in itertools.combinations(blocks, 2):
        if (b1 & b2).bit_count() >= rank - 1:
            raise NotIndependent(f"{b1:#x} and {b2:#x} meet in {rank - 1} or more")
    return paving_from_blocks(n, rank - 1, blocks)


P8_CIRCUIT_HYPERPLANES = (
    (0, 1, 2, 7),
    (0, 1, 3, 6),
    (0, 2, 3, 5),
    (1, 2, 3, 4),
    (0, 3, 4, 7),
    (1, 2, 5, 6),
    (0, 4, 5, 6),
    (1, 4, 5, 7),
    (2, 4, 6, 7),
    (3, 5, 6, 7),
)


def p8() -> Matroid:
    return sparse_paving(8, 4, P8_CIRCUIT_HYPERPLANES)


def p1() -> Matroid:
    return p8().relax(mask_of((3, 5, 6, 7)))


def ag32() -> Matroid:
    """Binary affine cube: points GF(2)^3, circuit-hyperplanes the 14 planes."""
    planes = []
    for a in range(1, 8):
        for b in (0, 1):
            pts = [p for p in range(8) if (bin(p & a).count("1") & 1) == b]
            planes.append(tuple(pts))
    return sparse_paving(8, 4, planes)


def ag32_prime() -> Matroid:
    m = ag32()
    return m.relax(m.circuit_hyperplanes()[0])


def vamos() -> Matroid:
    """V_8: pairs P1..P4; circuit-hyperplanes all Pi+Pj except P3+P4."""
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    chs = [
        pairs[i] + pairs[j]
        for i, j in ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3))
    ]
    return sparse_paving(8, 4, chs)

