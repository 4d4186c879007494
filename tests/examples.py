"""Named example matroids that only the test batteries use.

The paper's named matroids (P8, P1, AG(3,2), AG(3,2)', V8) stay in
matcat.named; these are built from them or from hyperplanes directly.
"""

from matcat.core import Matroid, mask_of
from matcat.named import ag32_prime, p1, sparse_paving
from matcat.props import ingleton_violating


def figure_rank3_7pt() -> Matroid:
    """The 7-element rank-3 matroid whose lattice has ten lines."""
    lines = ["02", "34", "05", "15", "45", "16", "013", "124", "046", "2356"]
    masks = [mask_of(int(ch) for ch in s) for s in lines]
    return Matroid.from_hyperplanes(7, masks)


def p2_prime() -> Matroid:
    return p1().relax(mask_of((0, 3, 4, 7)))


def p2_doubleprime() -> Matroid:
    return p1().relax(mask_of((1, 2, 5, 6)))


def p3() -> Matroid:
    return p1().relax(mask_of((0, 3, 4, 7))).relax(mask_of((1, 2, 5, 6)))


def f8() -> Matroid:
    """Ingleton-violating relaxation class of AG(3,2)' (12 of 13 relaxations)."""
    m = ag32_prime()
    for ch in m.circuit_hyperplanes():
        cand = m.relax(ch)
        if ingleton_violating(cand) is not None:
            return cand
    raise AssertionError("no violating relaxation of AG(3,2)' found")


def l8() -> Matroid:
    """Cube matroid: circuit-hyperplanes the 6 faces and 2 colour classes."""
    faces = []
    for bit in range(3):
        for val in (0, 1):
            faces.append(tuple(p for p in range(8) if (p >> bit) & 1 == val))
    colours = [
        tuple(p for p in range(8) if bin(p).count("1") % 2 == par) for par in (0, 1)
    ]
    return sparse_paving(8, 4, faces + colours)
