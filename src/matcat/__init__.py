"""matcat: a catalogue engine for small matroids.

Enumerates all matroids on up to nine elements isomorph-freely, computes
structural properties (duality, paving, representability over small fields,
orderability, transversality), and serves the results through a file-backed
catalogue with a query CLI.
"""

from .core import (
    AxiomViolation,
    EmptyGroundSet,
    Matroid,
    NotCircuitHyperplane,
    free,
    from_elements,
    uniform,
)
from .canon import certificate, distinguished_element, is_isomorphic
from .lattice import FlatLattice, ModularCut
from .orderly import brute_force_enumerate, enumerate_matroids, extend_all

__all__ = [
    "AxiomViolation",
    "EmptyGroundSet",
    "FlatLattice",
    "Matroid",
    "ModularCut",
    "NotCircuitHyperplane",
    "brute_force_enumerate",
    "certificate",
    "distinguished_element",
    "enumerate_matroids",
    "extend_all",
    "free",
    "from_elements",
    "is_isomorphic",
    "uniform",
]

__version__ = "0.1.0"
