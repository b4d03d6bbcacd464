"""Edge Schur functions, factorial Schur polynomials, the five-vertex
lattice models computing them, type-A crystals on edge labeled tableaux,
and the uncrowding bijection -- all in exact integer arithmetic.
"""

from .poly import MultiPoly, canonical_string, parse
from .shapes import Partition, SkewShape
from .schur import (EdgeSchurParams, dual_schur, edge_schur, edge_schur_brute,
                    factorial_schur, schur, schur_expand, variation)
from .tableaux import EdgeLabeledTableau

__all__ = [
    "MultiPoly", "canonical_string", "parse",
    "Partition", "SkewShape",
    "EdgeSchurParams", "schur", "factorial_schur", "edge_schur",
    "edge_schur_brute", "variation", "dual_schur", "schur_expand",
    "EdgeLabeledTableau",
]
