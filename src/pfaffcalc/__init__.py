"""Exact commutative algebra for the ideal of 4x4 Pfaffians of a generic
alternating matrix X together with the entries of t*X, over QQ or GF(p).
"""

from .fields import QQ, GF, CoefficientField
from .rings import PolyRing, Polynomial, ring_for
from .textio import parse, render, parse_cas, emit_cas

__all__ = [
    "QQ", "GF", "CoefficientField",
    "PolyRing", "Polynomial", "ring_for",
    "parse", "render", "parse_cas", "emit_cas",
]
