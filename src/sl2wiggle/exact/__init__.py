"""Exact arithmetic foundation: Laurent polynomials, t-polynomials, 2x2
matrices, gcds, real and rational roots and resultants."""

from .laurent import LaurentPoly
from .mat2 import Mat2, xi_of
from .qpoly import rational_roots, real_roots
from .tpoly import TPoly, resultant

__all__ = [
    "LaurentPoly",
    "TPoly",
    "Mat2",
    "xi_of",
    "resultant",
    "real_roots",
    "rational_roots",
]
