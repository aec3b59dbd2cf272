"""Exact arithmetic foundation: Laurent polynomials, t-polynomials, 2x2
matrices, gcds, real roots and resultants."""

from .laurent import LaurentPoly
from .mat2 import Mat2, xi_of
from .qpoly import QPoly, gcd_q, real_roots
from .tpoly import TPoly, resultant

__all__ = [
    "LaurentPoly",
    "TPoly",
    "QPoly",
    "Mat2",
    "xi_of",
    "gcd_q",
    "resultant",
    "real_roots",
]
