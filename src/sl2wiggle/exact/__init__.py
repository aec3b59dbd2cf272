"""Exact arithmetic foundation: rationals, Laurent polynomials, t-polynomials,
2x2 matrices, gcds and resultants."""

from fractions import Fraction

from .laurent import LaurentPoly
from .mat2 import Mat2, conjugate, identity_q, mat2_q, xi_of
from .qpoly import (
    QPoly,
    factor_cubic_or_less,
    gcd_q,
    real_roots,
    resultant_q,
)
from .tpoly import TPoly, resultant, resultant_sylvester

Rat = Fraction

__all__ = [
    "Rat",
    "Fraction",
    "LaurentPoly",
    "TPoly",
    "QPoly",
    "Mat2",
    "conjugate",
    "identity_q",
    "mat2_q",
    "xi_of",
    "gcd_q",
    "resultant",
    "resultant_sylvester",
    "resultant_q",
    "factor_cubic_or_less",
    "real_roots",
]
