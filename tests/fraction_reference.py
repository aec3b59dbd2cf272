"""Rational-arithmetic oracles for the integer polynomial layer.

These are the Fraction versions the certification pipeline used before it
moved to Z[t]: Euclid's algorithm with rational remainders, the squarefree
part as f / gcd(f, f'), and the removal of given linear factors after it.
Tests compare the integer functions of sl2wiggle.exact.qpoly with them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from sl2wiggle.exact import polycore
from sl2wiggle.exact.qpoly import QPoly


def gcd_fraction_euclid(f: QPoly, g: QPoly) -> QPoly:
    """Reference gcd: Euclid's algorithm with rational remainders."""
    a, b = f, g
    while b:
        a, b = b, QPoly(polycore.div_rem(a.coeffs, b.coeffs, operator.truediv, 0)[1])
    return a.monic()


def derivative(f: QPoly) -> QPoly:
    return QPoly([i * c for i, c in enumerate(f.coeffs)][1:])


def squarefree_part(f: QPoly) -> QPoly:
    """Monic product of the distinct irreducible factors."""
    if f.degree < 1:
        return QPoly.one() if f else f
    return f.exact_div(gcd_fraction_euclid(f, derivative(f))).monic()


def squarefree_without(f: QPoly, excluded_roots: Sequence[Fraction]) -> QPoly:
    """Squarefree part of f with the linear factors at the given roots removed."""
    s = squarefree_part(f)
    for r in excluded_roots:
        if s.evaluate(Fraction(r)) == 0:
            s = s.exact_div(QPoly([-Fraction(r), 1]))
    return s


def order_at(f: QPoly, r: Fraction) -> int:
    """The multiplicity of r as a root of f != 0."""
    order, lin = 0, QPoly([-Fraction(r), 1])
    while f.evaluate(Fraction(r)) == 0:
        f, order = f.exact_div(lin), order + 1
    return order
