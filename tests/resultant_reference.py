"""The resultant as a Sylvester determinant, kept as a test oracle.

`resultant_sylvester` builds the Sylvester matrix of two polynomials and
takes its determinant by fraction-free Bareiss elimination, whose
divisions are exact over a domain.  Tests compare the subresultant
remainder sequence behind `sl2wiggle.exact.tpoly.resultant` with it.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.polycore import degree, trim
from sl2wiggle.exact.tpoly import TPoly

C = TypeVar("C")
Div = Callable[[C, C], C]


def sylvester_matrix(f: Sequence[C], g: Sequence[C], zero: C) -> list[list[C]]:
    n, m = degree(f), degree(g)
    rows = []
    fd = list(reversed(f))
    gd = list(reversed(g))
    for i in range(m):
        rows.append([zero] * i + fd + [zero] * (m - 1 - i))
    for i in range(n):
        rows.append([zero] * i + gd + [zero] * (n - 1 - i))
    return rows


def bareiss_det(matrix: list[list[C]], one: C, zero: C, div: Div) -> C:
    """Fraction-free determinant; divisions are exact over a domain."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return one
    sign_flip = False
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign_flip = not sign_flip
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign_flip else det


def resultant_sylvester_coeffs(
    f: Sequence[C], g: Sequence[C], one: C, zero: C, div: Div
) -> C:
    """Resultant as the Bareiss determinant of the Sylvester matrix."""
    f, g = trim(f), trim(g)
    if not f or not g:
        return zero
    if degree(f) == 0 and degree(g) == 0:
        return one
    if degree(f) == 0:
        return f[0] ** degree(g)
    if degree(g) == 0:
        return g[0] ** degree(f)
    return bareiss_det(sylvester_matrix(f, g, zero), one, zero, div)


def resultant_sylvester(f: TPoly, g: TPoly) -> LaurentPoly:
    """The resultant of two nonzero TPolys by Bareiss elimination."""
    if not f or not g:
        raise ValueError("resultant of a zero polynomial")
    return resultant_sylvester_coeffs(
        list(f.coeffs), list(g.coeffs), LaurentPoly.one(), LaurentPoly.zero(),
        LaurentPoly.exact_div,
    )
