"""Rational-arithmetic oracles for the integer polynomial layer.

`QPoly` is a dense polynomial with Fraction coefficients, the
representation the certification pipeline used before it moved to Z[t];
`div_rem` is its long division over Q.  On top of them sit the Fraction
versions of that pipeline: Euclid's algorithm with rational remainders,
the squarefree part as f / gcd(f, f'), and the removal of given linear
factors after it.  Tests compare the integer functions of
sl2wiggle.exact.qpoly with them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from sl2wiggle.errors import InexactDivisionError
from sl2wiggle.exact import polycore
from sl2wiggle.exact.qpoly import RealRoot, real_roots, zprimitive


class QPoly:
    """Immutable dense rational polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self.coeffs = tuple(polycore.trim([Fraction(c) for c in coeffs]))

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls([1])

    @classmethod
    def t(cls) -> "QPoly":
        return cls([0, 1])

    @classmethod
    def from_ints(cls, coeffs: Sequence[int], den: int = 1) -> "QPoly":
        """The polynomial with coefficients c / den for integers c."""
        return cls([Fraction(c, den) for c in coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    @staticmethod
    def _coerce(other) -> "QPoly":
        return other if isinstance(other, QPoly) else QPoly([other])

    def __add__(self, other) -> "QPoly":
        return QPoly(polycore.add(self.coeffs, self._coerce(other).coeffs))

    def __sub__(self, other) -> "QPoly":
        return QPoly(polycore.sub(self.coeffs, self._coerce(other).coeffs))

    def __mul__(self, other) -> "QPoly":
        return QPoly(polycore.mul(self.coeffs, self._coerce(other).coeffs, Fraction(0)))

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return polycore.power(self, n, QPoly.one())

    def exact_div(self, other: "QPoly") -> "QPoly":
        quot, rem = div_rem(self.coeffs, other.coeffs)
        if rem:
            raise InexactDivisionError("polynomial division left a remainder")
        return QPoly(quot)

    def evaluate(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "QPoly":
        return QPoly([c / self.lc for c in self.coeffs]) if self else self

    def primitive_ints(self) -> list[int]:
        """The primitive integer polynomial with a positive leading
        coefficient that is a rational multiple of self (zero for zero)."""
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = zprimitive([c.numerator * (den // c.denominator) for c in self.coeffs])
        return ints if not ints or ints[-1] > 0 else [-c for c in ints]

    def rational_roots(self) -> list[Fraction]:
        """All rational roots, in increasing order, from the exact real
        roots of sl2wiggle."""
        if self.degree < 1:
            return []
        roots = map(RealRoot.rational, real_roots(self.primitive_ints()))
        return [x for x in roots if x is not None]

    def __repr__(self) -> str:
        return f"QPoly({polycore.pretty(self.coeffs)})"


def div_rem(f: Sequence, g: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over Q: (quot, rem) with f = quot * g + rem and
    deg rem < deg g, for coefficient lists lowest degree first."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in f]
    dg = len(g) - 1
    quot = [Fraction(0)] * max(len(f) - dg, 0)
    for shift in range(len(f) - len(g), -1, -1):
        q = rem[shift + dg] / g[-1]
        quot[shift] = q
        for j, b in enumerate(g):
            rem[shift + j] -= q * b
    return polycore.trim(quot), polycore.trim(rem)


def gcd_fraction_euclid(f: QPoly, g: QPoly) -> QPoly:
    """Reference gcd: Euclid's algorithm with rational remainders."""
    a, b = f, g
    while b:
        a, b = b, QPoly(div_rem(a.coeffs, b.coeffs)[1])
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
