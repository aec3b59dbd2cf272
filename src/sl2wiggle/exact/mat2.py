"""Generic 2x2 matrices over a commutative coefficient ring.

Entries may be Fraction, LaurentPoly or TPoly; anything with ring dunders
works.  The xi map sends a determinant-1 matrix g to
g^-1 E11 g - E11, the matrix controlling conjugation of diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Generic, TypeVar

from ..errors import NotUnimodularError
from . import polycore

R = TypeVar("R")


@dataclass(frozen=True)
class Mat2(Generic[R]):
    e11: R
    e12: R
    e21: R
    e22: R

    def rows(self):
        return ((self.e11, self.e12), (self.e21, self.e22))

    def __mul__(self, other: "Mat2[R]") -> "Mat2[R]":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def __add__(self, other: "Mat2[R]") -> "Mat2[R]":
        return Mat2(
            self.e11 + other.e11,
            self.e12 + other.e12,
            self.e21 + other.e21,
            self.e22 + other.e22,
        )

    def __sub__(self, other: "Mat2[R]") -> "Mat2[R]":
        return Mat2(
            self.e11 - other.e11,
            self.e12 - other.e12,
            self.e21 - other.e21,
            self.e22 - other.e22,
        )

    def __neg__(self) -> "Mat2[R]":
        return Mat2(-self.e11, -self.e12, -self.e21, -self.e22)

    def scale(self, c) -> "Mat2[R]":
        return Mat2(self.e11 * c, self.e12 * c, self.e21 * c, self.e22 * c)

    def det(self) -> R:
        return self.e11 * self.e22 - self.e12 * self.e21

    def trace(self) -> R:
        return self.e11 + self.e22

    def inv_det1(self) -> "Mat2[R]":
        """Inverse assuming determinant 1 (the adjugate)."""
        return Mat2(self.e22, -self.e12, -self.e21, self.e11)

    def pow_det1(self, n: int, identity: "Mat2[R]") -> "Mat2[R]":
        """Integer power for determinant-1 matrices; negative n uses the adjugate."""
        if n < 0:
            return self.inv_det1().pow_det1(-n, identity)
        return polycore.power(self, n, identity)


def identity_q() -> Mat2[Fraction]:
    return Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def mat2_q(a, b, c, d) -> Mat2[Fraction]:
    return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def xi_of(g: Mat2) -> Mat2:
    """xi_g = ((bc, bd), (-ac, -bc)) for unimodular g = ((a, b), (c, d)).

    Equals g^-1 E11 g - E11; its determinant is bc.
    """
    det_val = g.e11 * g.e22 - g.e12 * g.e21
    if det_val != det_val ** 0:
        raise NotUnimodularError("xi is defined for determinant-1 matrices")
    a, b, c, d = g.e11, g.e12, g.e21, g.e22
    bc = b * c
    return Mat2(bc, b * d, -(a * c), -bc)
