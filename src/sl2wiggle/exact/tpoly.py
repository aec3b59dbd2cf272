"""Polynomials in t whose coefficients are bivariate Laurent polynomials.

This is the ring where the associated polynomials of the wiggle normal
form live: t is a formal stand-in for det(xi_g).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import InexactDivisionError, ZeroParameterError
from . import polycore
from .laurent import LaurentPoly
from .qpoly import QPoly

_LZERO = LaurentPoly.zero()
_LONE = LaurentPoly.one()


def _ldiv(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return a.exact_div(b)


class TPoly:
    """Immutable polynomial in t over the Laurent ring, lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LaurentPoly | int | Fraction] = ()):
        lifted = [
            c if isinstance(c, LaurentPoly) else LaurentPoly.const(c) for c in coeffs
        ]
        self._coeffs = tuple(polycore.trim(lifted))

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls([_LONE])

    @classmethod
    def const(cls, c) -> "TPoly":
        return cls([c])

    @classmethod
    def t(cls) -> "TPoly":
        return cls([_LZERO, _LONE])

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def lc(self) -> LaurentPoly:
        return self._coeffs[-1] if self._coeffs else _LZERO

    def coeff(self, i: int) -> LaurentPoly:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else _LZERO

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self._coeffs == TPoly.const(other)._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "TPoly":
        if isinstance(other, TPoly):
            return other
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return TPoly.const(other)
        return NotImplemented

    def __add__(self, other) -> "TPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(polycore.add(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return _wrap(polycore.neg(self._coeffs))

    def __sub__(self, other) -> "TPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(polycore.sub(self._coeffs, other._coeffs))

    def __rsub__(self, other) -> "TPoly":
        return (-self) + other

    def __mul__(self, other) -> "TPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(polycore.mul(self._coeffs, other._coeffs, _LZERO))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return polycore.power(self, n, TPoly.one())

    def scale(self, c: LaurentPoly) -> "TPoly":
        return _wrap([a * c for a in self._coeffs])

    # ------------------------------------------------------------------
    def sigma(self) -> "TPoly":
        """Apply lambda -> lambda^-1, mu -> mu^-1 coefficientwise; t is fixed."""
        return _wrap([c.sigma() for c in self._coeffs])

    def specialize(self, lam0, mu0) -> QPoly:
        """Evaluate every Laurent coefficient at a rational parameter pair."""
        lam0, mu0 = Fraction(lam0), Fraction(mu0)
        if lam0 == 0 or mu0 == 0:
            raise ZeroParameterError("torus parameters must be nonzero")
        return QPoly([c.evaluate(lam0, mu0) for c in self._coeffs])

    def exact_div(self, other: "TPoly") -> "TPoly":
        """Exact quotient in the Laurent-coefficient polynomial ring.

        When the divisor truly divides, every leading-coefficient division
        the long division performs is exact in the Laurent ring.
        """
        return _wrap(
            polycore.div_exact(
                self._coeffs, other._coeffs, _ldiv, _LZERO, InexactDivisionError
            )
        )

    def shift_down(self, k: int) -> "TPoly":
        """Exact division by t^k."""
        if k == 0:
            return self
        if any(self._coeffs[:k]) or (self._coeffs and len(self._coeffs) < k):
            raise InexactDivisionError("not divisible by the requested power of t")
        return _wrap(list(self._coeffs[k:]))

    # ------------------------------------------------------------------
    def to_json(self) -> list[list[dict]]:
        return [c.to_json() for c in self._coeffs]

    @classmethod
    def from_json(cls, data: Iterable[list]) -> "TPoly":
        return cls([LaurentPoly.from_json(c) for c in data])

    def pretty(self, var: str = "t") -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if not c:
                continue
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            if not mono:
                parts.append(c.pretty() if len(c.terms()) == 1 else f"({c.pretty()})")
            elif c.is_one():
                parts.append(mono)
            elif len(c.terms()) == 1:
                parts.append(f"{c.pretty()}·{mono}")
            else:
                parts.append(f"({c.pretty()})·{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TPoly({self.pretty()})"


def _wrap(coeffs: Sequence[LaurentPoly]) -> TPoly:
    p = TPoly.__new__(TPoly)
    p._coeffs = tuple(polycore.trim(list(coeffs)))
    return p


def resultant(f: TPoly, g: TPoly) -> LaurentPoly:
    """Resultant in t via the fraction-free subresultant remainder sequence.

    Convention: res(f, g) = lc(f)^deg(g) * product of g over the roots of
    f, i.e. the Sylvester determinant with the f rows on top.
    """
    if not f or not g:
        raise ValueError("resultant of a zero polynomial")
    return polycore.resultant_prs(list(f.coeffs), list(g.coeffs), _LONE, _LZERO, _ldiv)

