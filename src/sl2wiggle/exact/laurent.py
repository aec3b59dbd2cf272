"""Sparse bivariate Laurent polynomials over the integers.

The ring is Z[l, l^-1, m, m^-1] with variables rendered as lambda and mu:
every entry of a transfer step is +-1, lambda^+-a or mu^+-b, so the
normal form, the tables and their resultant all live here.  Terms live in
a dict keyed by the exponent pair (e_lambda, e_mu); zero coefficients are
never stored, and a coefficient that is not an int raises TypeError.
A product multiplies every pair of terms.  Exact division by a monomial
is a shift and an integer division; any other exact division is a
sparse long division, one integer division per quotient term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..errors import InexactDivisionError
from . import polycore

Terms = dict[tuple[int, int], int]

_SUP = "⁰¹²³⁴⁵⁶⁷⁸⁹"


def _from_terms(terms: Terms) -> "LaurentPoly":
    """Wrap a dict of nonzero int coefficients without copying it."""
    res = LaurentPoly.__new__(LaurentPoly)
    res._terms = terms
    return res


class LaurentPoly:
    """Immutable sparse Laurent polynomial in two variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        canon: Terms = {}
        if terms:
            for (el, em), c in terms.items():
                if type(c) is not int:
                    raise TypeError(f"Laurent coefficients are ints, not {type(c).__name__}")
                if c:
                    canon[(int(el), int(em))] = c
        self._terms = canon

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(0, 0): c})

    @classmethod
    def mono(cls, c: int, el: int, em: int) -> "LaurentPoly":
        return cls({(el, em): c})

    @classmethod
    def lam(cls, e: int = 1) -> "LaurentPoly":
        return cls({(e, 0): 1})

    @classmethod
    def mu(cls, e: int = 1) -> "LaurentPoly":
        return cls({(0, e): 1})

    # ------------------------------------------------------------------
    # predicates and views

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_one(self) -> bool:
        return self._terms == {(0, 0): 1}

    def terms(self) -> Terms:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as that int
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # ring arithmetic

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _from_terms({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Terms = {}
        for (el1, em1), c1 in self._terms.items():
            for (el2, em2), c2 in other._terms.items():
                e = (el1 + el2, em1 + em2)
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return polycore.power(self, n, LaurentPoly.one())

    def sigma(self) -> "LaurentPoly":
        """Substitute lambda -> lambda^-1 and mu -> mu^-1."""
        return _from_terms({(-el, -em): c for (el, em), c in self._terms.items()})

    # ------------------------------------------------------------------
    # evaluation and exact division

    def evaluate(self, lam0: Fraction, mu0: Fraction) -> Fraction:
        """The exact value at (lam0, mu0) = (p/q, r/s): with every exponent
        shifted to start at 0, one integer sum over one denominator."""
        lam0, mu0 = Fraction(lam0), Fraction(mu0)
        if not self._terms:
            return Fraction(0)
        (p, q), (r, s) = lam0.as_integer_ratio(), mu0.as_integer_ratio()
        ls, ms = {el for el, _ in self._terms}, {em for _, em in self._terms}
        l0, l1, m0, m1 = min(ls), max(ls), min(ms), max(ms)
        lp = {e: p ** (e - l0) * q ** (l1 - e) for e in ls}
        mp = {e: r ** (e - m0) * s ** (m1 - e) for e in ms}
        num = sum(c * lp[el] * mp[em] for (el, em), c in self._terms.items())
        # times lam0^l0 mu0^m0, over q^(l1 - l0) s^(m1 - m0)
        num *= (p ** l0 if l0 > 0 else q ** -l0) * (r ** m0 if m0 > 0 else s ** -m0)
        den = q ** (l1 - l0) * s ** (m1 - m0)
        den *= (q ** l0 if l0 > 0 else p ** -l0) * (s ** m0 if m0 > 0 else r ** -m0)
        return Fraction(num, den)

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises InexactDivisionError otherwise.

        A monomial divisor shifts the exponents and divides every
        coefficient by its own.  Any other divisor runs a sparse long
        division: cancel the leading term in lex order, one integer
        division per quotient term.  Least exponents add under
        multiplication in a domain, so every term of an exact quotient
        has exponents at least (ql0, qm0), those of self less the
        divisor's.  Every term left of self then stays at or above self's
        least exponents, and the leading one strictly decreases in lex
        order, a well-order there, so the loop ends.  An exact quotient
        over the integers is the quotient over the rationals, so a
        remainder in a step, or a quotient term below (ql0, qm0), proves
        the division inexact.
        """
        if not divisor:
            raise ZeroDivisionError("Laurent division by zero")
        if not self:
            return LaurentPoly.zero()
        if len(divisor._terms) == 1:
            ((gl, gm), d), = divisor._terms.items()
            if any(c % d for c in self._terms.values()):
                raise InexactDivisionError("Laurent division left a remainder")
            return _from_terms(
                {(el - gl, em - gm): c // d for (el, em), c in self._terms.items()}
            )
        den = divisor._terms
        dl, dm = dlead = max(den)
        ql0 = min(el for el, _ in self._terms) - min(el for el, _ in den)
        qm0 = min(em for _, em in self._terms) - min(em for _, em in den)
        num = dict(self._terms)
        quot: Terms = {}
        while num:
            lead = max(num)
            ql, qm = lead[0] - dl, lead[1] - dm
            c, r = divmod(num[lead], den[dlead])
            if r or ql < ql0 or qm < qm0:
                raise InexactDivisionError("Laurent division left a remainder")
            quot[(ql, qm)] = c
            for (gl, gm), d in den.items():
                e = (gl + ql, gm + qm)
                s = num.get(e, 0) - c * d
                if s:
                    num[e] = s
                else:
                    del num[e]  # s = 0 only where num had a term: c d is nonzero
        return _from_terms(quot)

    # ------------------------------------------------------------------
    # serialization and display

    def to_json(self) -> list[dict]:
        return [
            {"el": el, "em": em, "c": str(c)}
            for (el, em), c in sorted(self._terms.items())
        ]

    def pretty(self) -> str:
        return polycore.signed_sum(
            (c, "".join(_render_var(v, e) for v, e in (("λ", el), ("μ", em)) if e))
            for (el, em), c in sorted(self._terms.items(), reverse=True)
        )

    def __repr__(self) -> str:
        return f"LaurentPoly({self.pretty()})"


def _render_var(name: str, e: int) -> str:
    if e == 1:
        return name
    sup = ("⁻" if e < 0 else "") + "".join(_SUP[int(d)] for d in str(abs(e)))
    return f"{name}{sup}"
