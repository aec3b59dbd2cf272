"""Sparse bivariate Laurent polynomials over exact rationals.

The ring is Q[l, l^-1, m, m^-1] with variables rendered as lambda and mu.
Terms live in a dict keyed by the exponent pair (e_lambda, e_mu); zero
coefficients are never stored.  Coefficients are Fraction or plain int
(ints keep the hot multiplication loops on fast integer arithmetic).
A product of two operands with more than a few terms each is computed by
Kronecker substitution, as one big-integer multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from ..errors import InexactDivisionError, NotAUnitError
from . import polycore

Scalar = Union[int, Fraction]
Terms = dict[tuple[int, int], Scalar]

_SUP = "⁰¹²³⁴⁵⁶⁷⁸⁹"


def _normalize_scalar(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _scalar_div(a: Scalar, b: Scalar) -> Scalar:
    return _normalize_scalar(Fraction(a) / Fraction(b))


# Products whose smaller operand has at most this many terms keep the dict
# double loop: on them packing costs more than the big-integer product saves.
_SCHOOLBOOK_MAX_TERMS = 4


def _integer_terms(terms: Terms) -> tuple[int, Terms]:
    """(d, d * terms) with d the lcm of the coefficient denominators."""
    if all(type(c) is int for c in terms.values()):
        return 1, terms
    d = lcm(*[c.denominator for c in terms.values()])
    return d, {e: c.numerator * (d // c.denominator) for e, c in terms.items()}


def _packed_product(a: Terms, b: Terms) -> Terms | None:
    """The product a * b by Kronecker substitution: one big-integer product.

    Denominators are cleared, each support is shifted to start at exponent
    0, and the exponents are divided by their gcd over both operands, per
    variable, so that strided supports do not inflate the packing.  The
    monomial lambda^i mu^j (deflated) goes to slot i * width + j, where a
    row is wide enough for every mu-degree of the product.  A product
    coefficient is a sum of at most min(#a, #b) products of coefficients,
    so it fits a signed slot of s bytes; adding 2^(8s-1) to every slot of
    the product makes every slot non-negative, so the bytes of the sum are
    the biased coefficients, with no borrow between slots.

    Returns None, leaving the product to the double loop, when the packed
    box has more slots than there are pairs of terms.
    """
    ela, ema = zip(*a)
    elb, emb = zip(*b)
    la, ma, lb, mb = min(ela), min(ema), min(elb), min(emb)
    gl = gcd(*[e - la for e in ela], *[e - lb for e in elb]) or 1
    gm = gcd(*[e - ma for e in ema], *[e - mb for e in emb]) or 1
    rows = (max(ela) - la + max(elb) - lb) // gl + 1
    width = (max(ema) - ma + max(emb) - mb) // gm + 1
    if rows * width > len(a) * len(b):
        # a sparse product, such as one with a factor lambda^1000 - 1: reading
        # its empty slots would cost more than the double loop's term pairs
        return None
    da, a = _integer_terms(a)
    db, b = _integer_terms(b)
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    s = (bound.bit_length() + 8) // 8  # 2^(8s-1) > bound
    nbytes = rows * width * s

    def pack(terms: Terms, l0: int, m0: int) -> int:
        pos = bytearray(nbytes)
        neg = bytearray(nbytes)
        for (el, em), c in terms.items():
            k = ((el - l0) // gl * width + (em - m0) // gm) * s
            if c > 0:
                pos[k : k + s] = c.to_bytes(s, "little")
            else:
                neg[k : k + s] = (-c).to_bytes(s, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    bias = 1 << (8 * s - 1)
    biased = pack(a, la, ma) * pack(b, lb, mb) + int.from_bytes(
        bias.to_bytes(s, "little") * (rows * width), "little"
    )
    buf = biased.to_bytes(nbytes, "little")
    values = [int.from_bytes(buf[k : k + s], "little") - bias for k in range(0, nbytes, s)]
    exponents = product(
        range(la + lb, la + lb + rows * gl, gl), range(ma + mb, ma + mb + width * gm, gm)
    )
    out = {e: c for e, c in zip(exponents, values) if c}
    d = da * db
    if d != 1:
        out = {e: _normalize_scalar(Fraction(c, d)) for e, c in out.items()}
    return out


class LaurentPoly:
    """Immutable sparse Laurent polynomial in two variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        canon: dict[tuple[int, int], Scalar] = {}
        if terms:
            for (el, em), c in terms.items():
                c = _normalize_scalar(c)
                if c != 0:
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
    def const(cls, c: Scalar) -> "LaurentPoly":
        return cls({(0, 0): c})

    @classmethod
    def mono(cls, c: Scalar, el: int, em: int) -> "LaurentPoly":
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

    def terms(self) -> dict[tuple[int, int], Fraction]:
        return {e: Fraction(c) for e, c in self._terms.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset((e, Fraction(c)) for e, c in self._terms.items()))

    # ------------------------------------------------------------------
    # ring arithmetic

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
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
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = {e: -c for e, c in self._terms.items()}
        return res

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
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: Terms | None = (
            _packed_product(a, b) if len(a) > _SCHOOLBOOK_MAX_TERMS else None
        )
        if out is None:
            out = {}
            for (el1, em1), c1 in a.items():
                for (el2, em2), c2 in b.items():
                    e = (el1 + el2, em1 + em2)
                    s = out.get(e, 0) + c1 * c2
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.unit_inverse() ** (-n)
        return polycore.power(self, n, LaurentPoly.one())

    def unit_inverse(self) -> "LaurentPoly":
        """Invert a monomial; the only units of the Laurent ring."""
        if len(self._terms) != 1:
            raise NotAUnitError("only nonzero monomials are invertible")
        ((el, em), c), = self._terms.items()
        return LaurentPoly({(-el, -em): _scalar_div(1, c)})

    def sigma(self) -> "LaurentPoly":
        """Substitute lambda -> lambda^-1 and mu -> mu^-1."""
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = {(-el, -em): c for (el, em), c in self._terms.items()}
        return res

    # ------------------------------------------------------------------
    # evaluation and exact division

    def evaluate(self, lam0: Fraction, mu0: Fraction) -> Fraction:
        """The exact value at (lam0, mu0) = (p/q, r/s): with every exponent
        shifted to start at 0, one integer sum over one denominator."""
        lam0, mu0 = Fraction(lam0), Fraction(mu0)
        if not self._terms:
            return Fraction(0)
        den, terms = _integer_terms(self._terms)
        (p, q), (r, s) = lam0.as_integer_ratio(), mu0.as_integer_ratio()
        ls, ms = {el for el, _ in terms}, {em for _, em in terms}
        l0, l1, m0, m1 = min(ls), max(ls), min(ms), max(ms)
        lp = {e: p ** (e - l0) * q ** (l1 - e) for e in ls}
        mp = {e: r ** (e - m0) * s ** (m1 - e) for e in ms}
        num = sum(c * lp[el] * mp[em] for (el, em), c in terms.items())
        # times lam0^l0 mu0^m0, over q^(l1 - l0) s^(m1 - m0)
        num *= (p ** l0 if l0 > 0 else q ** -l0) * (r ** m0 if m0 > 0 else s ** -m0)
        den *= q ** (l1 - l0) * s ** (m1 - m0)
        den *= (q ** l0 if l0 > 0 else p ** -l0) * (s ** m0 if m0 > 0 else r ** -m0)
        return Fraction(num, den)

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises InexactDivisionError otherwise.

        Shift both operands to plain-polynomial exponents, then cancel
        leading terms under lex order.  Minimal exponents are additive under
        multiplication in a domain, so the shifted quotient stays polynomial
        and the loop terminates (lex on N^2 is a well-order).
        """
        if not divisor:
            raise ZeroDivisionError("Laurent division by zero")
        if not self:
            return LaurentPoly.zero()
        fl = min(el for el, _ in self._terms)
        fm = min(em for _, em in self._terms)
        gl = min(el for el, _ in divisor._terms)
        gm = min(em for _, em in divisor._terms)
        num = {(el - fl, em - fm): c for (el, em), c in self._terms.items()}
        den = {(el - gl, em - gm): c for (el, em), c in divisor._terms.items()}
        dlead = max(den)
        dcoef = den[dlead]
        quot: dict[tuple[int, int], Scalar] = {}
        while num:
            lead = max(num)
            de = (lead[0] - dlead[0], lead[1] - dlead[1])
            if de[0] < 0 or de[1] < 0:
                raise InexactDivisionError("Laurent division left a remainder")
            c = _scalar_div(num[lead], dcoef)
            quot[de] = c
            for (el, em), dc in den.items():
                e = (el + de[0], em + de[1])
                s = num.get(e, 0) - c * dc
                if s == 0:
                    num.pop(e, None)
                else:
                    num[e] = s
        shift = (fl - gl, fm - gm)
        return LaurentPoly(
            {(el + shift[0], em + shift[1]): c for (el, em), c in quot.items()}
        )

    # ------------------------------------------------------------------
    # serialization and display

    def to_json(self) -> list[dict]:
        return [
            {"el": el, "em": em, "c": str(Fraction(c))}
            for (el, em), c in sorted(self._terms.items())
        ]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "LaurentPoly":
        return cls({(int(d["el"]), int(d["em"])): Fraction(d["c"]) for d in data})

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for (el, em), c in sorted(self._terms.items(), reverse=True):
            c = Fraction(c)
            mono = "".join(_render_var(v, e) for v, e in (("λ", el), ("μ", em)) if e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self.pretty()})"


def _render_var(name: str, e: int) -> str:
    if e == 1:
        return name
    sup = ("⁻" if e < 0 else "") + "".join(_SUP[int(d)] for d in str(abs(e)))
    return f"{name}{sup}"
