"""Sparse bivariate Laurent polynomials over the integers.

The ring is Z[l, l^-1, m, m^-1] with variables rendered as lambda and mu:
every entry of a transfer step is +-1, lambda^+-a or mu^+-b, so the
normal form, the tables and their resultant all live here.  Terms live in
a dict keyed by the exponent pair (e_lambda, e_mu); zero coefficients are
never stored, and a coefficient that is not an int raises TypeError.
A product of two operands with more than a few terms each is computed by
Kronecker substitution, as one big-integer multiplication.  Exact
division by a monomial is a shift and an integer division.  Any other
exact division is one long division over the rows of one variable packed
into integers, with a slot width that holds every quotient coefficient,
checked by one product (see _row_quotient).  The packed kernels here and
in tpoly share the deflation of their operands (_deflation) and the
read-back of a packed box into terms (_slot_terms).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Mapping, Sequence

from ..errors import InexactDivisionError, NotAUnitError
from . import polycore
from .qpoly import zexact_div

Terms = dict[tuple[int, int], int]

_SUP = "⁰¹²³⁴⁵⁶⁷⁸⁹"

# Products whose smaller operand has at most this many terms keep the dict
# double loop: on them packing costs more than the big-integer product saves.
_SCHOOLBOOK_MAX_TERMS = 4


def _pack_slots(offsets: Iterable[int], coeffs: Iterable[int], s: int, nbytes: int) -> int:
    """The integer of nbytes little-endian bytes whose s-byte slot at each
    byte offset holds the matching nonzero integer coefficient, |c| < 256^s:
    positive and negative coefficients go to two bytearrays, subtracted."""
    pos = bytearray(nbytes)
    neg = bytearray(nbytes)
    for k, c in zip(offsets, coeffs):
        if c > 0:
            pos[k : k + s] = c.to_bytes(s, "little")
        else:
            neg[k : k + s] = (-c).to_bytes(s, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack_slots(value: int, s: int, nslots: int) -> list[int]:
    """The inverse of _pack_slots: the coefficients c_0, ..., c_(nslots-1),
    each in [-2^(8s-1), 2^(8s-1)), with value = sum c_i 256^(s i).  Adding
    2^(8s-1) to every slot makes every slot non-negative, so the bytes of
    the sum are the biased coefficients, with no borrow between slots.
    Raises OverflowError when value has no such expansion."""
    half = 1 << (8 * s - 1)
    bias = int.from_bytes(half.to_bytes(s, "little") * nslots, "little")
    buf = (value + bias).to_bytes(s * nslots, "little")
    return [int.from_bytes(buf[k : k + s], "little") - half for k in range(0, len(buf), s)]


def _flat_terms(coeffs: Sequence["LaurentPoly"]) -> dict[tuple[int, int, int], int]:
    """The terms of a polynomial in t over the Laurent ring, given as its
    coefficient list, keyed by the exponent triple (t, lambda, mu)."""
    return {(i, el, em): c for i, p in enumerate(coeffs) for (el, em), c in p._terms.items()}


def _deflation(
    a: Iterable[tuple[int, ...]], b: Iterable[tuple[int, ...]]
) -> list[tuple[int, int, int, int, int]]:
    """The deflation of two supports, given as their exponent tuples: per
    position (la, lb, g, da, db), with la and lb the lowest exponents of a
    and of b there, g the gcd of every exponent's distance from its own
    support's lowest over both (1 when all are 0), and da, db the degrees
    of a and of b once shifted to start at 0 and divided by g."""
    out = []
    for ea, eb in zip(zip(*a), zip(*b)):
        la, lb = min(ea), min(eb)
        g = gcd(*[e - la for e in ea], *[e - lb for e in eb]) or 1
        out.append((la, lb, g, (max(ea) - la) // g, (max(eb) - lb) // g))
    return out


def _slot_terms(values: Sequence[int], nm: int, el0: int, em0: int, gl: int, gm: int) -> Terms:
    """The terms of a packed box read back: values[i nm + j] is the
    coefficient of lambda^(el0 + i gl) mu^(em0 + j gm), and zeros are
    dropped.  A single row, of at most nm values, reads back with i = 0."""
    return {(el0 + i // nm * gl, em0 + i % nm * gm): c for i, c in enumerate(values) if c}


def _packed_product(a: Terms, b: Terms) -> Terms | None:
    """The product a * b by Kronecker substitution: one big-integer product.

    Both operands are deflated (_deflation), so that strided supports do
    not inflate the packing.  The packed box has, per variable, room for
    every exponent of the product; a monomial goes to its mixed-radix slot,
    mu varying fastest.  A product coefficient is a sum of at most
    min(#a, #b) products of coefficients, so it fits a signed slot of s
    bytes, which _unpack_slots reads back.

    Returns None, leaving the product to the double loop, when the packed
    box has more slots than there are pairs of terms.
    """
    (la, lb, gl, dla, dlb), (ma, mb, gm, dma, dmb) = _deflation(a, b)
    nl, nm = dla + dlb + 1, dma + dmb + 1
    if nl * nm > len(a) * len(b):
        # a sparse product, such as one with a factor lambda^1000 - 1: reading
        # its empty slots would cost more than the double loop's term pairs
        return None
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    s = (bound.bit_length() + 8) // 8  # 2^(8s-1) > bound

    def pack(terms: Terms, l0: int, m0: int) -> int:
        offsets = [((el - l0) // gl * nm + (em - m0) // gm) * s for el, em in terms]
        return _pack_slots(offsets, terms.values(), s, nl * nm * s)

    values = _unpack_slots(pack(a, la, ma) * pack(b, lb, mb), s, nl * nm)
    return _slot_terms(values, nm, la + lb, ma + mb, gl, gm)


def _row_quotient(num: Terms, den: Terms) -> Terms | None:
    """num / den by long division over the rows of one variable; None if
    den does not divide num.

    Both operands have integer coefficients and are deflated
    (_deflation); an exact quotient q lies in the same deflated ring, of
    degree a = deg num - deg den in the variable that is wider in num, and
    b likewise in the other.  Each row of the wider variable, a polynomial
    in the narrower one, is held as one integer, its value at 2^K, and
    qpoly.zexact_div divides the rows of num by those of den; each nonzero
    quotient row is decoded into balanced K-bit slots.  Rows of the wider
    variable are many and short, and the empty ones cost nothing.

    If den divides num, every row division is exact (evaluation at 2^K is a
    ring homomorphism) and decodes to the true row: Mahler measure is
    multiplicative, M(den) >= 1 for integer den and M(num) <= ||num||_2, so
    |q_ij| <= C(a, i) C(b, j) M(q) <= C(a, a//2) C(b, b//2) max|c| sqrt(#num)
    < 2^(K-1) (Mignotte, "Some useful bounds", 1982).  So a None proves den
    does not divide num.  A returned quotient is unchecked: rows that
    divide at 2^K need not divide as polynomials.
    """
    axes = _deflation(num, den)
    r = int(axes[1][3] > axes[0][3])  # the row variable: 0 for lambda, 1 for mu
    (fr, gr, sr, nr, dr), (fc, gc, sc, nc, dc) = axes[r], axes[1 - r]
    a, b = nr - dr, nc - dc
    if a < 0 or b < 0:
        return None
    bound = comb(a, a // 2) * comb(b, b // 2) * max(map(abs, num.values()))
    k = bound.bit_length() + (len(num).bit_length() + 1) // 2 + 1

    def rows(terms: Terms, r0: int, c0: int, n: int) -> list[int]:
        out = [0] * (n + 1)
        for e, c in terms.items():
            out[(e[r] - r0) // sr] += c << ((e[1 - r] - c0) // sc * k)
        return out

    div = rows(den, gr, gc, dr)
    if not div[-1]:  # num's leading row, den's times q's, is nonzero at 2^K
        return None
    quot = zexact_div(rows(num, fr, fc, nr), div)
    if quot is None:
        return None
    terms: Terms = {}
    for i, q in enumerate(quot):
        if q:
            row = polycore.unpack(q, k)
            if len(row) > b + 1:
                return None
            terms.update(_slot_terms(row, b + 1, fr - gr + i * sr, fc - gc, sr, sc))
    return {(em, el): c for (el, em), c in terms.items()} if r else terms


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
        return _from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.unit_inverse() ** (-n)
        return polycore.power(self, n, LaurentPoly.one())

    def unit_inverse(self) -> "LaurentPoly":
        """Invert a monomial of coefficient +-1; the only units of the ring."""
        if len(self._terms) == 1:
            ((el, em), c), = self._terms.items()
            if abs(c) == 1:
                return _from_terms({(-el, -em): c})
        raise NotAUnitError("only monomials of coefficient +-1 are invertible")

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
        coefficient by its own.  Any other runs _row_quotient, whose
        quotient is returned only if it multiplies back to self: a decline
        or a failed check proves the division inexact.
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
        terms = _row_quotient(self._terms, divisor._terms)
        if terms is not None:
            quot = _from_terms(terms)
            if quot * divisor == self:
                return quot
        raise InexactDivisionError("Laurent division left a remainder")

    # ------------------------------------------------------------------
    # serialization and display

    def to_json(self) -> list[dict]:
        return [
            {"el": el, "em": em, "c": str(c)}
            for (el, em), c in sorted(self._terms.items())
        ]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "LaurentPoly":
        return cls({(int(d["el"]), int(d["em"])): int(d["c"]) for d in data})

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
