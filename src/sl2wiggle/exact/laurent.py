"""Sparse bivariate Laurent polynomials over the integers.

The ring is Z[l, l^-1, m, m^-1] with variables rendered as lambda and mu:
every entry of a transfer step is +-1, lambda^+-a or mu^+-b, so the
normal form, the tables and their resultant all live here.  Terms live in
a dict keyed by the exponent pair (e_lambda, e_mu); zero coefficients are
never stored, and a coefficient that is not an int raises TypeError.
A product of two operands with more than a few terms each is computed by
Kronecker substitution, as one big-integer multiplication.  Exact
division by a monomial is a shift and an integer division.  Any other
exact division is one long division over lambda-rows packed into
integers, with a slot width that holds every quotient coefficient,
checked by one product (see _row_quotient).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd, prod
from typing import Iterable, Mapping, Sequence

from ..errors import InexactDivisionError, NotAUnitError
from . import polycore

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


def _packed_product(a: Terms, b: Terms) -> Terms | None:
    """The product a * b by Kronecker substitution: one big-integer product.

    Each support is shifted to start at exponent 0, and the exponents are
    divided by their gcd over both operands, per variable, so that strided
    supports do not inflate the packing.  The packed box has, per variable,
    room for every exponent of the product; a monomial goes to its
    mixed-radix slot, mu varying fastest.  A product coefficient is a sum
    of at most min(#a, #b) products of coefficients, so it fits a signed
    slot of s bytes, which _unpack_slots reads back.

    Returns None, leaving the product to the double loop, when the packed
    box has more slots than there are pairs of terms.
    """
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    lows_a, lows_b, steps, sizes = [], [], [], []
    for ca, cb in zip(cols_a, cols_b):
        la, lb = min(ca), min(cb)
        g = gcd(*[e - la for e in ca], *[e - lb for e in cb]) or 1
        lows_a.append(la)
        lows_b.append(lb)
        steps.append(g)
        sizes.append((max(ca) - la + max(cb) - lb) // g + 1)
    slots = prod(sizes)
    if slots > len(a) * len(b):
        # a sparse product, such as one with a factor lambda^1000 - 1: reading
        # its empty slots would cost more than the double loop's term pairs
        return None
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    s = (bound.bit_length() + 8) // 8  # 2^(8s-1) > bound
    nbytes = slots * s
    strides = [s * prod(sizes[i + 1 :]) for i in range(len(sizes))]  # in bytes

    def pack(terms: dict, cols: list, lows: list[int]) -> int:
        offsets = [0] * len(terms)
        for col, low, g, stride in zip(cols, lows, steps, strides):
            offsets = [k + (e - low) // g * stride for k, e in zip(offsets, col)]
        return _pack_slots(offsets, terms.values(), s, nbytes)

    values = _unpack_slots(pack(a, cols_a, lows_a) * pack(b, cols_b, lows_b), s, slots)
    exponents = product(
        *[
            range(la + lb, la + lb + size * g, g)
            for la, lb, size, g in zip(lows_a, lows_b, sizes, steps)
        ]
    )
    return {e: c for e, c in zip(exponents, values) if c}


def _row_quotient(num: Terms, den: Terms) -> Terms | None:
    """num / den by long division over lambda-rows; None if den does not
    divide num.

    Both operands have integer coefficients.  Each is shifted to start at
    exponent 0, and the lambda and the mu exponents are divided by their
    gcd over both operands, as in _packed_product; an exact quotient q lies
    in the same deflated ring, of degree a = nrows - drows in lambda and
    b = width - 1 in mu.  Each row, a polynomial in mu, is held as one
    integer, its value at mu = 2^K; a quotient row is one exact big-integer
    division of the top remainder row by the divisor's leading row, decoded
    into balanced K-bit slots.

    If den divides num, every row division is exact (evaluation at 2^K is a
    ring homomorphism) and decodes to the true row: Mahler measure is
    multiplicative, M(den) >= 1 for integer den and M(num) <= ||num||_2, so
    |q_ij| <= C(a, i) C(b, j) M(q) <= C(a, a//2) C(b, b//2) max|c| sqrt(#num)
    < 2^(K-1) (Mignotte, "Some useful bounds", 1982).  So a None proves den
    does not divide num.  A returned quotient is unchecked: a defect in the
    lowest drows - 1 rows of num passes every row division.
    """
    nl, nm = zip(*num)
    dl, dm = zip(*den)
    fl, fm, gl, gm = min(nl), min(nm), min(dl), min(dm)
    s = gcd(*[e - fl for e in nl], *[e - gl for e in dl]) or 1
    g = gcd(*[e - fm for e in nm], *[e - gm for e in dm]) or 1
    nrows, drows = (max(nl) - fl) // s + 1, (max(dl) - gl) // s + 1
    width = ((max(nm) - fm) - (max(dm) - gm)) // g + 1
    if nrows < drows or width < 1:
        return None
    a, b = nrows - drows, width - 1
    bound = comb(a, a // 2) * comb(b, b // 2) * max(map(abs, num.values()))
    k = bound.bit_length() + (len(num).bit_length() + 1) // 2 + 1

    def rows(terms: Terms, l0: int, m0: int, n: int) -> list[int]:
        out = [0] * n
        for (el, em), c in terms.items():
            out[(el - l0) // s] += c << ((em - m0) // g * k)
        return out

    rem = rows(num, fl, fm, nrows)
    div = rows(den, gl, gm, drows)
    lead = div[-1]
    if not lead:  # num's leading row, den's times q's, is nonzero at 2^K
        return None
    div = [(j, d) for j, d in enumerate(div) if d]
    quot: Terms = {}
    for i in range(a, -1, -1):
        q, r = divmod(rem[i + drows - 1], lead)
        if r:
            return None
        if not q:
            continue
        for j, d in div:
            rem[i + j] -= q * d
        coeffs = polycore.unpack(q, k)
        if len(coeffs) > width:
            return None
        el = i * s + fl - gl
        for j, c in enumerate(coeffs):
            if c:
                quot[(el, j * g + fm - gm)] = c
    return quot


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
