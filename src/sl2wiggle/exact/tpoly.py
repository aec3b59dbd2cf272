"""Polynomials in t whose coefficients are bivariate Laurent polynomials.

This is the ring Z[lambda^+-1, mu^+-1][t] where the associated
polynomials of the wiggle normal form live: t is a formal stand-in for
det(xi_g).  A product is coefficientwise (polycore.mul), each coefficient
product a LaurentPoly product.  The resultant runs its remainder sequence
on integers, the operands packed at one Kronecker point in (lambda, mu),
and divides them exactly by Burnikel and Ziegler's recursive division
once they pass CPython 3.12's cutoff (_exact_int_div).
There is no division by a polynomial in t: the tables peel t^k (t+1)^k
off a TPoly (certify._peel), once, at the generic tuple of
certify._universal_tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from ..errors import InexactDivisionError, ZeroParameterError
from . import polycore
from .laurent import LaurentPoly, Terms, _from_terms

_LZERO = LaurentPoly.zero()
_LONE = LaurentPoly.one()


class TPoly:
    """Immutable polynomial in t over the Laurent ring, lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LaurentPoly | int] = ()):
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

    def coeff(self, i: int) -> LaurentPoly:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else _LZERO

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, LaurentPoly)):
            return len(self._coeffs) <= 1 and self.coeff(0) == other
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its coefficient, so it hashes as that coefficient
        return hash(self.coeff(0)) if len(self._coeffs) <= 1 else hash(self._coeffs)

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "TPoly":
        if isinstance(other, TPoly):
            return other
        if isinstance(other, (int, LaurentPoly)):
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

    def times_t(self) -> "TPoly":
        """self * t: every coefficient one degree up."""
        return _wrap((_LZERO, *self._coeffs))

    def terms(self) -> dict[tuple[int, int, int], int]:
        """The nonzero terms, keyed by the exponent triple (t, lambda, mu)."""
        return {
            (i, el, em): c
            for i, p in enumerate(self._coeffs)
            for (el, em), c in p._terms.items()
        }

    # ------------------------------------------------------------------
    def sigma(self) -> "TPoly":
        """Apply lambda -> lambda^-1, mu -> mu^-1 coefficientwise; t is fixed."""
        return _wrap([c.sigma() for c in self._coeffs])

    def specialize(self, lam0, mu0) -> tuple[Fraction, ...]:
        """Evaluate every Laurent coefficient at a rational parameter pair:
        the coefficients in t, lowest degree first, trimmed."""
        lam0, mu0 = Fraction(lam0), Fraction(mu0)
        if lam0 == 0 or mu0 == 0:
            raise ZeroParameterError("torus parameters must be nonzero")
        return tuple(polycore.trim([c.evaluate(lam0, mu0) for c in self._coeffs]))

    # ------------------------------------------------------------------
    def to_json(self) -> list[list[dict]]:
        return [c.to_json() for c in self._coeffs]

    def pretty(self, var: str = "t") -> str:
        """Leading term first; a coefficient of several terms is parenthesized,
        a later one-term coefficient with a negative scalar is subtracted and
        a coefficient of 1 or -1 is left out before a power of t."""
        text = ""
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if not c:
                continue
            terms = c.terms()
            minus = bool(text) and len(terms) == 1 and next(iter(terms.values())) < 0
            if minus:
                c = -c
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            body = c.pretty() if len(terms) == 1 else f"({c.pretty()})"
            if mono:
                body = mono if c.is_one() else f"-{mono}" if (-c).is_one() else f"{body}·{mono}"
            text += (" - " if minus else " + ") + body if text else body
        return text or "0"

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

    The sequence runs on integers at one Kronecker point (see
    _packed_resultant).  When that declines, for an operand of degree 0
    (the resultant is then a power) or a sparse packed box, the same
    polycore.resultant_prs runs over the Laurent ring.
    """
    if not f or not g:
        raise ValueError("resultant of a zero polynomial")
    res = _packed_resultant(f, g)
    if res is None:
        res = polycore.resultant_prs(f.coeffs, g.coeffs, _LONE, _LZERO, LaurentPoly.exact_div)
    return res


def _exact_int_div(a: int, b: int) -> int:
    """a / b for integers that b divides; raises InexactDivisionError otherwise.

    CPython 3.11 runs divmod schoolbook, quadratic in the size.  Above
    CPython 3.12's own cutoff (_schoolbook: a divisor of more than 300
    30-bit digits, 9000 bits, and a quotient of more than 150, 4500
    bits) the magnitudes go through Burnikel and Ziegler's recursive
    division ("Fast Recursive Division", 1998), which costs a few
    Karatsuba products.  Below it the recursion only costs: a divisor
    of 1, as at the start of the subresultant sequence, would split the
    dividend into 1-bit digits.
    """
    if _schoolbook(a.bit_length(), b.bit_length()):
        q, r = divmod(a, b)
    else:
        q, r = _recursive_divmod(abs(a), abs(b))
        if (a < 0) != (b < 0):
            q = -q
    if r:
        raise InexactDivisionError("integer division left a remainder")
    return q


def _schoolbook(a_bits: int, b_bits: int) -> bool:
    """Whether divmod stays the faster way to divide an a_bits-bit
    integer by a b_bits-bit one: CPython 3.12's cutoff, at every level
    of the recursion."""
    return b_bits <= 9000 or a_bits - b_bits <= 4500


def _recursive_divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0: long division in base 2^n,
    n = b.bit_length(), top digit first, with each 2n/1n digit step
    done by _div2n1n."""
    n = b.bit_length()
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n(r << n | a >> shift & mask, b, n)
        q = q << n | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b 2^n
    (Burnikel and Ziegler's Algorithm 1): two 3n/2n steps on halves of
    n bits, each dividing by the top half of b recursively."""
    if _schoolbook(a.bit_length(), n):
        return divmod(a, b)
    if n & 1:  # make n even; the remainder shifts back
        q, r = _div2n1n(a << 1, b << 1, n + 1)
        return q, r >> 1
    h = n >> 1
    mask = (1 << h) - 1
    q1, r = _div3n2n(a >> n, a >> h & mask, b, h)
    q2, r = _div3n2n(r, a & mask, b, h)
    return q1 << h | q2, r


def _div3n2n(a12: int, a3: int, b: int, h: int) -> tuple[int, int]:
    """divmod(a12 2^h + a3, b) for b of exactly 2h bits, a3 < 2^h and
    a12 < b 2^h (Burnikel and Ziegler's Algorithm 2): estimate the
    quotient from a12 and the top half b1 of b, then correct it, at most
    twice, by the bottom half b2."""
    b1, b2 = b >> h, b & ((1 << h) - 1)
    if a12 >> h == b1:  # the estimate a12 // b1 would have h + 1 bits
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


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


def _slot_width(a: dict, b: dict, n: int, m: int) -> int:
    """The least K with 2^(K-1) > B, for the bound B of _packed_resultant:
    B^2 = (sum_i |f_i|_1^2)^m (sum_j |g_j|_1^2)^n over the t-coefficients
    of the integer polynomials f of degree n and g of degree m, given by
    their terms keyed (t, lambda, mu)."""
    bound2 = 1
    for terms, deg, power in ((a, n, m), (b, m, n)):
        norms = [0] * (deg + 1)
        for (i, _, _), c in terms.items():
            norms[i] += abs(c)
        bound2 *= sum(x * x for x in norms) ** power
    return (bound2.bit_length() + 1) // 2 + 1  # 2^(2K-2) > B^2


def _packed_resultant(f: TPoly, g: TPoly) -> LaurentPoly | None:
    """res(f, g) as one integer resultant at a Kronecker point; None if f
    or g has degree 0 or the packed box would be sparse.

    Let n = deg f and m = deg g, both at least 1.  Shifting each support
    to exponent 0 and deflating lambda^s -> L, mu^s' -> M, with s and s'
    the gcds of the shifted lambda- and mu-exponents over both operands
    (_deflation), gives F', G' in Z[L, M][t] with

        res(f, g) = lambda^(m a + n c) mu^(m b + n d) R(lambda^s, mu^s'),
        R = res(F', G'),

    for the shifts (a, b) of f and (c, d) of g: res is a polynomial in the
    coefficients, homogeneous of degree m in f's and n in g's, so it
    commutes with the injective ring map L -> lambda^s, M -> mu^s' and
    takes out a monomial factor of f as its m-th power.
    Every term of the Sylvester determinant is a product of m coefficients
    of F' and n of G', so R has L-degree below the box
    N_L = m deg_L F' + n deg_L G' + 1, and likewise M-degree below N_M.

    Slots.  Let B^2 = (sum_i |F'_i|_1^2)^m (sum_j |G'_j|_1^2)^n over the
    t-coefficients F'_i, G'_j, with l1 norms over their (L, M)
    coefficients.  On the torus |L| = |M| = 1 every entry of the Sylvester
    matrix is at most the l1 norm of its coefficient, so Hadamard's
    inequality on its m rows of F' and n rows of G' bounds |R| there by B
    (Goldstein and Graham, "A Hadamard-type bound on the coefficients of a
    determinant of polynomials").  By Parseval the squares of the
    coefficients of R sum to the mean of |R|^2 over the torus, so no
    coefficient exceeds B.  K = _slot_width is the least with 2^(K-1) > B.

    The map L -> 2^(K N_M), M -> 2^K is a ring homomorphism from Z[L, M] to
    Z.  It keeps the leading coefficients of F' and G' nonzero, since they
    lie in the box with coefficients at most B (m, n >= 1), so the degrees
    in t are kept and res commutes with it too: polycore.resultant_prs over
    Python ints, whose divisions are then exact, gives R(2^(K N_M), 2^K),
    and polycore.unpack decodes that, balanced, into R: first into its
    L-rows, slots of K N_M bits (a row sum_j c_j 2^(K j) with
    |c_j| < 2^(K-1) is below 2^(K N_M - 1) in absolute value), then each
    row into K-bit slots, which costs less than one pass of N_L N_M slots
    over the whole integer.

    Division.  Every division of the integer sequence is exact and goes
    through _exact_int_div: divmod up to CPython 3.12's cutoff, recursive
    2n/1n division above it.  The generic tables cross it: at
    (-1, -1, -2, 1) the sequence divides 90.5k by 30.2k bits twice and
    151k by 75.9k once.  CPython 3.11's divmod is quadratic in the
    operands' length, while the recursive division does its work in
    products, which are subquadratic, so above the cutoff it is faster.

    Returns None when the box has more slots N_L N_M than there are pairs
    of terms, as with a coefficient lambda^1000 - 1: the packed integers
    would be mostly empty slots.
    """
    n, m = f.degree, g.degree
    if not n or not m:
        return None
    a, b = f.terms(), g.terms()
    (la, lb, sl, dla, dlb), (ma, mb, sm, dma, dmb) = _deflation(
        [key[1:] for key in a], [key[1:] for key in b]
    )
    nl, nm = m * dla + n * dlb + 1, m * dma + n * dmb + 1
    if nl * nm > len(a) * len(b):
        return None
    k = _slot_width(a, b, n, m)

    def pack(terms: dict, deg: int, l0: int, m0: int) -> list[int]:
        out = [0] * (deg + 1)
        for (i, el, em), c in terms.items():
            out[i] += c << (k * ((el - l0) // sl * nm + (em - m0) // sm))
        return out

    packed = polycore.resultant_prs(
        pack(a, n, la, ma), pack(b, m, lb, mb), 1, 0, _exact_int_div
    )
    el0, em0 = m * la + n * lb, m * ma + n * mb
    terms = {}
    for i, row in enumerate(polycore.unpack(packed, k * nm)):
        terms.update(_slot_terms(polycore.unpack(row, k), nm, el0 + i * sl, em0, sl, sm))
    return _from_terms(terms)
