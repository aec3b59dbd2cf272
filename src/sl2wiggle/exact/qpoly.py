"""Univariate polynomials in t over the rationals and over the integers.

These are the specializations of the Laurent-coefficient polynomials at a
concrete torus parameter pair.  `QPoly` holds rational coefficients for the
library API; the certification pipeline works on integer polynomials
(plain lists of ints), where a primitive divisor always has an integral
quotient by Gauss's lemma, so gcds and divisibility need no fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable, Optional, Sequence

from ..errors import InexactDivisionError
from . import polycore

_ZERO = Fraction(0)


def _div(a: Fraction, b: Fraction) -> Fraction:
    return a / b


class QPoly:
    """Immutable dense rational polynomial, coefficients lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self._coeffs = tuple(polycore.trim([Fraction(c) for c in coeffs]))

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls([1])

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls([Fraction(c)])

    @classmethod
    def t(cls) -> "QPoly":
        return cls([0, 1])

    @classmethod
    def from_ints(cls, coeffs: Sequence[int], den: int = 1) -> "QPoly":
        """The polynomial with coefficients c / den for integers c."""
        return _wrap([Fraction(c, den) for c in coeffs])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def lc(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else _ZERO

    def coeff(self, i: int) -> Fraction:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else _ZERO

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == QPoly.const(other)._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "QPoly":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        return NotImplemented

    def __add__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(polycore.add(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _wrap(polycore.neg(self._coeffs))

    def __sub__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(polycore.sub(self._coeffs, other._coeffs))

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(polycore.mul(self._coeffs, other._coeffs, _ZERO))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return polycore.power(self, n, QPoly.one())

    def exact_div(self, other: "QPoly") -> "QPoly":
        return _wrap(
            polycore.div_exact(
                self._coeffs, other._coeffs, _div, _ZERO, InexactDivisionError
            )
        )

    def evaluate(self, x: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "QPoly":
        if not self:
            return self
        inv = 1 / self.lc
        return _wrap([c * inv for c in self._coeffs])

    # ------------------------------------------------------------------
    def primitive_ints(self) -> list[int]:
        """The primitive integer polynomial with a positive leading
        coefficient that is a rational multiple of self (zero for zero)."""
        den = lcm(*(c.denominator for c in self._coeffs))
        ints = zprimitive([c.numerator * (den // c.denominator) for c in self._coeffs])
        return ints if not ints or ints[-1] > 0 else [-c for c in ints]

    def rational_roots(self) -> list[Fraction]:
        """All rational roots, in increasing order, found exactly."""
        if self.degree < 1:
            return []
        return [x for x in map(RealRoot.rational, real_roots(self)) if x is not None]

    def to_json(self) -> list[str]:
        return [str(c) for c in self._coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "QPoly":
        return cls([Fraction(s) for s in data])

    def pretty(self, var: str = "t") -> str:
        monos = ("", var, *(f"{var}^{i}" for i in range(2, len(self._coeffs))))
        return polycore.signed_sum(reversed(list(zip(self._coeffs, monos))), "·")

    def __repr__(self) -> str:
        return f"QPoly({self.pretty()})"


def _wrap(coeffs: Sequence[Fraction]) -> QPoly:
    p = QPoly.__new__(QPoly)
    p._coeffs = tuple(polycore.trim(list(coeffs)))
    return p


def gcd_q(f: QPoly, g: QPoly) -> QPoly:
    """Monic greatest common divisor over the rationals, from `zgcd`."""
    d = zgcd(f.primitive_ints(), g.primitive_ints())
    return QPoly.from_ints(d, d[-1])


# ----------------------------------------------------------------------
# integer polynomials: lists of ints, lowest degree first, trimmed


def zprimitive(f: Sequence[int]) -> list[int]:
    """f divided by the gcd of its coefficients; zero stays zero."""
    g = int_gcd(*f)
    return [c // g for c in f] if g > 1 else list(f)


def zderivative(f: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def zexact_div(f: Sequence[int], g: Sequence[int]) -> Optional[list[int]]:
    """f / g in Z[t], or None when g does not divide f there.  For a
    primitive g that is the same as dividing in Q[t] (Gauss's lemma)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg, lc = len(g) - 1, g[-1]
    rem, quot = list(f), [0] * max(len(f) - dg, 0)
    for shift in range(len(f) - 1 - dg, -1, -1):
        q, r = divmod(rem[shift + dg], lc)
        if r:
            return None
        if q:
            quot[shift] = q
            for j in range(dg):
                rem[shift + j] -= q * g[j]
    return None if any(rem[:dg]) else quot


def zdiv_t1(f: Sequence[int]) -> tuple[list[int], int]:
    """(q, f(-1)) with f = (t + 1) q + f(-1), by synthetic division."""
    q = [0] * max(len(f) - 1, 0)
    acc = 0
    for i in range(len(f) - 1, 0, -1):
        acc = f[i] - acc
        q[i - 1] = acc
    return q, f[0] - acc if f else 0


def zprem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive part of a positive multiple of a mod b, for b != 0.

    Each step scales a by |lc(b)|/g and subtracts (±lc(a)/g) t^k b for
    g = gcd(lc(a), lc(b)), so only integers occur.  The scale is positive,
    so the remainder keeps the sign a Sturm sequence needs.
    """
    lb, db = b[-1], len(b) - 1
    sign = 1 if lb > 0 else -1
    rem = list(a)
    while len(rem) > db:
        la = rem.pop()
        g = int_gcd(la, lb)
        sa, sb = abs(lb) // g, sign * la // g
        shift = len(rem) - db
        if sa != 1:
            rem = [sa * c for c in rem]
        for j in range(db):
            rem[shift + j] -= sb * b[j]
        while rem and not rem[-1]:
            rem.pop()
    return zprimitive(rem)


def zgcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The primitive gcd in Z[t], with a positive leading coefficient.

    Runs a primitive remainder sequence (Brown 1971): every remainder is
    reduced to its primitive part, so coefficients stay as small as the
    gcd allows instead of growing as in rational Euclid.
    """
    if not f and not g:
        raise ValueError("gcd of two zero polynomials")
    a, b = zprimitive(f), zprimitive(g)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, zprem(a, b)
    if b:
        return [1]
    return a if a[-1] > 0 else [-c for c in a]


# ----------------------------------------------------------------------
# exact real roots

# Bisection narrows a root's interval to this width, as a power of two,
# before Newton steps take over.
_NEWTON_BITS = 24


@dataclass(frozen=True)
class RealRoot:
    """One real root r of the squarefree integer polynomial `poly`, held
    exactly as lo / 2^k < r <= hi / 2^k, or as r = lo / 2^k when lo == hi."""

    poly: tuple[int, ...]
    lo: int
    hi: int
    k: int

    @property
    def bounds(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.lo, 1 << self.k), Fraction(self.hi, 1 << self.k)

    def refined(self, bits: int) -> "RealRoot":
        """The same root in an interval of width at most 2^-bits.

        Bisects down to a width of 2^-24, then takes Newton steps in exact
        integer arithmetic on a grid four or more times finer than 2^-bits.
        A Newton step that leaves the interval, or a settled point that
        fails the sign checks either side of it, hands the rest back to
        bisection.
        """
        p, lo, hi, k = self.poly, self.lo, self.hi, self.k
        if lo == hi or (hi - lo) << bits <= 1 << k:
            return self
        v = _value_at(p, hi, k)
        if not v:
            return RealRoot(p, hi, hi, k)
        pos = v > 0
        lo, hi, k = _bisect(p, pos, lo, hi, k, min(bits, _NEWTON_BITS))
        if lo != hi and bits > _NEWTON_BITS:
            lo, hi, k = _newton(p, pos, lo, hi, k, bits) or _bisect(
                p, pos, lo, hi, k, bits
            )
        return RealRoot(p, lo, hi, k)

    def rational(self) -> Optional[Fraction]:
        """The root as a Fraction when it is rational, else None.

        A rational root u/v of the primitive integer polynomial `poly` has
        v | lc(poly), so it is a multiple of 1/lc.  Once the interval is
        narrower than 1/(2 |lc|), the nearest such multiple is the only
        candidate; it must lie in the interval and be an exact root, that
        is, v t - u must divide `poly` in Z[t].
        """
        lc = abs(self.poly[-1])
        lo, hi = self.refined((2 * lc).bit_length()).bounds
        x = Fraction(round(hi * lc), lc)
        if lo == hi or (
            lo < x <= hi and zexact_div(self.poly, [-x.numerator, x.denominator]) is not None
        ):
            return x
        return None


def real_roots(f: QPoly) -> list[RealRoot]:
    """The distinct real roots of a nonconstant f, in increasing order.

    Works on the squarefree primitive integer polynomial p with the roots
    of f.  Its Sturm sequence, built from integer pseudo-remainders, counts
    the roots in a half-open interval (a, b] as V(a) - V(b), where V is the
    number of sign changes along the sequence.  Bisecting (-2^e, 2^e], with
    2^e above Cauchy's bound on the roots, until every interval holds at
    most one root isolates them all.  Signs are exact: p(a / 2^k) is taken
    as the integer p(a / 2^k) 2^(k deg p).
    """
    if f.degree < 1:
        raise ValueError("a constant has no roots to isolate")
    p = f.primitive_ints()
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:  # the chain ends in gcd(p, p'): repeated roots
        p = zexact_div(p, chain[-1])
        chain = _sturm_chain(p)

    def changes(a: int, k: int) -> int:
        signs = [v > 0 for v in (_value_at(s, a, k) for s in chain) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    # Cauchy: |r| < 1 + max |c_i / lc| <= 2^e
    e = (-(-max(abs(c) for c in p[:-1]) // abs(p[-1]))).bit_length()
    todo = [(-1 << e, 1 << e, 0, changes(-1 << e, 0), changes(1 << e, 0))]
    roots = []
    poly = tuple(p)
    while todo:
        lo, hi, k, v_lo, v_hi = todo.pop()
        if v_lo - v_hi == 1:
            roots.append(RealRoot(poly, lo, hi, k))
        elif v_lo - v_hi > 1:
            lo, mid, hi, k = lo << 1, lo + hi, hi << 1, k + 1
            v_mid = changes(mid, k)
            todo.append((mid, hi, k, v_mid, v_hi))
            todo.append((lo, mid, k, v_lo, v_mid))
    return roots


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p' and the negated primitive remainders, up to a constant or gcd(p, p')."""
    chain = [p, zprimitive(zderivative(p))]
    while len(chain[-1]) > 1:
        rem = zprem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _value_at(p: Sequence[int], a: int, k: int) -> int:
    """p(a / 2^k) 2^(k deg p), which has the sign of p(a / 2^k)."""
    acc, shift = 0, 0
    for c in reversed(p):
        acc = acc * a + (c << shift)
        shift += k
    return acc


def _bisect(p, pos: bool, lo: int, hi: int, k: int, bits: int):
    """Halve (lo / 2^k, hi / 2^k], holding one root of p with p(hi) > 0
    exactly when pos, down to a width of at most 2^-bits."""
    while (hi - lo) << bits > 1 << k:
        lo, mid, hi, k = lo << 1, lo + hi, hi << 1, k + 1
        v = _value_at(p, mid, k)
        if not v:
            return mid, mid, k
        if (v > 0) == pos:
            hi = mid
        else:
            lo = mid
    return lo, hi, k


def _newton(p, pos: bool, lo: int, hi: int, k: int, bits: int):
    """Newton's method for the root in (lo / 2^k, hi / 2^k), on a grid of
    spacing 2^-n, n >= bits + 2; the root's interval of width at most
    2^-bits, or None when a step leaves the interval or the steps do not
    settle within a quarter of that width."""
    n = max(bits, k) + 2
    width = 1 << (n - bits)
    lo, hi = lo << (n - k), hi << (n - k)
    dp = zderivative(p)
    x = (lo + hi) >> 1
    for _ in range(n.bit_length() + 8):
        v = _value_at(p, x, n)
        if not v:
            return x, x, n
        if (v > 0) == pos:
            hi = x
        else:
            lo = x
        w = _value_at(dp, x, n)
        if not w:
            return None
        if w < 0:
            v, w = -v, -w
        # p(x) / p'(x) = v / (w 2^n), so the step is v / w grid units
        step = (2 * v + w) // (2 * w)
        if 4 * abs(step) <= width:
            break
        x -= step
        if not lo < x < hi:
            return None
    else:
        return None
    # the root is within about a step of x: bracket it by sign checks
    for y in (x - width // 2, x + width // 2):
        if lo < y < hi:
            v = _value_at(p, y, n)
            if not v:
                return y, y, n
            if (v > 0) == pos:
                hi = y
            else:
                lo = y
    return (lo, hi, n) if hi - lo <= width else None
