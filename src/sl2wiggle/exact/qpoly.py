"""Univariate integer polynomials in t, and their exact real roots.

A polynomial is a sequence of ints, lowest degree first, with a nonzero
last entry (the empty sequence is zero).  These are the specializations
of the Laurent-coefficient polynomials at a concrete torus parameter
pair, cleared of denominators: a primitive divisor always has an integral
quotient by Gauss's lemma, so gcds and divisibility need no fractions.
`zgcd` reads the gcd from the digits of one integer gcd at a power of
two, and checks it by exact division.

`real_roots` isolates the real roots exactly; `rational_roots` finds the
rational ones, by arithmetic where it can and by refining the isolating
intervals only where it must.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt, prod
from typing import Optional, Sequence

from .polycore import prem, unpack


def zprimitive(f: Sequence[int]) -> list[int]:
    """f divided by the gcd of its coefficients; zero stays zero."""
    g = int_gcd(*f)
    return [c // g for c in f] if g > 1 else list(f)


def zderivative(f: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def zexact_div(f: Sequence[int], g: Sequence[int]) -> Optional[list[int]]:
    """f / g in Z[t], or None when g does not divide f there.  For a
    primitive g that is the same as dividing in Q[t] (Gauss's lemma).
    Only the nonzero coefficients of g are subtracted, so a sparse g costs
    what its terms do."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg, lc = len(g) - 1, g[-1]
    low = [(j, c) for j, c in enumerate(g[:dg]) if c]
    rem, quot = list(f), [0] * max(len(f) - dg, 0)
    for shift in range(len(f) - 1 - dg, -1, -1):
        q, r = divmod(rem[shift + dg], lc)
        if r:
            return None
        if q:
            quot[shift] = q
            for j, c in low:
                rem[shift + j] -= q * c
    return None if any(rem[:dg]) else quot


def zgcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The primitive gcd in Z[t], with a positive leading coefficient.

    One integer gcd at a power of two (Char, Geddes and Gonnet's heuristic
    gcd, 1989), made exact.  For primitive nonzero a, b take
    x = 2^k >= 2 min(|a|, |b|) + 2, where |.| is the largest absolute
    coefficient, set gamma = gcd(a(x), b(x)) > 0 and let h be the primitive
    part of the balanced base-x digits of gamma (polycore.unpack).  Write
    G = gcd(a, b), a = G A and b = G B.

    Every root r of a has |r| < 1 + |a| (Cauchy), and likewise for b.  So
    a common factor q of positive degree has roots |r| < x/2, and
    |q(x)| >= prod |x - r| > (x/2)^deg q >= x/2.

    - Constant h: gamma is a single digit, so gamma < x/2.  G(x) divides
      gamma, so G has degree 0, and G = 1.
    - h divides a and b: then G = h q in Z[t] (Gauss's lemma).  The
      digits of gamma are c(h) h for their content c(h) <= x/2, so
      G(x) = h(x) q(x) divides gamma = c(h) h(x), with h(x) != 0, and
      q(x) divides c(h).  So q is a constant, and q = 1, since G and h
      are primitive and gamma > 0 gives h a positive top digit.
    - Termination: gamma = c G(x) with c = gcd(A(x), B(x)), which divides
      the nonzero integer res(A, B) whatever x is.  Once x > 2 c |G|, the
      digits of gamma are c G, and h = G divides a and b.  Each failed
      point doubles k.

    So every returned h is the gcd; the loop takes a few points only when
    gcd(A(x), B(x)) is large against x.
    """
    if not f and not g:
        raise ValueError("gcd of two zero polynomials")
    a, b = zprimitive(f), zprimitive(g)
    if not a or not b:
        h = a or b
        return h if h[-1] > 0 else [-c for c in h]
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()
    while True:
        gamma = int_gcd(_at_power_of_two(a, k), _at_power_of_two(b, k))
        h = zprimitive(unpack(gamma, k))
        if len(h) == 1:
            return [1]
        if zexact_div(a, h) is not None and zexact_div(b, h) is not None:
            return h
        k *= 2


def _at_power_of_two(p: Sequence[int], k: int) -> int:
    """p(2^k), by Horner's rule with shifts."""
    acc = 0
    for c in reversed(p):
        acc = (acc << k) + c
    return acc


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

        Refines the interval to about log2(2 |lc|) bits, so it is the slow
        way to learn that a root is irrational; `rational_roots` calls it
        only when no cheaper argument settles the question.

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


def real_roots(f: Sequence[int]) -> list[RealRoot]:
    """The distinct real roots of a nonconstant integer f, in increasing order.

    Works on the squarefree primitive integer polynomial p with the roots
    of f.  Its Sturm sequence, built from integer pseudo-remainders, counts
    the roots in a half-open interval (a, b] as V(a) - V(b), where V is the
    number of sign changes along the sequence.  Bisecting (-2^e, 2^e], with
    2^e above Cauchy's bound on the roots, until every interval holds at
    most one root isolates them all.  Signs are exact: p(a / 2^k) is taken
    as the integer p(a / 2^k) 2^(k deg p).
    """
    if len(f) < 2:
        raise ValueError("a constant has no roots to isolate")
    p = zprimitive(f)
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


# rational_roots' filter primes and their product.  Up to 100 they keep
# the filter's worst case, a root mod every prime, below the cost of one
# RealRoot.rational call on a box-3 cubic, and rule out all but 4 of the
# 864 box-3 cubics.
_FILTER_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))
_FILTER_MODULUS = prod(_FILTER_PRIMES)


def rational_roots(f: Sequence[int]) -> list[Fraction]:
    """The distinct rational roots of a nonconstant integer f, in increasing order.

    Degree 1 has the root -f0 / f1.  A quadratic a t^2 + b t + c has
    rational roots exactly when its discriminant d = b^2 - 4ac is a
    square s^2, and they are (-b -+ s) / 2a.

    Higher degrees first go through a prime filter.  Let u/v be a root in
    lowest terms.  From 0 = v^n f(u/v) = sum f_i u^i v^(n-i), v divides
    f_n u^n and is coprime to u, so v | lc(f).  For a prime p not dividing lc(f), v is then
    invertible mod p and f(u v^-1) = 0 in F_p.  So if f has no root in F_p
    for one such p, f has no rational root.  As F_p is a field, f has a
    root there exactly when p divides the product of f(x) over x = 0 ..
    p - 1; one running product mod the product of the filter primes walks
    x upward and serves them all.  When no filter prime rules the roots
    out, each isolated real root is asked whether it is rational
    (`RealRoot.rational`).
    """
    if len(f) < 2:
        raise ValueError("a constant has no roots to find")
    if len(f) == 2:
        return [Fraction(-f[0], f[1])]
    if len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = isqrt(disc)
        if s * s != disc:
            return []
        return sorted({Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)})
    high_first = f[::-1]
    acc, done = 1, 0
    for p in [p for p in _FILTER_PRIMES if f[-1] % p]:
        for x in range(done, p):
            v = 0
            for c in high_first:
                v = v * x + c
            acc = acc * v % _FILTER_MODULUS
        if acc % p:
            return []
        done = p
    return [r for r in map(RealRoot.rational, real_roots(f)) if r is not None]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p' and the negated primitive remainders, up to a constant or gcd(p, p').

    polycore.prem(a, b) is a mod b times lc(b)^(deg a - deg b + 1), a
    negative factor exactly when lc(b) < 0 and deg a - deg b is even, so
    there its sign is already that of -(a mod b).  Each entry is thus
    -(a mod b) up to a positive factor: the same sign changes as the
    Sturm sequence over Q.
    """
    chain = [p, zprimitive(zderivative(p))]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = zprimitive(prem(a, b))
        if not rem:
            break
        flip = b[-1] < 0 and (len(a) - len(b)) % 2 == 0
        chain.append(rem if flip else [-c for c in rem])
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
