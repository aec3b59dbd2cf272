"""The numeric rational-root search that exact root isolation replaced,
and the integer pseudo-remainder the Sturm chain used to be built from,
kept as test oracles.

`rational_roots_numeric` reconstructs rational roots from mpmath.polyroots
approximations: a candidate is the fraction nearest a real approximation
with denominator at most lc, kept only if it is an exact root.  When
polyroots does not converge it gives up, so it can miss roots; tests use
it only where it converges.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt
from typing import Sequence

import mpmath

from sl2wiggle.exact.qpoly import zderivative, zprimitive

from fraction_reference import QPoly


class NotConverged(Exception):
    """polyroots found no approximation for a polynomial."""


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return -value if sign else value


def real_root_approximations(p: QPoly) -> list[Fraction]:
    """High-precision rational approximations of the real roots of an
    integer polynomial p; raises NotConverged where polyroots fails."""
    digits = max(len(str(abs(c.numerator))) for c in p.coeffs)
    with mpmath.workdps(3 * digits + 50):
        try:
            roots = mpmath.polyroots(
                [mpmath.mpf(int(c)) for c in reversed(p.coeffs)],
                maxsteps=200,
                extraprec=60,
            )
        except mpmath.libmp.NoConvergence as exc:
            raise NotConverged(str(p)) from exc
        eps = mpmath.mpf(10) ** (-digits - 20)
        reals = (mpmath.mpc(r) for r in roots)
        return [mpf_to_fraction(z.real) for z in reals if abs(z.imag) < eps]


def rational_roots_numeric(f: QPoly) -> list[Fraction]:
    """The rational roots of f by the numeric search, in increasing order."""
    if f.degree < 1:
        return []
    ints = f.primitive_ints()
    k = 0
    while not ints[k]:
        k += 1
    found = [] if k == 0 else [Fraction(0)]
    rest = QPoly(ints[k:])
    while rest.degree > 2:
        rest = QPoly(rest.primitive_ints())
        cand = None
        for approx in real_root_approximations(rest):
            c = approx.limit_denominator(abs(int(rest.lc)))
            if c != 0 and rest.evaluate(c) == 0:
                cand = c
                break
        if cand is None:
            break
        found.append(cand)
        rest = rest.exact_div(QPoly([-cand, 1]))
    if rest.degree == 1:
        found.append(-rest.coeff(0) / rest.coeff(1))
    elif rest.degree == 2:
        a, b, c = rest.coeff(2), rest.coeff(1), rest.coeff(0)
        disc = b * b - 4 * a * c
        if disc >= 0:
            num, den = disc.numerator, disc.denominator
            sn, sd = isqrt(num), isqrt(den)
            if sn * sn == num and sd * sd == den:
                s = Fraction(sn, sd)
                found.extend(((-b + s) / (2 * a), (-b - s) / (2 * a)))
    return sorted(set(found))


def smallest_root_numeric(h: QPoly):
    """The root of an integer polynomial h the witness takes, by polyroots
    at the working precision: real roots first, then by real and imaginary
    part."""
    roots = mpmath.polyroots(
        [mpmath.mpf(int(c)) for c in reversed(h.coeffs)], maxsteps=200, extraprec=60
    )
    tiny = mpmath.mpf(10) ** (-mpmath.mp.dps // 2)
    return sorted(
        (mpmath.mpc(r) for r in roots),
        key=lambda z: (abs(z.imag) > tiny, z.real, z.imag),
    )[0]


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


def sturm_chain_zprem(p: list[int]) -> list[list[int]]:
    """p, p' and the negated remainders by zprem, up to a constant or
    gcd(p, p'): the Sturm chain of a nonconstant primitive integer p."""
    chain = [p, zprimitive(zderivative(p))]
    while len(chain[-1]) > 1:
        rem = zprem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain
