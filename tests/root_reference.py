"""The numeric rational-root search that exact root isolation replaced,
kept as a test oracle.

`rational_roots_numeric` reconstructs rational roots from mpmath.polyroots
approximations: a candidate is the fraction nearest a real approximation
with denominator at most lc, kept only if it is an exact root.  When
polyroots does not converge it gives up, so it can miss roots; tests use
it only where it converges.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath

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
