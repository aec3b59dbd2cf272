"""Generic univariate polynomial kernels over an exact coefficient domain.

Polynomials are lists of coefficients, lowest degree first, with a nonzero
last entry (the empty list is zero).  Coefficients must support +, -, *,
**, bool (zero test) and ==; exact division is supplied by the caller, so
the same code runs over the rational field and over the Laurent ring.
`power` is the one square-and-multiply loop of the package, for any
multiplication; `signed_sum` writes out both QPoly and LaurentPoly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

C = TypeVar("C")
Div = Callable[[C, C], C]


def trim(coeffs: Sequence[C]) -> list[C]:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def degree(coeffs: Sequence[C]) -> int:
    return len(coeffs) - 1


def add(f: Sequence[C], g: Sequence[C]) -> list[C]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = out[i] + c
    return trim(out)


def neg(f: Sequence[C]) -> list[C]:
    return [-c for c in f]


def sub(f: Sequence[C], g: Sequence[C]) -> list[C]:
    return add(f, neg(g))


def mul(f: Sequence[C], g: Sequence[C], zero: C) -> list[C]:
    if not f or not g:
        return []
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = out[i + j] + a * b
    return trim(out)


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply; one is the identity."""
    result = one
    while n:
        if n & 1:
            result = result * base
        if n > 1:
            base = base * base
        n >>= 1
    return result


def scale(f: Sequence[C], c: C) -> list[C]:
    if not c:
        return []
    return trim([a * c for a in f])


def div_rem(
    f: Sequence[C], g: Sequence[C], div: Div, zero: C
) -> tuple[list[C], list[C]]:
    """Long division: (quot, rem) with f = quot * g + rem, deg rem < deg g.

    Each step divides leading coefficients via ``div``, so over a ring
    other than a field this is only defined when those divisions are exact,
    as they are whenever g | f (the step quotients are coefficients of f/g).
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = degree(g)
    lc_g = g[-1]
    quot = [zero] * max(len(f) - dg, 0)
    for shift in range(len(f) - len(g), -1, -1):
        c = rem[shift + dg]
        if not c:
            continue
        q = div(c, lc_g)
        quot[shift] = q
        for j, b in enumerate(g):
            rem[shift + j] = rem[shift + j] - q * b
    return trim(quot), trim(rem)


def div_exact(f: Sequence[C], g: Sequence[C], div: Div, zero: C, exc: type) -> list[C]:
    """Long division asserting a zero remainder (raising exc otherwise)."""
    quot, rem = div_rem(f, g, div, zero)
    if rem:
        raise exc("polynomial division left a remainder")
    return quot


def prem(f: Sequence[C], g: Sequence[C]) -> list[C]:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f modulo g."""
    if not g:
        raise ZeroDivisionError("pseudo-division by zero")
    rem = list(f)
    dg = degree(g)
    lc_g = g[-1]
    steps = degree(f) - dg + 1
    while rem and degree(rem) >= dg:
        lead = rem[-1]
        rem = [c * lc_g for c in rem[:-1]]
        for j in range(dg):
            rem[len(rem) - dg + j] = rem[len(rem) - dg + j] - lead * g[j]
        rem = trim(rem)
        steps -= 1
    for _ in range(steps):
        rem = [c * lc_g for c in rem]
    return trim(rem)


def resultant_prs(
    f: Sequence[C], g: Sequence[C], one: C, zero: C, div: Div
) -> C:
    """Resultant via the subresultant PRS (Brown / Cohen Algorithm 3.3.7).

    Convention: res(f, g) = lc(f)^deg(g) * prod g(root of f), the
    determinant of the Sylvester matrix with f rows on top.
    """
    f, g = trim(f), trim(g)
    if not f or not g:
        return zero
    n, m = degree(f), degree(g)
    sign = one
    if n < m:
        f, g, n, m = g, f, m, n
        if n % 2 and m % 2:
            sign = -sign
    if n == 0:
        return one
    if m == 0:
        return sign * g[0] ** n
    a, b = list(f), list(g)
    gg = one
    hh = one
    while True:
        da, db = degree(a), degree(b)
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        rem = prem(a, b)
        a = b
        if not rem:
            return zero
        denom = [gg * hh ** delta]
        b = div_exact(rem, denom, div, zero, ZeroDivisionError)
        gg = a[-1]
        if delta > 1:
            hh = div(gg ** delta, hh ** (delta - 1))
        elif delta == 1:
            hh = gg
        if degree(b) == 0:
            break
    da = degree(a)
    if da > 1:
        res = div(b[0] ** da, hh ** (da - 1))
    elif da == 1:
        res = b[0]
    else:  # pragma: no cover - loop invariant keeps deg(a) >= 1
        res = one
    return sign * res


def signed_sum(terms: Iterable[tuple[C, str]], sep: str = "") -> str:
    """Text of a sum of (coefficient, monomial) terms, leading term first,
    such as "-3·t^3 - t + 1/2": zero terms are skipped, the constant
    monomial is "", a coefficient of absolute value 1 is left out before a
    monomial and `sep` joins any other coefficient to its monomial."""
    text = ""
    for c, mono in terms:
        if not c:
            continue
        a = abs(c)
        body = str(a) if not mono else mono if a == 1 else f"{a}{sep}{mono}"
        if text:
            text += f" - {body}" if c < 0 else f" + {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"
