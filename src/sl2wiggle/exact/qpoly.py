"""Univariate polynomials in t over exact rationals.

These are the specializations of the Laurent-coefficient polynomials at a
concrete torus parameter pair, and the home of the gcd / squarefree /
root machinery behind the certification pipeline.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm
from typing import Iterable, Sequence

from ..errors import InexactDivisionError
from . import polycore

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        quot, rem = polycore.div_rem(self._coeffs, other._coeffs, _div, _ZERO)
        return _wrap(quot), _wrap(rem)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

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

    def derivative(self) -> "QPoly":
        return _wrap([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> "QPoly":
        if not self:
            return self
        inv = 1 / self.lc
        return _wrap([c * inv for c in self._coeffs])

    # ------------------------------------------------------------------
    def clear_denominators(self) -> "QPoly":
        """Integer-primitive scalar multiple with a positive leading coefficient."""
        if not self:
            return self
        ints = _primitive_ints(self)
        return QPoly.from_ints(ints if ints[-1] > 0 else [-v for v in ints])

    def squarefree_part(self) -> "QPoly":
        """Monic product of the distinct irreducible factors."""
        if self.degree < 1:
            return QPoly.one() if self else self
        return self.exact_div(gcd_q(self, self.derivative())).monic()

    def rational_roots(self) -> list[Fraction]:
        """All rational roots, found exactly.

        Degrees 1 and 2 are handled by closed formulas (a rational root of
        an integer quadratic needs an integer-square discriminant).  Higher
        degrees reconstruct candidates from high-precision numeric roots,
        using that a root's denominator divides the leading coefficient,
        and keep only candidates that evaluate to zero exactly.
        """
        if self.degree < 1:
            return []
        ints = list(self.clear_denominators()._coeffs)
        k = 0
        while not ints[k]:
            k += 1
        roots = [] if k == 0 else [_ZERO]
        roots.extend(_nonzero_rational_roots(_wrap(ints[k:])))
        return sorted(set(roots))

    def to_json(self) -> list[str]:
        return [str(c) for c in self._coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "QPoly":
        return cls([Fraction(s) for s in data])

    def pretty(self, var: str = "t") -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if not c:
                continue
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}·{mono}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"QPoly({self.pretty()})"


def _wrap(coeffs: Sequence[Fraction]) -> QPoly:
    p = QPoly.__new__(QPoly)
    p._coeffs = tuple(polycore.trim(list(coeffs)))
    return p


def _nonzero_rational_roots(p: QPoly) -> list[Fraction]:
    """Rational roots of an integer polynomial with nonzero constant term."""
    found: list[Fraction] = []
    rest = p
    while rest.degree > 2:
        rest = rest.clear_denominators()
        cand = None
        for approx in _real_root_approximations(rest):
            c = approx.limit_denominator(abs(int(rest.lc)))
            if c != 0 and rest.evaluate(c) == 0:
                cand = c
                break
        if cand is None:
            return found
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
    return [r for r in found if r != 0]


def _real_root_approximations(p: QPoly) -> list[Fraction]:
    """High-precision rational approximations of the real roots of p."""
    import mpmath

    digits = max(len(str(abs(c.numerator))) for c in p.coeffs)
    with mpmath.workdps(3 * digits + 50):
        try:
            roots = mpmath.polyroots(
                [mpmath.mpf(int(c)) for c in reversed(p.coeffs)],
                maxsteps=200,
                extraprec=60,
            )
        except mpmath.libmp.NoConvergence:
            return []
        eps = mpmath.mpf(10) ** (-digits - 20)
        reals = (mpmath.mpc(r) for r in roots)
        return [mpf_to_fraction(z.real) for z in reals if abs(z.imag) < eps]


def mpf_to_fraction(x) -> Fraction:
    """The exact value of an mpmath mpf."""
    # plain ints: the mantissa is an mpz when mpmath runs on the gmpy backend
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return _ZERO
    value = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return -value if sign else value


def _primitive(coeffs: list[int]) -> list[int]:
    g = int_gcd(*coeffs)
    return [c // g for c in coeffs]


def _primitive_ints(f: QPoly) -> list[int]:
    """The primitive integer polynomial that is a rational multiple of f != 0."""
    den = lcm(*(c.denominator for c in f.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in f.coeffs])


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a nonzero multiple of a mod b, with deg a >= deg b.

    Each step scales a by lc(b)/g and subtracts (lc(a)/g) t^k b for
    g = gcd(lc(a), lc(b)), so only integers occur.
    """
    lb, db = b[-1], len(b) - 1
    rem = list(a)
    while len(rem) > db:
        la = rem.pop()
        g = int_gcd(la, lb)
        sa, sb = lb // g, la // g
        shift = len(rem) - db
        if sa != 1:
            rem = [sa * c for c in rem]
        for j in range(db):
            rem[shift + j] -= sb * b[j]
        while rem and not rem[-1]:
            rem.pop()
    return _primitive(rem) if rem else rem


def gcd_q(f: QPoly, g: QPoly) -> QPoly:
    """Monic greatest common divisor over the rationals.

    Runs a primitive remainder sequence over the integers (Brown 1971):
    every remainder is reduced to its primitive part, so coefficients stay
    as small as the gcd allows instead of growing as in rational Euclid.
    """
    if not f and not g:
        raise ValueError("gcd of two zero polynomials")
    a = _primitive_ints(f) if f else []
    b = _primitive_ints(g) if g else []
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive_prem(a, b)
    if b:
        return QPoly.one()
    return QPoly.from_ints(a, a[-1])


def resultant_q(f: QPoly, g: QPoly) -> Fraction:
    """res(f, g) = lc(f)^deg(g) * product of g over the roots of f."""
    r = polycore.resultant_prs(list(f.coeffs), list(g.coeffs), _ONE, _ZERO, _div)
    return r


def squarefree_without(f: QPoly, excluded_roots: Sequence[Fraction]) -> QPoly:
    """Squarefree part of f with the linear factors at the given roots removed."""
    s = f.squarefree_part()
    for r in excluded_roots:
        if s.evaluate(Fraction(r)) == 0:
            s = s.exact_div(QPoly([-Fraction(r), 1]))
    return s


def factor_cubic_or_less(f: QPoly) -> list[QPoly]:
    """Irreducible monic factors of a squarefree polynomial of degree <= 3.

    Degree <= 3 factorization over Q needs only rational roots: any proper
    factorization of a quadratic or cubic contains a linear factor.
    """
    if f.degree < 1:
        raise ValueError("nothing to factor")
    if f.degree > 3:
        raise ValueError("factorization beyond cubic is not supported")
    rest = f.monic()
    factors = []
    for r in f.rational_roots():
        lin = QPoly([-r, 1])
        q, rem = rest.divmod(lin)
        if not rem:
            factors.append(lin)
            rest = q
    if rest.degree >= 1:
        factors.append(rest.monic())
    return factors
