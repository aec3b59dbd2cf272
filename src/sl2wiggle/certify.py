"""Unipotent certificates for double commutator words [[x^k,y^l],[x^m,y^n]].

A certificate is a squarefree h(t) dividing the specialized trace - 2 and
coprime to both t(t+1) and gamma - 1: every root of h then gives a
non-trivial unipotent wiggle value, which proves surjectivity of the word
map on PSL2 over the algebraic closure.  The search and the checker need
only those two, as integer polynomials over one denominator.

The paper's tables peel the closed-form prefactors off the symbolic
polynomials (core_polys):

    trace(t) - 2 = (P / D)^2 * t^2 (t+1)^2 * tau(t),
    gamma(t) - 1 = (P / D^2)     * t (t+1)   * gamma_inner(t),

with P = (l^2k - 1)(m^2l - 1)(l^2m - 1)(m^2n - 1) and the monomial
D = l^(2(k+m)) m^(2(l+n)) (writing l, m for lambda, mu).  Since h has no
root at 0 or -1, it is the same as the squarefree part of tau with those
roots and the roots shared with gamma_inner removed.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Optional

import mpmath

from .errors import PrecisionExhaustedError, TrivialWordError
from .exact.laurent import LaurentPoly
from .exact.mat2 import Mat2, mat2_q
from .exact.polycore import add, mul
from .exact.qpoly import (
    QPoly,
    RealRoot,
    real_roots,
    zderivative,
    zdiv_t1,
    zexact_div,
    zgcd,
    zprem,
    zprimitive,
)
from .exact.tpoly import TPoly
from .wiggle import (
    AssocPolys,
    Pairs,
    SpecializedAssoc,
    as_pairs,
    assoc_polys,
    gamma_of,
    specialized_assoc,
    trace_poly,
)
from .words import Word, double_commutator, double_commutator_cyclic

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DCParams:
    k: int
    l: int
    m: int
    n: int

    def is_trivial(self) -> bool:
        return 0 in self.as_list() or (self.k, self.l) == (self.m, self.n)

    def swapped(self) -> "DCParams":
        """Parameters of the generator-swapped word, conjugate to this one."""
        return DCParams(self.l, self.k, self.n, self.m)

    def word(self) -> Word:
        return double_commutator(self.k, self.l, self.m, self.n)

    def cyclic_word(self) -> Word:
        return double_commutator_cyclic(self.k, self.l, self.m, self.n)

    def as_list(self) -> list[int]:
        return [self.k, self.l, self.m, self.n]


def prefactor_num(p: DCParams) -> LaurentPoly:
    one = LaurentPoly.one()
    return (
        (LaurentPoly.lam(2 * p.k) - one)
        * (LaurentPoly.mu(2 * p.l) - one)
        * (LaurentPoly.lam(2 * p.m) - one)
        * (LaurentPoly.mu(2 * p.n) - one)
    )


def prefactor_den(p: DCParams) -> LaurentPoly:
    return LaurentPoly.mono(1, 2 * (p.k + p.m), 2 * (p.l + p.n))


@dataclass(frozen=True)
class CorePolys:
    """Cofactors left after peeling the closed-form prefactors."""

    params: DCParams
    prefactor_num: LaurentPoly
    prefactor_den: LaurentPoly
    tau: TPoly
    gamma_inner: TPoly
    alpha_core: TPoly
    assoc: AssocPolys


def _peel(numerator: TPoly, t_power: int, pref: LaurentPoly) -> TPoly:
    """Divide by t^t_power (t+1)^t_power and the Laurent constant pref."""
    t1 = (TPoly.t() + TPoly.one()) ** t_power
    return numerator.shift_down(t_power).exact_div(t1).exact_div(TPoly.const(pref))


def core_polys(params: DCParams) -> CorePolys:
    """Symbolic tau, gamma_inner and the alpha cofactor for a double commutator.

    Raises TrivialWordError for trivial parameters and InexactDivisionError
    if any closed-form factorization fails to divide exactly (which would
    mean a bug, so it is never swallowed).
    """
    if params.is_trivial():
        raise TrivialWordError(f"{params.as_list()} gives the trivial word")
    ap = assoc_polys(params.cyclic_word())
    pref = prefactor_num(params)
    den = prefactor_den(params)
    den2 = den * den
    trace = trace_poly(ap)
    gamma = gamma_of(ap)
    tau = _peel((trace - TPoly.one() * 2).scale(den2), 2, pref * pref)
    gamma_inner = _peel((gamma - TPoly.one()).scale(den2), 1, pref)
    alpha_core = _peel((ap.alpha - TPoly.one()).scale(den2), 1, pref)
    return CorePolys(
        params=params,
        prefactor_num=pref,
        prefactor_den=den,
        tau=tau,
        gamma_inner=gamma_inner,
        alpha_core=alpha_core,
        assoc=ap,
    )


# ----------------------------------------------------------------------
# certification


class CertStatus(Enum):
    CERTIFIED = "Certified"
    SWAPPED_CERTIFIED = "SwappedCertified"
    TRIVIAL_WORD = "TrivialWord"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CheckRecord:
    divides_trace_minus_2: bool
    coprime_t_t1: bool
    coprime_gamma_minus_1: bool

    @property
    def all_ok(self) -> bool:
        return self.divides_trace_minus_2 and self.coprime_t_t1 and self.coprime_gamma_minus_1

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Certificate:
    params: DCParams
    status: CertStatus
    lam0: Optional[Fraction]
    mu0: Optional[Fraction]
    hpoly: Optional[QPoly]
    checks: Optional[CheckRecord]
    attempts: int

    @property
    def certified(self) -> bool:
        return self.status in (CertStatus.CERTIFIED, CertStatus.SWAPPED_CERTIFIED)

    def effective_params(self) -> DCParams:
        """Parameters of the word the recorded checks actually refer to."""
        if self.status is CertStatus.SWAPPED_CERTIFIED:
            return self.params.swapped()
        return self.params

    def to_json(self) -> dict:
        data: dict = {
            "params": self.params.as_list(),
            "status": self.status.value,
            "attempts": self.attempts,
        }
        if self.lam0 is not None:
            data["lambda"] = str(self.lam0)
            data["mu"] = str(self.mu0)
        if self.hpoly is not None:
            data["h"] = self.hpoly.to_json()
        if self.checks is not None:
            data["checks"] = self.checks.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        checks = None
        if "checks" in data:
            checks = CheckRecord(*(bool(data["checks"][f.name]) for f in fields(CheckRecord)))
        return cls(
            params=DCParams(*[int(v) for v in data["params"]]),
            status=CertStatus(data["status"]),
            lam0=Fraction(data["lambda"]) if "lambda" in data else None,
            mu0=Fraction(data["mu"]) if "mu" in data else None,
            hpoly=QPoly.from_json(data["h"]) if "h" in data else None,
            checks=checks,
            attempts=int(data["attempts"]),
        )


def _draw_parameter(rng: random.Random) -> Fraction:
    while True:
        value = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        if value != 1:
            return value


def _minus_2_and_1(sa: SpecializedAssoc) -> tuple[list[int], list[int]]:
    """D (trace - 2) and D (gamma - 1) in Z[t], for the shared denominator D."""
    return add(sa.trace_num, [-2 * sa.den]), add(sa.gamma_num, [-sa.den])


def _check_record(h: list[int], trace_minus_2, gamma_minus_1) -> CheckRecord:
    """The three facts for a primitive integer h, against D (trace - 2)
    and D (gamma - 1) in Z[t], where exact division decides divisibility."""
    return CheckRecord(
        divides_trace_minus_2=zexact_div(trace_minus_2, h) is not None,
        coprime_t_t1=bool(h[0]) and bool(zdiv_t1(h)[1]),
        coprime_gamma_minus_1=zgcd(h, gamma_minus_1) == [1],
    )


def _stripped_squarefree(f: list[int]) -> tuple[list[int], int, int]:
    """The squarefree part of f != 0 with every factor t and t + 1 divided
    out, and the orders of f at 0 and -1."""
    at_0 = next(i for i, c in enumerate(f) if c)
    f, at_m1 = f[at_0:], 0
    while True:
        q, r = zdiv_t1(f)
        if r:
            break
        f, at_m1 = q, at_m1 + 1
    return zexact_div(f, zgcd(f, zderivative(f))), at_0, at_m1


def _attempt(params: DCParams, runs: Pairs, lam0: Fraction, mu0: Fraction):
    """One specialization attempt on the runs of params' cyclic word;
    returns (h, checks) or None to resample.

    Works in Z[t] on D (trace - 2) and D (gamma - 1) throughout."""
    sa = specialized_assoc(runs, lam0, mu0)
    trace_minus_2, gamma_minus_1 = _minus_2_and_1(sa)
    if not trace_minus_2:
        return None
    s, at_0, at_m1 = _stripped_squarefree(trace_minus_2)
    # t^2 (t+1)^2 always divides trace - 2; a third power is worth a note
    if max(at_0, at_m1) >= 3:
        logger.info(
            "trace - 2 vanishes to order >= 3 at 0 or -1 for %s at (%s, %s); stripping",
            params.as_list(), lam0, mu0,
        )
    h = zprimitive(zexact_div(s, zgcd(s, gamma_minus_1)))
    if len(h) < 2:
        return None
    if h[-1] < 0:
        h = [-c for c in h]
    checks = _check_record(h, trace_minus_2, gamma_minus_1)
    if not checks.all_ok:
        raise AssertionError(
            f"pipeline produced an unsound h for {params.as_list()} at"
            f" ({lam0}, {mu0}); this is a bug"
        )
    return QPoly(h), checks


def certify(
    params: DCParams,
    seed: int = 0,
    max_attempts: int = 5,
    initial: Optional[tuple[Fraction, Fraction]] = None,
) -> Certificate:
    """Search for a certificate, retrying with fresh rational parameters.

    The generator-swapped parameters are tried after max_attempts failures;
    that cures the one family (inner y-exponents equal) where every root of
    trace - 2 outside {0, -1} is a root of gamma - 1 at every specialization.
    """
    if params.is_trivial():
        return Certificate(params, CertStatus.TRIVIAL_WORD, None, None, None, None, 0)
    if initial is not None and (not initial[0] or not initial[1]):
        raise ValueError("initial torus parameters must be nonzero")
    rng = random.Random(seed)
    attempts = 0
    for phase_params, status in (
        (params, CertStatus.CERTIFIED),
        (params.swapped(), CertStatus.SWAPPED_CERTIFIED),
    ):
        runs = as_pairs(phase_params.cyclic_word())
        for i in range(max_attempts):
            if attempts == 0 and initial is not None:
                lam0, mu0 = Fraction(initial[0]), Fraction(initial[1])
            else:
                lam0, mu0 = _draw_parameter(rng), _draw_parameter(rng)
            attempts += 1
            result = _attempt(phase_params, runs, lam0, mu0)
            if result is not None:
                h, checks = result
                return Certificate(params, status, lam0, mu0, h, checks, attempts)
    return Certificate(params, CertStatus.INCONCLUSIVE, None, None, None, None, attempts)


# ----------------------------------------------------------------------
# independent checking


@dataclass(frozen=True)
class CheckOutcome:
    valid: bool
    checks: Optional[CheckRecord] = None
    reason: str = ""


def check_certificate(cert: Certificate) -> CheckOutcome:
    """Re-verify a certificate from scratch, trusting only its stated data.

    Recomputes the specialized trace and gamma from the word itself; none
    of the search's intermediate values are reused.
    """
    if cert.status is CertStatus.TRIVIAL_WORD:
        ok = cert.params.is_trivial()
        return CheckOutcome(valid=ok, reason="" if ok else "word is not trivial")
    if cert.status is CertStatus.INCONCLUSIVE:
        ok = not cert.params.is_trivial()
        return CheckOutcome(valid=ok, reason="no claim to check" if ok else "trivial word")
    if cert.params.is_trivial():
        return CheckOutcome(valid=False, reason="certified status on a trivial word")
    if cert.hpoly is None or cert.hpoly.degree < 1 or cert.lam0 is None or cert.mu0 is None:
        return CheckOutcome(valid=False, reason="missing h or specialization")
    if not cert.lam0 or not cert.mu0:
        return CheckOutcome(valid=False, reason="zero torus parameter")
    eff = cert.effective_params()
    if prefactor_num(eff).evaluate(cert.lam0, cert.mu0) == 0:
        return CheckOutcome(valid=False, reason="degenerate specialization")
    sa = specialized_assoc(eff.cyclic_word(), cert.lam0, cert.mu0)
    h = cert.hpoly.primitive_ints()
    checks = _check_record(h, *_minus_2_and_1(sa))
    valid = checks.all_ok and zgcd(h, zderivative(h)) == [1]  # h squarefree
    reason = "" if valid else "a recorded fact failed re-verification"
    return CheckOutcome(valid=valid, checks=checks, reason=reason)


# ----------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class ModularCertificate:
    """Exact facts in Q[t]/(h1) showing every root of h1 is a witness."""

    trace_minus_2_divisible: bool
    beta_product_invertible: bool

    @property
    def all_ok(self) -> bool:
        return self.trace_minus_2_divisible and self.beta_product_invertible

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Witness:
    """A point where the wiggle value is a non-trivial unipotent.

    Exact witnesses (rational t0) carry exact g and u with trace(u) = 2 and
    det(u) = 1 on the nose.  Numeric witnesses carry a high-precision root
    of the minimal polynomial plus a measured residual bound; the modular
    certificate is the authoritative exactness statement.
    """

    params: DCParams
    lam0: Fraction
    mu0: Fraction
    minimal_poly: QPoly
    modular: ModularCertificate
    exact: bool
    residual: Fraction
    t0: Optional[Fraction] = None
    g: Optional[Mat2] = None
    u: Optional[Mat2] = None
    t0_approx: Optional[tuple[str, str]] = None
    u_approx: Optional[list[list[tuple[str, str]]]] = None
    precision_digits: int = 0

    def to_json(self) -> dict:
        data: dict = {
            "params": self.params.as_list(),
            "lambda": str(self.lam0),
            "mu": str(self.mu0),
            "minimal_poly": self.minimal_poly.to_json(),
            "modular": self.modular.to_json(),
            "exact": self.exact,
            "residual": str(self.residual),
        }
        if self.exact:
            data["t0"] = str(self.t0)
            data["g"] = [[str(c) for c in row] for row in self.g.rows()]
            data["u"] = [[str(c) for c in row] for row in self.u.rows()]
        else:
            data["t0"] = {"re": self.t0_approx[0], "im": self.t0_approx[1]}
            data["u"] = [
                [{"re": re, "im": im} for re, im in row] for row in self.u_approx
            ]
            data["precision_digits"] = self.precision_digits
        return data


def _wiggle_at(sa: SpecializedAssoc, t0) -> tuple:
    """The entries gamma, beta p, -sigma(beta) q, sigma(gamma) of the wiggle
    value at t0, for p = 1 + t0 and q = -t0, a Fraction or an mpc.  Each
    polynomial is its integer numerator by Horner, then one division by D."""

    def at(num):
        acc = 0 * t0
        for c in reversed(num):
            acc = acc * t0 + c
        return acc / sa.den

    gamma, beta = at(sa.gamma_num), at(sa.beta_num)
    return gamma, beta * (1 + t0), at(sa.beta_sigma_num) * t0, at(sa.gamma_sigma_num)


def _mpf_to_fraction(x) -> Fraction:
    """The exact value of an mpmath mpf."""
    # plain ints: the mantissa is an mpz when mpmath runs on the gmpy backend
    sign, man, exp, _ = x._mpf_
    value = Fraction(int(man) << max(int(exp), 0), 1 << max(-int(exp), 0))
    return -value if sign else value


def build_witness(cert: Certificate, precision_digits: int = 64) -> Witness:
    """Turn a certificate into an explicit unipotent witness.

    The real roots of h (of degree <= 3) are isolated once.  A rational
    root r = u/v, the largest if there are several, gives the factor
    h1 = v t - u and a fully exact witness.  Otherwise h is irreducible
    and h1 = h.  Either way the facts trace - 2 = 0 and beta * sigma(beta)
    invertible are certified in Q[t]/(h1), by exact division and
    pseudo-remainders in Z[t].  Without a rational root, the witness point
    is the smallest real root of h1, refined by Newton steps to the
    working precision; an h1 without real roots is a quadratic, and its
    root with negative imaginary part is taken.
    """
    if not cert.certified:
        raise ValueError("witness construction needs a certified certificate")
    if not 1 <= cert.hpoly.degree <= 3:
        raise ValueError("witnesses need a certificate h of degree 1 to 3")
    eff = cert.effective_params()
    roots = real_roots(cert.hpoly)
    rational = [x for x in map(RealRoot.rational, roots) if x is not None]
    t0 = rational[-1] if rational else None
    h1 = [-t0.numerator, t0.denominator] if rational else cert.hpoly.primitive_ints()
    sa = specialized_assoc(eff.cyclic_word(), cert.lam0, cert.mu0)
    beta_prod = mul(zprem(sa.beta_num, h1), zprem(sa.beta_sigma_num, h1), 0)
    modular = ModularCertificate(
        trace_minus_2_divisible=zexact_div(_minus_2_and_1(sa)[0], h1) is not None,
        beta_product_invertible=zgcd(h1, beta_prod) == [1],
    )
    if not modular.all_ok:
        raise AssertionError("modular certificate failed; certificate unsound")

    if t0 is None:
        return _numeric_witness(cert, sa, h1, roots, modular, precision_digits)
    g = mat2_q(1, 1, t0, 1 + t0)
    u = Mat2(*_wiggle_at(sa, t0))
    if u.trace() != 2 or u.det() != 1 or u == Mat2(*map(Fraction, (1, 0, 0, 1))):
        raise AssertionError("exact witness failed its defining identities")
    return Witness(
        params=cert.params,
        lam0=cert.lam0,
        mu0=cert.mu0,
        minimal_poly=QPoly(h1),
        modular=modular,
        exact=True,
        residual=Fraction(0),
        t0=t0,
        g=g,
        u=u,
    )


def _witness_point(h_int: QPoly, roots: list[RealRoot]):
    """At the working precision: the smallest real root of h_int or, when
    there is none, the root of the quadratic h_int below the real axis."""
    if roots:
        # a few bits beyond the working precision, so the rounding is mpf's
        root = roots[0].refined(mpmath.mp.prec + 8)
        return mpmath.mpc(mpmath.mpf((root.lo + root.hi, -root.k - 1)))
    c, b, a = (int(v) for v in h_int.coeffs)
    return mpmath.mpc(-b, -mpmath.sqrt(4 * a * c - b * b)) / (2 * a)


def _numeric_witness(
    cert: Certificate,
    sa: SpecializedAssoc,
    h: list[int],
    roots: list[RealRoot],
    modular: ModularCertificate,
    precision_digits: int,
) -> Witness:
    target = Fraction(1, 10 ** max(precision_digits - 14, 1))
    h_poly = QPoly(h)
    coeff_digits = max(len(str(abs(c))) for c in h)
    # digits of the reduced fractions (trace - 2)_i = T_i / D
    trace_digits = max(
        len(str(abs(c) // g)) + len(str(sa.den // g))
        for c, g in ((c, gcd(c, sa.den)) for c in _minus_2_and_1(sa)[0])
    )
    for extra in (0, precision_digits):
        dps = precision_digits + 30 + coeff_digits + trace_digits + extra
        with mpmath.workdps(dps):
            t0 = _witness_point(h_poly, roots)
            u11, u12, u21, u22 = _wiggle_at(sa, t0)
            measured = max(abs(u11 + u22 - 2), abs(u11 * u22 - u12 * u21 - 1))
            bound = 2 * _mpf_to_fraction(mpmath.mpf(measured))
            bound += Fraction(1, 10 ** (precision_digits + 10))
            if bound > target:
                continue
            fmt = lambda z: (
                mpmath.nstr(z.real, precision_digits, strip_zeros=False),
                mpmath.nstr(z.imag, precision_digits, strip_zeros=False),
            )
            return Witness(
                params=cert.params,
                lam0=cert.lam0,
                mu0=cert.mu0,
                minimal_poly=h_poly,
                modular=modular,
                exact=False,
                residual=bound,
                t0_approx=fmt(t0),
                u_approx=[[fmt(u11), fmt(u12)], [fmt(u21), fmt(u22)]],
                precision_digits=precision_digits,
            )
    raise PrecisionExhaustedError(
        f"could not reach residual {target} at {precision_digits} digits;"
        " retry with higher precision"
    )


# ----------------------------------------------------------------------
# sweeps


def _tuple_seed(seed: int, params: DCParams, max_abs: int) -> int:
    span = 2 * max_abs + 1
    code = 0
    for v in params.as_list():
        code = code * span + (v + max_abs)
    return seed * 1_000_003 + code


def sweep_box(
    max_abs: int = 3, seed: int = 0, max_attempts: int = 5
) -> list[Certificate]:
    """Certify every tuple with nonzero entries of magnitude <= max_abs."""
    values = [v for v in range(-max_abs, max_abs + 1) if v != 0]
    return [
        certify(params, seed=_tuple_seed(seed, params, max_abs), max_attempts=max_attempts)
        for params in (DCParams(*e) for e in product(values, repeat=4))
    ]
