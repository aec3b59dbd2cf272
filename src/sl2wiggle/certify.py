"""Unipotent certificates for double commutator words [[x^k,y^l],[x^m,y^n]].

A certificate is a squarefree h(t) dividing the specialized trace - 2 and
coprime to both t(t+1) and gamma - 1: every root of h then gives a
non-trivial unipotent wiggle value, which proves surjectivity of the word
map on PSL2 over the algebraic closure.  The search and the checker need
only those two specialized polynomials.

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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import mpmath

from .errors import PrecisionExhaustedError, TrivialWordError
from .exact.laurent import LaurentPoly
from .exact.mat2 import Mat2, mat2_q
from .exact.qpoly import (
    QPoly,
    RealRoot,
    factor_cubic_or_less,
    gcd_q,
    real_roots,
    squarefree_without,
)
from .exact.tpoly import TPoly
from .wiggle import (
    AssocPolys,
    SpecializedAssoc,
    assoc_polys,
    gamma_of,
    specialized_assoc,
    trace_poly,
)
from .words import Word, double_commutator, double_commutator_cyclic

logger = logging.getLogger(__name__)

_T = QPoly.t()
_T_T1 = _T * (_T + 1)
_ROOT_CUBES = (_T ** 3, (_T + 1) ** 3)


@dataclass(frozen=True)
class DCParams:
    k: int
    l: int
    m: int
    n: int

    def is_trivial(self) -> bool:
        return (
            self.k == 0
            or self.l == 0
            or self.m == 0
            or self.n == 0
            or (self.k, self.l) == (self.m, self.n)
        )

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
        return (
            self.divides_trace_minus_2
            and self.coprime_t_t1
            and self.coprime_gamma_minus_1
        )

    def to_json(self) -> dict:
        return {
            "divides_trace_minus_2": self.divides_trace_minus_2,
            "coprime_t_t1": self.coprime_t_t1,
            "coprime_gamma_minus_1": self.coprime_gamma_minus_1,
        }


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
            c = data["checks"]
            checks = CheckRecord(
                divides_trace_minus_2=bool(c["divides_trace_minus_2"]),
                coprime_t_t1=bool(c["coprime_t_t1"]),
                coprime_gamma_minus_1=bool(c["coprime_gamma_minus_1"]),
            )
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


def _attempt(params: DCParams, lam0: Fraction, mu0: Fraction):
    """One specialization attempt; returns (h, checks) or None to resample."""
    sa = specialized_assoc(params.cyclic_word(), lam0, mu0)
    trace_minus_2 = sa.trace - 2
    gamma_minus_1 = sa.gamma - 1
    if not trace_minus_2:
        return None
    # t^2 (t+1)^2 always divides trace - 2; a third power is worth a note
    if logger.isEnabledFor(logging.INFO) and any(
        not trace_minus_2 % cube for cube in _ROOT_CUBES
    ):
        logger.info(
            "trace - 2 vanishes to order >= 3 at 0 or -1 for %s at (%s, %s);"
            " stripping",
            params.as_list(),
            lam0,
            mu0,
        )
    s = squarefree_without(trace_minus_2, [Fraction(0), Fraction(-1)])
    if s.degree < 1:
        return None
    h = s.exact_div(gcd_q(s, gamma_minus_1))
    if h.degree < 1:
        return None
    h = h.clear_denominators()
    checks = CheckRecord(
        divides_trace_minus_2=not (trace_minus_2 % h),
        coprime_t_t1=gcd_q(h, _T_T1) == QPoly.one(),
        coprime_gamma_minus_1=gcd_q(h, gamma_minus_1) == QPoly.one(),
    )
    if not checks.all_ok:
        raise AssertionError(
            f"pipeline produced an unsound h for {params.as_list()} at"
            f" ({lam0}, {mu0}); this is a bug"
        )
    return h, checks


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
        for i in range(max_attempts):
            if attempts == 0 and initial is not None:
                lam0, mu0 = Fraction(initial[0]), Fraction(initial[1])
            else:
                lam0, mu0 = _draw_parameter(rng), _draw_parameter(rng)
            attempts += 1
            result = _attempt(phase_params, lam0, mu0)
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
    if cert.hpoly is None or cert.hpoly.degree < 1 or cert.lam0 is None:
        return CheckOutcome(valid=False, reason="missing h or specialization")
    eff = cert.effective_params()
    pref = prefactor_num(eff).evaluate(cert.lam0, cert.mu0)
    if pref == 0:
        return CheckOutcome(valid=False, reason="degenerate specialization")
    sa = specialized_assoc(eff.cyclic_word(), cert.lam0, cert.mu0)
    h = cert.hpoly
    checks = CheckRecord(
        divides_trace_minus_2=not ((sa.trace - 2) % h),
        coprime_t_t1=gcd_q(h, _T_T1) == QPoly.one(),
        coprime_gamma_minus_1=gcd_q(h, sa.gamma - 1) == QPoly.one(),
    )
    squarefree = gcd_q(h, h.derivative()) == QPoly.one()
    valid = checks.all_ok and squarefree
    return CheckOutcome(
        valid=valid,
        checks=checks,
        reason="" if valid else "a recorded fact failed re-verification",
    )


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
        return {
            "trace_minus_2_divisible": self.trace_minus_2_divisible,
            "beta_product_invertible": self.beta_product_invertible,
        }


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


def _eval_mp(poly: QPoly, z):
    acc = mpmath.mpc(0)
    for c in reversed(poly.coeffs):
        acc = acc * z + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
    return acc


def _mpf_to_fraction(x) -> Fraction:
    """The exact value of an mpmath mpf."""
    # plain ints: the mantissa is an mpz when mpmath runs on the gmpy backend
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return -value if sign else value


def build_witness(cert: Certificate, precision_digits: int = 64) -> Witness:
    """Turn a certificate into an explicit unipotent witness.

    Picks an irreducible factor h1 of h.  A linear factor gives a fully
    exact witness; otherwise the facts trace - 2 = 0 and beta * sigma(beta)
    invertible are certified in Q[t]/(h1), and the witness point is the
    smallest real root of h1, isolated exactly and refined by Newton steps
    to the working precision.  An h1 without real roots is a quadratic;
    its root with negative imaginary part is taken.
    """
    if not cert.certified:
        raise ValueError("witness construction needs a certified certificate")
    eff = cert.effective_params()
    factors = sorted(
        factor_cubic_or_less(cert.hpoly.monic()),
        key=lambda f: (f.degree, f.coeffs),
    )
    h1 = factors[0]
    sa = specialized_assoc(eff.cyclic_word(), cert.lam0, cert.mu0)
    trace_ok = not ((sa.trace - 2) % h1)
    beta_prod = (sa.beta * sa.beta_sigma) % h1
    beta_ok = bool(beta_prod) and gcd_q(h1, beta_prod) == QPoly.one()
    modular = ModularCertificate(
        trace_minus_2_divisible=trace_ok, beta_product_invertible=beta_ok
    )
    if not modular.all_ok:
        raise AssertionError("modular certificate failed; certificate unsound")

    if h1.degree == 1:
        t0 = -h1.coeff(0) / h1.coeff(1)
        g = mat2_q(1, 1, t0, 1 + t0)
        p, q = Fraction(1) + t0, -t0
        u = Mat2(
            sa.gamma.evaluate(t0),
            sa.beta.evaluate(t0) * p,
            -sa.beta_sigma.evaluate(t0) * q,
            sa.gamma_sigma.evaluate(t0),
        )
        if u.trace() != 2 or u.det() != 1 or u == Mat2(*map(Fraction, (1, 0, 0, 1))):
            raise AssertionError("exact witness failed its defining identities")
        return Witness(
            params=cert.params,
            lam0=cert.lam0,
            mu0=cert.mu0,
            minimal_poly=h1.clear_denominators(),
            modular=modular,
            exact=True,
            residual=Fraction(0),
            t0=t0,
            g=g,
            u=u,
        )

    return _numeric_witness(cert, eff, sa, h1, modular, precision_digits)


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
    eff: DCParams,
    sa: SpecializedAssoc,
    h1: QPoly,
    modular: ModularCertificate,
    precision_digits: int,
) -> Witness:
    target = Fraction(1, 10 ** max(precision_digits - 14, 1))
    h_int = h1.clear_denominators()
    roots = real_roots(h_int)
    coeff_digits = max(len(str(abs(c.numerator))) for c in h_int.coeffs)
    trace_digits = max(
        len(str(abs(c.numerator))) + len(str(c.denominator))
        for c in (sa.trace - 2).coeffs
    )
    for extra in (0, precision_digits):
        dps = precision_digits + 30 + coeff_digits + trace_digits + extra
        with mpmath.workdps(dps):
            t0 = _witness_point(h_int, roots)
            p, q = 1 + t0, -t0
            u11 = _eval_mp(sa.gamma, t0)
            u12 = _eval_mp(sa.beta, t0) * p
            u21 = -_eval_mp(sa.beta_sigma, t0) * q
            u22 = _eval_mp(sa.gamma_sigma, t0)
            resid_tr = abs(u11 + u22 - 2)
            resid_det = abs(u11 * u22 - u12 * u21 - 1)
            measured = max(resid_tr, resid_det)
            bound = 2 * _mpf_to_fraction(mpmath.mpf(measured)) + Fraction(
                1, 10 ** (precision_digits + 10)
            )
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
                minimal_poly=h_int,
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
    out = []
    for k in values:
        for l in values:
            for m in values:
                for n in values:
                    params = DCParams(k, l, m, n)
                    out.append(
                        certify(
                            params,
                            seed=_tuple_seed(seed, params, max_abs),
                            max_attempts=max_attempts,
                        )
                    )
    return out
