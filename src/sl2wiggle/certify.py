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
roots and the roots shared with gamma_inner removed.  core_polys runs the
column recursion and the whole peel on one packed integer per polynomial,
at a Kronecker point of powers of two; a word whose exponent box the runs
cannot fill takes the same steps over the Laurent ring.
"""

from __future__ import annotations

import logging
import operator
import random
from dataclasses import asdict, dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import product
from math import comb, isqrt, log2, log10, prod
from typing import Callable, Optional, Sequence

from .errors import InexactDivisionError, PrecisionExhaustedError, TrivialWordError
from .exact.laurent import LaurentPoly, _from_terms, _slot_terms, _unpack_slots
from .exact.mat2 import Mat2, mat2_q
from .exact.polycore import add, div_t1, mul, trim, unpack
from .exact.qpoly import (
    RealRoot,
    rational_roots,
    real_roots,
    zderivative,
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
    _box,
    _column,
    _column_norms,
    _shift_runs,
    _swapped,
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


def _peel(rows: Sequence, t_power: int, divide: Callable) -> list:
    """The coefficients, lowest degree first, of the polynomial in t with
    coefficients `rows` divided by t^t_power (t+1)^t_power, each then passed
    through `divide`: t_power rows dropped, then t_power synthetic
    divisions by t + 1 (polycore.div_t1), which take + and - alone, so a
    row is a Laurent polynomial or an integer standing for one at a point.
    Raises InexactDivisionError on a nonzero row below t^t_power or a
    nonzero value at t = -1; `divide` raises it on a row it cannot divide."""
    if any(rows[:t_power]):
        raise InexactDivisionError("not divisible by the requested power of t")
    rows = rows[t_power:]
    for _ in range(t_power):
        rows, at_m1 = div_t1(rows)
        if at_m1:
            raise InexactDivisionError("not divisible by t + 1")
    return [divide(row) for row in rows]


def _laurent_core(pairs: Pairs, pref: LaurentPoly, den: LaurentPoly):
    """(tau, gamma_inner, alpha_core, assoc) over the Laurent ring."""
    ap = assoc_polys(pairs)
    den2 = den * den

    def peel(numerator: TPoly, t_power: int, divisor: LaurentPoly) -> TPoly:
        rows = numerator.scale(den2).coeffs
        return TPoly(_peel(rows, t_power, lambda c: c.exact_div(divisor)))

    gamma = gamma_of(ap)
    tau = peel(trace_poly(ap) - TPoly.one() * 2, 2, pref * pref)
    gamma_inner = peel(gamma - TPoly.one(), 1, pref)
    alpha_core = peel(ap.alpha - TPoly.one(), 1, pref)
    return tau, gamma_inner, alpha_core, ap


def _full_boxes(pairs: Pairs):
    """The boxes (A, g, n) of the x- and of the y-runs (wiggle._box) when
    the sums of subsets of the 2|e| reach every slot of both; None when a
    box has a slot no column term can reach, as with one large exponent
    among small ones, whose packed integers would be mostly zeros.  With r
    runs at most 2^r slots are reachable, so a larger box fails at once."""
    boxes = []
    for exps in ([a for a, _ in pairs if a], [b for _, b in pairs if b]):
        total, g, n = _box(exps)
        if n > 1 << len(exps):
            return None
        reach = 1
        for e in exps:
            reach |= reach << (2 * abs(e) // g)
        if reach != (1 << n) - 1:
            return None
        boxes.append((total, g, n))
    return boxes


def _packed_row_quotient(
    row: int, divisor: int, s: int, region: list[bool], bound: int
) -> list[int]:
    """row / divisor decoded into len(region) balanced s-byte slots
    (laurent._unpack_slots): the packed row division of _packed_core.

    Raises InexactDivisionError on a remainder, a quotient with no
    expansion in those slots, or a nonzero slot outside the region or
    above bound in absolute value; _packed_core proves that the division
    is then exact on the polynomials the rows stand for."""
    q, r = divmod(row, divisor)
    if r:
        raise InexactDivisionError("the prefactor left a remainder")
    try:
        coeffs = _unpack_slots(q, s, len(region))
    except OverflowError:
        raise InexactDivisionError("a quotient row overflows its slots") from None
    if any(c and (not inside or abs(c) > bound) for inside, c in zip(region, coeffs)):
        raise InexactDivisionError("a quotient coefficient is outside its box or bound")
    return coeffs


def _peel_slot(pairs: Pairs, nl: int, nm: int) -> tuple[int, int]:
    """(s, B) of _packed_core for the runs `pairs` and boxes of nl and nm
    slots: B bounds every coefficient of a quotient, and s is the least
    with 2^(8s-1) > v0 + 2^10 B."""
    u, v = _column_norms(pairs)
    norm = 2 * (u + v + 1)
    d = sum(1 for a, _ in pairs if a) + 1
    bound = prod(comb(x, x // 2) for x in (d, nl - 1, nm - 1)) * norm
    return ((norm + (bound << 10)).bit_length() + 8) // 8, bound


def _packed_core(pairs: Pairs, pref: LaurentPoly, den: LaurentPoly):
    """(tau, gamma_inner, alpha_core, assoc) for the runs `pairs` of a
    double commutator's cyclic word, its prefactor P = pref and monic
    monomial D = den, on packed integers; None when _full_boxes declines.

    The point.  Per variable, say lambda, let (A, g, n) = wiggle._box of
    the x-runs, and (B, g', n') that of the y-runs.  Times lambda^A mu^B,
    every column entry is a polynomial in L = lambda^g, M = mu^g' and t,
    of degree below n in L and n' in M.  At M = 2^(8s), L = 2^(8s n'),
    t = 2^(8s n n') each monomial has its own s-byte slot, so _column with
    the shift-count runs of wiggle._shift_runs gives alpha and beta there,
    and on the swapped runs sigma(alpha) and sigma(beta).  gamma, trace - 2,
    gamma - 1 and alpha - 1 are sums of those, the constant 1 standing at
    the slot of lambda^A mu^B.  That slot exists: the cyclic word of a
    double commutator has exponent sum 0 in x, so A is twice the sum of
    its positive x-exponents, a multiple of g.

    The peel.  Each of +-k, +-m occurs as an x-run and each of +-l, +-n as
    a y-run, so g divides 2k and 2m (g' divides 2l and 2n), and
    P = lambda^p mu^q P0, with (p, q) the lowest exponents of P and P0 a
    polynomial in L and M; as P is a product of four x^(2|e|) - 1, the
    constant term of P0 is +-1 and |P0|_1 = 16.  With N the numerator
    times lambda^A mu^B, i = 2 and j = 2 for tau, i = j = 1 otherwise, and
    F = t^i (t+1)^i P0^j,

        cofactor = lambda^(2dl - A - jp) mu^(2dm - B - jq) N / F,

    for D = lambda^dl mu^dm, the monomial being D^2 over lambda^A mu^B and
    P^j's.  Q = N / F is a polynomial: its lowest exponents are N's less
    F's, which are 0.  Its L-degree is at most n - 1 - j deg_L P0, and
    likewise in M: that is its region.  _peel and _packed_row_quotient
    find it from N's t-rows and P0 at the point.

    The slot.  (u, v) = wiggle._column_norms bound the l1 norms of alpha
    and beta, so v0 = 2(u + v + 1) bounds that of every numerator
    (trace - 2 = gamma + sigma(gamma) - 2).  An x-run raises the t-degree
    by at most 1 and gamma adds one more, so d = #x-runs + 1 bounds every
    t-degree.  Mahler measure is multiplicative, at least 1 on a nonzero
    integer polynomial and at most the l2 norm, so a factor Q of N has
    coefficients at most B = C(d, d/2) C(n-1, (n-1)/2) C(n'-1, (n'-1)/2) v0
    (Mignotte, "Some useful bounds", 1982).  |F|_1 <= 2^i 16^j <= 2^10,
    and s is the least with 2^(8s-1) > v0 + 2^10 B.

    Why no inexact division decodes silently.  N's coefficients are below
    2^(8s-1), so its t-rows come out of its packed integer exactly.  When
    the peel returns a decoded Q', its rows at the point times F equal
    N's rows at the point: t^i by zero rows, t + 1 by exact synthetic
    divisions over Z, P0^j by divisions without remainder.  Both N and F Q'
    have every row in the box (Q' lies in its region), with coefficients at
    most v0 and 2^10 B, so N - F Q' has coefficients below 2^(8s-1), and
    on such polynomials evaluation at the point is injective (the first
    nonzero slot of a difference would survive): F Q' = N.  A true Q
    passes every check: evaluation is a ring homomorphism, and Q lies in
    its region within bound B.
    """
    boxes = _full_boxes(pairs)
    if boxes is None:
        return None
    (al, gl, nl), (am, gm, nm) = boxes
    s, bound = _peel_slot(pairs, nl, nm)
    km = 8 * s
    kl = km * nm
    kt = kl * nl
    runs = _shift_runs(pairs, gl, kl, gm, km)
    column = lambda steps: _column(
        steps, operator.lshift, operator.add, operator.sub, lambda f: f << kt, 1, 0
    )
    alpha, beta = column(runs)
    alpha_s, beta_s = column(_swapped(runs))
    gamma = alpha + (beta << kt)
    one = 1 << (al // gl * kl + am // gm * km)

    def decode(rows: list[list[int]], el0: int, em0: int) -> TPoly:
        return TPoly([_from_terms(_slot_terms(r, nm, el0, em0, gl, gm)) for r in rows])

    def column_poly(packed: int) -> TPoly:
        return decode([_unpack_slots(r, s, nl * nm) for r in unpack(packed, kt)], -al, -am)

    p_terms = pref.terms()
    ls, ms = zip(*p_terms)
    pl, pm = min(ls), min(ms)
    p0 = sum(c << ((el - pl) // gl * kl + (em - pm) // gm * km) for (el, em), c in p_terms.items())
    ((dl, dm),) = den.terms()

    def peel(numerator: int, i: int, j: int) -> TPoly:
        top_l = nl - 1 - j * (max(ls) - pl) // gl
        top_m = nm - 1 - j * (max(ms) - pm) // gm
        region = [a <= top_l and b <= top_m for a in range(nl) for b in range(nm)]
        divisor = p0**j
        divide = lambda row: _packed_row_quotient(row, divisor, s, region, bound)
        rows = _peel(list(unpack(numerator, kt)), i, divide)
        return decode(rows, 2 * dl - al - j * pl, 2 * dm - am - j * pm)

    tau = peel(gamma + alpha_s + (beta_s << kt) - 2 * one, 2, 2)
    gamma_inner = peel(gamma - one, 1, 1)
    alpha_core = peel(alpha - one, 1, 1)
    return tau, gamma_inner, alpha_core, AssocPolys(column_poly(alpha), column_poly(beta), pairs)


def core_polys(params: DCParams) -> CorePolys:
    """Symbolic tau, gamma_inner and the alpha cofactor for a double commutator.

    The column recursion, trace - 2, gamma - 1, alpha - 1 and the peel run
    on one packed integer per polynomial (_packed_core, whose docstring
    proves every division checked).  When a run box has slots the runs
    cannot reach (_full_boxes), the same steps run over the Laurent ring:
    assoc_polys, then _peel.

    Raises TrivialWordError for trivial parameters and InexactDivisionError
    if any closed-form factor, t, t + 1 or P, fails to divide exactly
    (which would mean a bug, so it is never swallowed).
    """
    if params.is_trivial():
        raise TrivialWordError(f"{params.as_list()} gives the trivial word")
    pairs = as_pairs(params.cyclic_word())
    pref = prefactor_num(params)
    den = prefactor_den(params)
    cofactors = _packed_core(pairs, pref, den)
    if cofactors is None:
        cofactors = _laurent_core(pairs, pref, den)
    tau, gamma_inner, alpha_core, ap = cofactors
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
    hpoly: Optional[tuple[int, ...]]
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
            data["h"] = [str(c) for c in self.hpoly]
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
            hpoly=tuple(trim([int(c) for c in data["h"]])) if "h" in data else None,
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
        coprime_t_t1=bool(h[0]) and bool(div_t1(h)[1]),
        coprime_gamma_minus_1=zgcd(h, gamma_minus_1) == [1],
    )


def _stripped_squarefree(f: list[int]) -> tuple[list[int], int, int]:
    """The squarefree part of f != 0 with every factor t and t + 1 divided
    out, and the orders of f at 0 and -1."""
    at_0 = next(i for i, c in enumerate(f) if c)
    f, at_m1 = f[at_0:], 0
    while True:
        q, r = div_t1(f)
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
    return tuple(h), checks


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
    if cert.hpoly is None or len(cert.hpoly) < 2 or cert.lam0 is None or cert.mu0 is None:
        return CheckOutcome(valid=False, reason="missing h or specialization")
    if not cert.lam0 or not cert.mu0:
        return CheckOutcome(valid=False, reason="zero torus parameter")
    eff = cert.effective_params()
    if prefactor_num(eff).evaluate(cert.lam0, cert.mu0) == 0:
        return CheckOutcome(valid=False, reason="degenerate specialization")
    sa = specialized_assoc(eff.cyclic_word(), cert.lam0, cert.mu0)
    h = zprimitive(cert.hpoly)  # Gauss's lemma needs a primitive h
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
    det(u) = 1 on the nose.  Numeric witnesses carry t0 and u printed to
    precision_digits significant digits, and as residual a proven bound on
    |trace(u) - 2| and |det(u) - 1| at a rational point near t0.  Either
    way the modular certificate is the authoritative exactness statement.
    """

    params: DCParams
    lam0: Fraction
    mu0: Fraction
    minimal_poly: tuple[int, ...]
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
            "minimal_poly": [str(c) for c in self.minimal_poly],
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


def _wiggle_at(sa: SpecializedAssoc, points: list[tuple[int, int]], b: int):
    """The wiggle value at t0 = a / b for each Gaussian integer a = (re, im)
    in points, and b > 0: (E, one list per point of gamma, beta p,
    -sigma(beta) q, sigma(gamma), for p = 1 + t0 and q = -t0), each entry
    a Gaussian integer numerator over the common denominator E = |D| b^d,
    d the entries' top degree.

    Each entry is its polynomial f homogenized to degree d, evaluated by
    Horner as the sum of f_i a^i b^(d - i)."""
    polys = (
        sa.gamma_num,
        add(sa.beta_num, (0, *sa.beta_num)),
        (0, *sa.beta_sigma_num),
        sa.gamma_sigma_num,
    )
    d = max(map(len, polys)) - 1
    powers = [-1 if sa.den < 0 else 1]
    for _ in range(d):
        powers.append(powers[-1] * b)
    # highest degree first, with the sign that makes E positive
    homogenized = [
        [c * p for c, p in zip(reversed(f), powers[d + 1 - len(f) :])] for f in polys
    ]
    values = []
    for re, im in points:
        entries = []
        for f in homogenized:
            x = y = 0
            if im:
                for c in f:
                    x, y = x * re - y * im + c, x * im + y * re
            else:
                for c in f:
                    x = x * re + c
            entries.append((x, y))
        values.append(entries)
    return sa.den * powers[d], values


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ceil_abs(z: tuple[int, int], den: int, scale: int) -> int:
    """The least integer >= |z| scale / den, for a Gaussian integer z and
    positive den and scale."""
    if z[1]:
        norm = (z[0] * z[0] + z[1] * z[1]) * scale * scale
        r = isqrt(norm)
        r += r * r < norm
    else:
        r = abs(z[0]) * scale
    return -(-r // den)


_LOG10_2 = log10(2)


def _decimal(num: int, den: int, dps: int) -> str:
    """num / den, den > 0, as a decimal literal of dps >= 1 significant
    digits, trailing zeros kept.

    The first dps digits of the value are rounded half up on the next one;
    a carry out of 99...9 raises the exponent.  An exponent strictly
    between min(-(dps // 3), -5) and dps prints in fixed notation, any
    other as a mantissa with a signed exponent.
    """
    if not num:
        return "0.0"
    sign, num = ("-", -num) if num < 0 else ("", num)
    # the exponent e of the leading digit: num / den > 2^(nb - db - 1), so
    # this starts at or below e, and each pass that finds too many digits
    # raises it by one
    e = int((num.bit_length() - den.bit_length() - 1) * _LOG10_2) - 1
    while True:
        s = dps - e
        q = num * 10**s // den if s >= 0 else num // (den * 10**-s)
        if q < 10 ** (dps + 1):
            break
        e += 1
    digits, last = divmod(q, 10)
    if last >= 5:
        digits += 1
        if digits == 10**dps:
            digits, e = digits // 10, e + 1
    text = str(digits)
    if min(-(dps // 3), -5) < e < dps:
        if e < 0:
            return f"{sign}0.{'0' * (-e - 1)}{text}"
        return f"{sign}{text[: e + 1]}.{text[e + 1 :]}"
    return f"{sign}{text[0]}.{text[1:]}e{e:+d}"


def _witness_points(h: list[int], root: Optional[RealRoot], bits: int):
    """Three points lo, mid, hi within 2^-bits of the witness root, as
    Gaussian integer numerators over one denominator b > 0.

    The witness root is `root`, a real root of h, or, when it is None, the
    root of the quadratic h = a t^2 + b t + c below the real axis,
    (-b - i sqrt(d)) / 2a with d = 4ac - b^2 > 0, where
    isqrt(d 4^bits) <= sqrt(d) 2^bits < isqrt(d 4^bits) + 1.
    """
    if root is not None:
        r = root.refined(bits)
        return [(2 * r.lo, 0), (r.lo + r.hi, 0), (2 * r.hi, 0)], 1 << (r.k + 1)
    c, b, a = h
    s = isqrt((4 * a * c - b * b) << (2 * bits))
    re = -b << (bits + 1)
    return [(re, -2 * s), (re, -2 * s - 1), (re, -2 * s - 2)], a << (bits + 2)


def _numeric_approx(
    sa: SpecializedAssoc, h: list[int], root: Optional[RealRoot], digits: int, bits: int
):
    """(texts, residual) at the points of _witness_points(h, root, bits).

    texts is t0 and u printed to `digits` significant digits, t0 as a pair
    (re, im) and u as rows of pairs, or None when lo, mid and hi print
    differently.  residual is max(|trace(u) - 2|, |det(u) - 1|) at mid,
    rounded up to a multiple of 10^-(digits + 10).
    """
    points, b = _witness_points(h, root, bits)
    den, values = _wiggle_at(sa, points, b)
    fmt = lambda z, q: (_decimal(z[0], q, digits), _decimal(z[1], q, digits))
    texts = [
        (fmt(a, b), [[fmt(u[0], den), fmt(u[1], den)], [fmt(u[2], den), fmt(u[3], den)]])
        for a, u in zip(points, values)
    ]
    g, bp, bq, gs = values[1]
    trace = (g[0] + gs[0] - 2 * den, g[1] + gs[1])
    x, y = _times(g, gs), _times(bp, bq)
    det = (x[0] - y[0] - den * den, x[1] - y[1])
    scale = 10 ** (digits + 10)
    residual = Fraction(
        max(_ceil_abs(trace, den, scale), _ceil_abs(det, den * den, scale)), scale
    )
    return (texts[1] if texts[0] == texts[1] == texts[2] else None), residual


def _unipotent_not_identity(u11: int, u12: int, u21: int, u22: int, den: int) -> bool:
    """Whether the matrix ((u11, u12), (u21, u22)) / den has trace 2 and
    determinant 1 and is not the identity."""
    return (
        u11 + u22 == 2 * den
        and u11 * u22 - u12 * u21 == den * den
        and (u11, u12, u21) != (den, 0, 0)
    )


# widths tried for a numeric witness: the first, then four doublings
_WITNESS_DOUBLINGS = 5


def build_witness(cert: Certificate, precision_digits: int = 64) -> Witness:
    """Turn a certificate into an explicit unipotent witness.

    A rational root r = u/v of h (of degree <= 3), the largest if there
    are several, gives the factor h1 = v t - u and a fully exact witness.
    rational_roots finds it by arithmetic: a linear or quadratic h needs no
    root location, and a cubic needs it only when no small prime proves
    that it has no rational root.  Otherwise h is irreducible and h1 = h.
    Either way the facts trace - 2 = 0 and beta * sigma(beta) invertible
    are certified in Q[t]/(h1), by exact division and pseudo-remainders in
    Z[t].  Without a rational root, the witness point is the smallest real
    root of h1, isolated only now, or, for an h1 without real roots (a
    quadratic), its root below the real axis.  That root is bracketed to
    about digits log2(10) + 64 bits, doubled until t0 and u print the same
    at both ends and the middle of the bracket and the residual at the
    middle is at most 10^-(digits - 14).  All of it is integer arithmetic.
    """
    if not cert.certified:
        raise ValueError("witness construction needs a certified certificate")
    if not 2 <= len(cert.hpoly) <= 4:
        raise ValueError("witnesses need a certificate h of degree 1 to 3")
    eff = cert.effective_params()
    rational = rational_roots(cert.hpoly)
    t0 = rational[-1] if rational else None
    h1 = [-t0.numerator, t0.denominator] if rational else zprimitive(cert.hpoly)
    if h1[-1] < 0:  # a certificate read from JSON may hold -h
        h1 = [-c for c in h1]
    sa = specialized_assoc(eff.cyclic_word(), cert.lam0, cert.mu0)
    beta_prod = mul(zprem(sa.beta_num, h1), zprem(sa.beta_sigma_num, h1), 0)
    modular = ModularCertificate(
        trace_minus_2_divisible=zexact_div(_minus_2_and_1(sa)[0], h1) is not None,
        beta_product_invertible=zgcd(h1, beta_prod) == [1],
    )
    if not modular.all_ok:
        raise AssertionError("modular certificate failed; certificate unsound")
    common = dict(
        params=cert.params, lam0=cert.lam0, mu0=cert.mu0, minimal_poly=tuple(h1), modular=modular
    )

    if t0 is None:
        target = Fraction(1, 10 ** max(precision_digits - 14, 1))
        bits = int(precision_digits * log2(10)) + 64
        roots = real_roots(cert.hpoly)
        for _ in range(_WITNESS_DOUBLINGS):
            texts, residual = _numeric_approx(
                sa, h1, roots[0] if roots else None, precision_digits, bits
            )
            if texts is not None and residual <= target:
                return Witness(
                    **common,
                    exact=False,
                    residual=residual,
                    t0_approx=texts[0],
                    u_approx=texts[1],
                    precision_digits=precision_digits,
                )
            bits *= 2
        raise PrecisionExhaustedError(
            f"t0 and u did not print stably to {precision_digits} digits with residual"
            f" at most {target} within {bits // 2} bits"
        )
    den, (u,) = _wiggle_at(sa, [(t0.numerator, 0)], t0.denominator)
    u11, u12, u21, u22 = (x for x, _ in u)
    if not _unipotent_not_identity(u11, u12, u21, u22, den):
        raise AssertionError("exact witness failed its defining identities")
    return Witness(
        **common,
        exact=True,
        residual=Fraction(0),
        t0=t0,
        g=mat2_q(1, 1, t0, 1 + t0),
        u=Mat2(*(Fraction(x, den) for x in (u11, u12, u21, u22))),
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
