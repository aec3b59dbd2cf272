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
roots and the roots shared with gamma_inner removed.  The tables, and
alpha and beta, are universal polynomials in lambda^k, lambda^m, mu^l and
mu^n, read once from the Laurent-ring peel at one generic tuple;
core_polys substitutes a tuple's powers into them.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt, log2, log10
from typing import Optional

from .errors import InexactDivisionError, PrecisionExhaustedError, TrivialWordError
from .exact.laurent import LaurentPoly, _from_terms
from .exact.mat2 import Mat2, mat2_q
from .exact.polycore import add, div_t1, trim
from .exact.qpoly import (
    RealRoot,
    rational_roots,
    real_roots,
    zderivative,
    zexact_div,
    zgcd,
    zprimitive,
)
from .exact.tpoly import TPoly
from .wiggle import (
    AssocPolys,
    Pairs,
    SpecializedAssoc,
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

    def cyclic_pairs(self) -> Pairs:
        """The cyclic conjugate's run pairs, which every attempt and check runs."""
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

    tau: TPoly
    gamma_inner: TPoly
    alpha_core: TPoly
    assoc: AssocPolys


def _peel(f: TPoly, t_power: int, divisor: LaurentPoly) -> TPoly:
    """f divided by t^t_power (t+1)^t_power and by divisor: t_power rows
    dropped, then t_power synthetic divisions by t + 1 (polycore.div_t1)
    of the Laurent rows, then an exact LaurentPoly division of each row.
    Raises InexactDivisionError on a nonzero row below t^t_power, a
    nonzero value at t = -1 or a row that divisor does not divide."""
    rows = f.coeffs
    if any(rows[:t_power]):
        raise InexactDivisionError("not divisible by the requested power of t")
    rows = rows[t_power:]
    for _ in range(t_power):
        rows, at_m1 = div_t1(rows)
        if at_m1:
            raise InexactDivisionError("not divisible by t + 1")
    return TPoly([row.exact_div(divisor) for row in rows])


def _laurent_core(params: DCParams) -> tuple[TPoly, TPoly, TPoly, AssocPolys]:
    """(tau, gamma_inner, alpha_core, assoc) of params over the Laurent
    ring: assoc_polys, then each numerator, times D^2, through _peel with
    one exact LaurentPoly division by P^j per coefficient."""
    ap = assoc_polys(params.cyclic_pairs())
    pref = prefactor_num(params)
    den = prefactor_den(params)
    den2 = den * den
    tau = _peel((trace_poly(ap) - TPoly.one() * 2).scale(den2), 2, pref * pref)
    gamma_inner = _peel((gamma_of(ap) - TPoly.one()).scale(den2), 1, pref)
    alpha_core = _peel((ap.alpha - TPoly.one()).scale(den2), 1, pref)
    return tau, gamma_inner, alpha_core, ap


# the tuple whose tables _universal_tables reads: lambda^k, lambda^m, mu^l
# and mu^n are lambda, lambda^16, mu and mu^16
_GENERIC = DCParams(1, 1, 16, 16)

# exponent pairs of (a, b) or of (c, d), and per power of t the terms
# (index of the (a, b) pair, of the (c, d) pair, coefficient)
_ExpPairs = tuple[tuple[int, int], ...]
_Table = tuple[tuple[tuple[int, int, int], ...], ...]


@cache
def _universal_tables() -> tuple[_ExpPairs, _ExpPairs, tuple[_Table, ...]]:
    """tau, gamma_inner, alpha_core, alpha and beta in
    Z[a^+-1, b^+-1, c^+-1, d^+-1][t], with a, b, c, d standing for
    lambda^k, lambda^m, mu^l and mu^n: the exponent pairs of (a, b) and
    of (c, d) that occur, and the tables' terms.

    Substituting a tuple p, phi_p, is a ring homomorphism of that ring,
    and it maps the transfer product of the 14 runs of
    double_commutator_cyclic, whose scalars are monomials in a, b, c, d
    (x^(m-k) scales by b/a), to p's: a run of exponent 0 is the identity,
    and adjacent runs of one generator multiply to the merged run.  So it
    maps alpha and beta to p's, each numerator N (delta^2 times trace - 2,
    gamma - 1 or alpha - 1, delta = (abcd)^2 = prefactor_den) to p's, and
    P = (a^2 - 1)(b^2 - 1)(c^2 - 1)(d^2 - 1) to p's prefactor, which is
    nonzero; a quotient in a domain is unique, so the table
    Q = N / (t^i (t+1)^i P^j) maps to p's.  Each variable is held by four
    runs, each of which scales a term by it or its inverse, so alpha, beta
    and the numerators before delta^2 have exponents in [-4, 4] in each
    variable, and N in [0, 8].  In each variable P^j spans [0, 2j], and
    the lowest and the highest exponents of a product are sums, so Q spans
    at most [0, 8 - 2j].  phi at _GENERIC sends a^a' b^b' c^c' d^d' to
    lambda^(a' + 16 b') mu^(c' + 16 d'), injective for exponents in
    [-4, 12): an exponent e of its tables (_laurent_core) decodes by
    divmod(e + 68, 16), less 4 in each place.  Each decoded exponent is
    checked to lie in its table's span.
    """
    tau, gamma_inner, alpha_core, ap = _laurent_core(_GENERIC)
    polys = (tau, gamma_inner, alpha_core, ap.alpha, ap.beta)
    spans = ((0, 4), (0, 6), (0, 6), (-4, 4), (-4, 4))
    split = lambda e: ((e + 68) % 16 - 4, (e + 68) // 16 - 4)
    ab: dict[tuple[int, int], int] = {}
    cd: dict[tuple[int, int], int] = {}
    tables = []
    for poly, (low, high) in zip(polys, spans):
        rows = []
        for row in poly.coeffs:
            terms = []
            for (el, em), coeff in row.terms().items():
                exps = split(el) + split(em)
                if not all(low <= e <= high for e in exps):
                    raise AssertionError(f"universal table exponents {exps} out of range")
                i = ab.setdefault(exps[:2], len(ab))
                j = cd.setdefault(exps[2:], len(cd))
                terms.append((i, j, coeff))
            rows.append(tuple(terms))
        tables.append(tuple(rows))
    return tuple(ab), tuple(cd), tuple(tables)


def _substituted(table: _Table, index: list[list[int]], exps: list[tuple[int, int]]) -> TPoly:
    """A table of _universal_tables at a tuple: the term of the (a, b) pair
    i and the (c, d) pair j goes to the exponent pair exps[index[i][j]]."""
    rows = []
    for row in table:
        sums: dict[int, int] = {}
        for i, j, coeff in row:
            k = index[i][j]
            sums[k] = sums.get(k, 0) + coeff
        rows.append(_from_terms({exps[k]: c for k, c in sums.items() if c}))
    return TPoly(rows)


def core_polys(params: DCParams) -> CorePolys:
    """Symbolic tau, gamma_inner and the alpha cofactor for a double commutator.

    They and the assoc polys are universal tables (_universal_tables,
    whose docstring proves the substitution, built once per process) at
    the tuple's lambda^k, lambda^m, mu^l and mu^n.  The exponents are
    looked up once per tuple: each (a, b) pair's exponent of lambda and
    each (c, d) pair's exponent of mu is numbered among the distinct ones,
    which gives every pair of pairs the index of its (lambda, mu) exponent
    pair.  _substituted sums a row's coefficients by that int index and
    maps the indices to exponent pairs at the end.

    Raises TrivialWordError for trivial parameters.  Building the tables
    raises InexactDivisionError if any closed-form factor, t, t + 1 or P,
    fails to divide exactly (which would mean a bug, so it is never
    swallowed).
    """
    if params.is_trivial():
        raise TrivialWordError(f"{params.as_list()} gives the trivial word")
    ab, cd, tables = _universal_tables()
    # the exponents of lambda and of mu, each distinct one numbered
    els: dict[int, int] = {}
    ems: dict[int, int] = {}
    mu_at = [ems.setdefault(c * params.l + d * params.n, len(ems)) for c, d in cd]
    lam_at = [els.setdefault(a * params.k + b * params.m, len(els)) for a, b in ab]
    index = [[i * len(ems) + j for j in mu_at] for i in lam_at]
    exps = [(el, em) for el in els for em in ems]
    tau, gamma_inner, alpha_core, alpha, beta = (_substituted(t, index, exps) for t in tables)
    return CorePolys(tau, gamma_inner, alpha_core, AssocPolys(alpha, beta, params.cyclic_pairs()))


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
    trace = add(sa.gamma_num, sa.gamma_sigma_num)
    return add(trace, [-2 * sa.den]), add(sa.gamma_num, [-sa.den])


def _check_record(h: list[int], trace_minus_2, gamma_minus_1) -> CheckRecord:
    """The three facts for a primitive integer h, against D (trace - 2)
    and D (gamma - 1) in Z[t], where exact division decides divisibility."""
    return CheckRecord(
        divides_trace_minus_2=zexact_div(trace_minus_2, h) is not None,
        coprime_t_t1=bool(h[0]) and bool(div_t1(h)[1]),
        coprime_gamma_minus_1=zgcd(h, gamma_minus_1) == [1],
    )


def _stripped_squarefree(f: list[int]) -> tuple[list[int], int, int]:
    """The primitive squarefree part of f != 0 with every factor t and
    t + 1 divided out, and the orders of f at 0 and -1.

    The content goes first, so the t + 1 divisions and the gcd run on the
    primitive part; t + 1 and gcd(f, f') are primitive, so each quotient
    stays primitive (Gauss's lemma), and gcd(f, f') = 1 needs no division."""
    at_0 = next(i for i, c in enumerate(f) if c)
    f, at_m1 = zprimitive(f[at_0:]), 0
    while True:
        q, r = div_t1(f)
        if r:
            break
        f, at_m1 = q, at_m1 + 1
    d = zgcd(f, zderivative(f))
    return (f if d == [1] else zexact_div(f, d)), at_0, at_m1


def _attempt(params: DCParams, runs: Pairs, lam0: Fraction, mu0: Fraction):
    """One specialization attempt on the runs of params' cyclic word;
    returns (h, checks) or None to resample.

    Works in Z[t] on T = D (trace - 2) and G = D (gamma - 1) throughout,
    on primitive parts: s, the primitive squarefree part of T without the
    roots 0 and -1, and prim(G).  A constant factor changes neither
    divisibility by a primitive polynomial nor coprimality.

    The draw is rejected, by one exact division, when s divides G: every
    root of s is simple, so s | G exactly when every root of s is a root of
    gamma - 1, and then gcd(s, G) = s leaves h constant.  Otherwise h is
    s / gcd(s, G), primitive as a quotient of primitive polynomials
    (Gauss's lemma), and s itself when the gcd is 1."""
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
    g = zprimitive(gamma_minus_1)
    if zexact_div(g, s) is not None:
        return None
    common = zgcd(s, g)
    h = s if common == [1] else zexact_div(s, common)
    if h[-1] < 0:
        h = [-c for c in h]
    checks = _check_record(h, trace_minus_2, g)
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
        runs = phase_params.cyclic_pairs()
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
    sa = specialized_assoc(eff.cyclic_pairs(), cert.lam0, cert.mu0)
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
    are certified in Q[t]/(h1), by exact division and gcds in Z[t].
    Without a rational root, the witness point is the smallest real root
    of h1, isolated only now, or, for an h1 without real roots (a
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
    sa = specialized_assoc(eff.cyclic_pairs(), cert.lam0, cert.mu0)
    modular = ModularCertificate(
        trace_minus_2_divisible=zexact_div(_minus_2_and_1(sa)[0], h1) is not None,
        # coprime to a product in Q[t] exactly when coprime to each factor
        beta_product_invertible=zgcd(h1, sa.beta_num) == [1] == zgcd(h1, sa.beta_sigma_num),
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
