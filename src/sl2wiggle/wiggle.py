"""Normal form of the wiggle map g -> w(x, y^g) for diagonal x, y.

For every word w there are unique polynomials alpha(t), beta(t) over the
Laurent ring such that the value of the wiggle at g equals

    ((gamma(t),            beta(t) * p),
     (-sigma(beta)(t) * q, sigma(gamma)(t)))    at t = det(xi_g),

where gamma = alpha + beta*t and xi_g = ((t, p), (q, -t)).  The pair
(alpha, beta) is the first column of a product of elementary transfer
matrices, one per x-run or y-run of the word, which is how everything
here is computed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import NotUnimodularError, ZeroParameterError
from .exact.laurent import LaurentPoly
from .exact.mat2 import Mat2, identity_q, xi_of
from .exact.polycore import add, scale
from .exact.tpoly import TPoly
from .words import (
    CyclicForm,
    Gen,
    GeneratorPower,
    ReducedCyclic,
    Trivial,
    Word,
    word_to_pairs,
)

Pairs = tuple[tuple[int, int], ...]
WordLike = Union[Word, CyclicForm, Sequence[tuple[int, int]]]


@dataclass(frozen=True)
class AssocPolys:
    """Associated polynomials of a word, plus the run decomposition that
    produced them (kept so the structural identities can be re-derived)."""

    alpha: TPoly
    beta: TPoly
    pairs: Pairs

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "pairs": [list(p) for p in self.pairs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AssocPolys":
        return cls(
            alpha=TPoly.from_json(data["alpha"]),
            beta=TPoly.from_json(data["beta"]),
            pairs=tuple((int(a), int(b)) for a, b in data.get("pairs", [])),
        )


@dataclass(frozen=True)
class WiggleValue:
    matrix: Mat2[Fraction]
    t_value: Fraction


@dataclass(frozen=True)
class IdentityReport:
    det_identity_ok: bool
    sigma_symmetry_ok: bool
    bezout_ok: bool

    @property
    def ok(self) -> bool:
        return self.det_identity_ok and self.sigma_symmetry_ok and self.bezout_ok

    @property
    def failures(self) -> tuple[str, ...]:
        names = []
        if not self.det_identity_ok:
            names.append("determinant identity gamma*sigma(gamma) - beta*sigma(beta)*t(t+1) = 1")
        if not self.sigma_symmetry_ok:
            names.append("sigma symmetry of (alpha, beta) under parameter inversion")
        if not self.bezout_ok:
            names.append("transfer-matrix determinant 1 (Bezout witness)")
        return tuple(names)


# ----------------------------------------------------------------------
# transfer matrices


def _steps(invert_params: bool) -> tuple[Mat2[TPoly], Mat2[TPoly]]:
    """Transfer matrices of x and y; their powers are the run matrices."""
    lam = LaurentPoly.lam(-1 if invert_params else 1)
    mu = LaurentPoly.mu(-1 if invert_params else 1)
    lam_inv, mu_inv = lam.unit_inverse(), mu.unit_inverse()
    zero = TPoly.zero()
    x_step = Mat2(TPoly.const(lam), TPoly([0, lam - lam_inv]), zero, TPoly.const(lam_inv))
    y_step = Mat2(TPoly.const(mu), zero, TPoly.const(mu - mu_inv), TPoly.const(mu_inv))
    return x_step, y_step


_T_IDENTITY = Mat2(TPoly.one(), TPoly.zero(), TPoly.zero(), TPoly.one())


def as_pairs(w: WordLike) -> Pairs:
    if isinstance(w, Word):
        return word_to_pairs(w)
    if isinstance(w, Trivial):
        return ()
    if isinstance(w, GeneratorPower):
        return ((w.exp, 0),) if w.gen is Gen.X else ((0, w.exp),)
    if isinstance(w, ReducedCyclic):
        return w.pairs
    return tuple((int(a), int(b)) for a, b in w)


def transfer_matrix(w: WordLike, invert_params: bool = False) -> Mat2[TPoly]:
    """Product of per-run transfer matrices, applied rightmost run first;
    the identity checks and the tests' reference for the column recursion."""
    x_step, y_step = _steps(invert_params)
    m = _T_IDENTITY
    for a, b in as_pairs(w):
        m = y_step.pow_det1(b, _T_IDENTITY) * x_step.pow_det1(a, _T_IDENTITY) * m
    return m


def _runs(pairs: Pairs, x_pow, y_pow) -> list[tuple[bool, object, object]]:
    """The steps (is_x, U, V) of a run list, one per nonzero exponent e:
    (U, V) = x_pow(e) resp. y_pow(e) for e > 0, and (V, U) of -e for e < 0."""
    runs = []
    for a, b in pairs:
        for is_x, e, pow_uv in ((True, a, x_pow), (False, b, y_pow)):
            if e:
                u, v = pow_uv(abs(e))
                runs.append((is_x, u, v) if e > 0 else (is_x, v, u))
    return runs


def _first_column(runs, scale, add, times_t, one, zero):
    """First column (alpha, beta) of the transfer product, in closed form.

    Each step (is_x, U, V) of `runs` has U/V = lambda^2a resp. mu^2b; up to
    the scalar sqrt(UV) the runs act by

        x^a:  alpha <- U*alpha + (U - V)*t*beta,   beta <- V*beta
        y^b:  alpha <- U*alpha,   beta <- (U - V)*alpha + V*beta.

    The caller supplies the column arithmetic: scale(f, c), add(f, g) and
    times_t(f) on coefficient lists over the Laurent ring (U, V = lambda^a,
    lambda^-a, scalar 1), or on one integer standing for a polynomial in
    Z[t] evaluated at t = 2^K (U, V = P^2, Q^2 for lambda^a = P/Q, scalar PQ).
    """
    alpha, beta = one, zero
    for is_x, u, v in runs:
        if is_x:
            alpha = add(scale(alpha, u), scale(times_t(beta), u - v))
            beta = scale(beta, v)
        else:
            beta = add(scale(alpha, u - v), scale(beta, v))
            alpha = scale(alpha, u)
    return alpha, beta


def assoc_polys(w: WordLike) -> AssocPolys:
    """Compute (alpha, beta) for a word, cyclic form or explicit run list."""
    pairs = as_pairs(w)
    lam, mu = LaurentPoly.lam, LaurentPoly.mu
    runs = _runs(pairs, lambda e: (lam(e), lam(-e)), lambda e: (mu(e), mu(-e)))
    zero = LaurentPoly.zero()
    alpha, beta = _first_column(runs, scale, add, lambda f: [zero] + f, [LaurentPoly.one()], [])
    return AssocPolys(alpha=TPoly(alpha), beta=TPoly(beta), pairs=pairs)


def gamma_of(ap: AssocPolys) -> TPoly:
    """gamma = alpha + beta * t, the (1,1) entry of the wiggle value."""
    return ap.alpha + ap.beta * TPoly.t()


def trace_poly(ap: AssocPolys) -> TPoly:
    """Trace of the wiggle value as a polynomial in t: gamma + sigma(gamma)."""
    g = gamma_of(ap)
    return g + g.sigma()


# ----------------------------------------------------------------------
# evaluation


def word_value(w: Word, xm: Mat2, ym: Mat2, identity: Mat2) -> Mat2:
    """Substitute matrices for the generators and multiply out the word."""
    gens = {Gen.X: xm, Gen.Y: ym}
    value = identity
    for s in w.syllables:
        value = value * gens[s.gen].pow_det1(s.exp, identity)
    return value


def _check_specialization(lam0: Fraction, mu0: Fraction):
    if lam0 == 0 or mu0 == 0:
        raise ZeroParameterError("torus parameters must be nonzero")


def _check_unimodular(g: Mat2[Fraction]):
    if g.det() != 1:
        raise NotUnimodularError("g must have determinant 1")


def eval_direct(w: Word, lam0, mu0, g: Mat2[Fraction]) -> Mat2[Fraction]:
    """Brute-force value w(x, g^-1 y g) with x, y the diagonal matrices."""
    lam0, mu0 = Fraction(lam0), Fraction(mu0)
    _check_specialization(lam0, mu0)
    _check_unimodular(g)
    xm = Mat2(lam0, Fraction(0), Fraction(0), 1 / lam0)
    ym = Mat2(mu0, Fraction(0), Fraction(0), 1 / mu0)
    y_conj = g.inv_det1() * ym * g
    return word_value(w, xm, y_conj, identity_q())


def eval_normal_form(ap: AssocPolys, lam0, mu0, g: Mat2[Fraction]) -> WiggleValue:
    """Assemble the wiggle value from (alpha, beta) at t = det(xi_g)."""
    lam0, mu0 = Fraction(lam0), Fraction(mu0)
    _check_specialization(lam0, mu0)
    _check_unimodular(g)
    xi = xi_of(g)
    t0 = xi.det()
    p, q = xi.e12, xi.e21
    gamma = gamma_of(ap)
    beta = ap.beta
    g11 = gamma.specialize(lam0, mu0).evaluate(t0)
    g22 = gamma.sigma().specialize(lam0, mu0).evaluate(t0)
    b12 = beta.specialize(lam0, mu0).evaluate(t0) * p
    b21 = -beta.sigma().specialize(lam0, mu0).evaluate(t0) * q
    matrix = Mat2(g11, b12, b21, g22)
    if matrix.det() != 1:
        raise AssertionError("normal-form value must have determinant 1")
    return WiggleValue(matrix=matrix, t_value=t0)


@dataclass(frozen=True)
class SpecializedAssoc:
    """beta, gamma = alpha + beta*t, their sigma-partners and the trace, all
    at a fixed rational (lam, mu), each as an integer numerator in Z[t]
    over the shared denominator `den` (alpha is gamma - t*beta)."""

    lam0: Fraction
    mu0: Fraction
    den: int
    beta_num: tuple[int, ...]
    beta_sigma_num: tuple[int, ...]
    gamma_num: tuple[int, ...]
    gamma_sigma_num: tuple[int, ...]
    trace_num: tuple[int, ...]


def _unpack(packed: int, k: int) -> tuple[int, ...]:
    """The coefficients of f in Z[t] from f(2^k), each below 2^(k-1) in
    absolute value: balanced slots, a slot >= 2^(k-1) borrows from the next."""
    mask, half, coeffs = (1 << k) - 1, 1 << (k - 1), []
    while packed:
        c = packed & mask
        packed >>= k
        if c >= half:
            c -= 1 << k
            packed += 1
        coeffs.append(c)
    return tuple(coeffs)


def specialized_assoc(w: WordLike, lam0, mu0) -> SpecializedAssoc:
    """Run the column recursion over Z[t] at (lam0, mu0) = (p/q, r/s).

    The integer column is D times the true one, D = (pq)^sum|a| (rs)^sum|b|;
    inverting the parameters (U and V swapped, same D) gives the sigma-partners.
    Each entry is one integer, its polynomial at t = 2^K: a run multiplies the
    column's l1 norm by at most 2 max(U, V), gamma and the trace add two bits,
    and a sign bit makes every coefficient fit a balanced K-bit slot.
    """
    lam0, mu0 = Fraction(lam0), Fraction(mu0)
    _check_specialization(lam0, mu0)
    pairs = as_pairs(w)
    p, q = lam0.numerator, lam0.denominator
    r, s = mu0.numerator, mu0.denominator
    runs = _runs(
        pairs, lambda e: (p ** (2 * e), q ** (2 * e)), lambda e: (r ** (2 * e), s ** (2 * e))
    )
    k = 3 + sum(max(u, v).bit_length() + 1 for _, u, v in runs)
    column = lambda steps: _first_column(steps, operator.mul, operator.add, lambda f: f << k, 1, 0)
    alpha, beta = column(runs)
    alpha_s, beta_s = column([(is_x, v, u) for is_x, u, v in runs])
    gamma, gamma_s = alpha + (beta << k), alpha_s + (beta_s << k)
    packed = (beta, beta_s, gamma, gamma_s, gamma + gamma_s)
    den = (p * q) ** sum(abs(a) for a, _ in pairs) * (r * s) ** sum(abs(b) for _, b in pairs)
    return SpecializedAssoc(lam0, mu0, den, *(_unpack(f, k) for f in packed))


# ----------------------------------------------------------------------
# structural identities


def verify_identities(ap: AssocPolys) -> IdentityReport:
    """Check the three structural identities of the normal form symbolically.

    Failures indicate an implementation bug, never bad input, so the
    report names the violated identity instead of raising.
    """
    gamma = gamma_of(ap)
    t_t1 = TPoly.t() * (TPoly.t() + TPoly.one())
    det_ok = gamma * gamma.sigma() - ap.beta * ap.beta.sigma() * t_t1 == TPoly.one()

    # At the scalar level the parameter-inverted system computes exactly
    # the sigma-substituted pair (sigma applied to each coefficient).
    m_inv = transfer_matrix(ap.pairs, invert_params=True)
    sigma_ok = m_inv.e11 == ap.alpha.sigma() and m_inv.e21 == ap.beta.sigma()

    m = transfer_matrix(ap.pairs)
    bezout_ok = m.det() == TPoly.one()

    return IdentityReport(
        det_identity_ok=det_ok,
        sigma_symmetry_ok=sigma_ok,
        bezout_ok=bezout_ok,
    )
