"""Normal form of the wiggle map g -> w(x, y^g) for diagonal x, y.

For every word w there are unique polynomials alpha(t), beta(t) over the
Laurent ring such that the value of the wiggle at g equals

    ((gamma(t),            beta(t) * p),
     (-sigma(beta)(t) * q, sigma(gamma)(t)))    at t = det(xi_g),

where gamma = alpha + beta*t and xi_g = ((t, p), (q, -t)).  The pair
(alpha, beta) is the first column of a product of elementary transfer
matrices, one per x-run or y-run of the word, which is how everything
here is computed: one loop, _column, applies that product, or its
adjugate (the swapped runs in reverse order), to a column of TPolys
over the Laurent ring or of integers.  verify_identities checks the
normal form's three identities, each as two big-integer equations, with
(t, lambda, mu) sent to powers of one slot variable X taken at X = 2^b
and at X = -2^b, and falls back to TPoly arithmetic when the packed box
would be mostly empty.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .errors import NotUnimodularError, ZeroParameterError
from .exact.laurent import LaurentPoly
from .exact.mat2 import Mat2, identity_q, xi_of
from .exact.polycore import unpack
from .exact.tpoly import TPoly
from .words import Pairs, Word

WordLike = Union[Word, Sequence[tuple[int, int]]]


@dataclass(frozen=True)
class AssocPolys:
    """Associated polynomials of a word, plus the run decomposition that
    produced them (kept so the structural identities can be re-derived)."""

    alpha: TPoly
    beta: TPoly
    pairs: Pairs


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
# the column recursion


def as_pairs(w: WordLike) -> Pairs:
    """A word's run pairs, or a run list such as cyclic_reduce's as int pairs."""
    if isinstance(w, Word):
        return w.pairs
    return tuple((int(a), int(b)) for a, b in w)


def _runs(pairs: Pairs, x_pow, y_pow) -> tuple[list[tuple[bool, object, object]], dict]:
    """The steps (is_x, U, V) of a run list, one per nonzero exponent e:
    (U, V) = x_pow(e) resp. y_pow(e) for e > 0, and (V, U) of -e for e < 0.

    Each power is taken once per variable and |e|; the second value maps
    (is_x, |e|) to [(U, V), the number of runs with that exponent]."""
    runs, powers = [], {}
    for a, b in pairs:
        for is_x, e, pow_uv in ((True, a, x_pow), (False, b, y_pow)):
            if e:
                n = abs(e)
                entry = powers.get((is_x, n))
                if entry is None:
                    entry = powers[is_x, n] = [pow_uv(n), 0]
                entry[1] += 1
                u, v = entry[0]
                runs.append((is_x, u, v) if e > 0 else (is_x, v, u))
    return runs, powers


def _swapped(runs):
    """The runs with U and V swapped: the same word at inverted parameters."""
    return [(is_x, v, u) for is_x, u, v in runs]


def _column(runs, scale, times_t, top, bottom):
    """The product of the runs' matrices applied to the column (top, bottom),
    in closed form: (1, 0) gives the first column (alpha, beta) of the
    transfer product.

    Each step (is_x, U, V) of `runs` has U/V = lambda^2a resp. mu^2b; up to
    the scalar sqrt(UV) the runs act by

        x^a:  alpha <- U*(alpha + t*beta) - V*t*beta,   beta <- V*beta
        y^b:  alpha <- U*alpha,   beta <- U*alpha + V*(beta - alpha),

    that is by the matrices X(U, V) = ((U, (U - V) t), (0, V)) and
    Y(U, V) = ((U, 0), (U - V, V)) of determinant UV, whose adjugates are
    X(V, U) and Y(V, U): the swapped runs in reverse order apply the
    adjugate of the product.  A run scales twice, by U and by V, and never
    by U - V.

    The operands are TPolys or ints, added and subtracted by their own +
    and - (a list operand would be concatenated without an error).  The
    caller supplies scale(f, c) and times_t(f): TPoly.scale and
    TPoly.times_t over the Laurent ring (U, V = lambda^a, lambda^-a,
    scalar 1), or, for one integer standing for a polynomial evaluated at
    a point of powers of two, * (U, V = P^2, Q^2 for lambda^a = P/Q,
    scalar PQ) or << of shift counts, and a left shift for t.
    """
    alpha, beta = top, bottom
    for is_x, u, v in runs:
        if is_x:
            beta_v = scale(beta, v)
            alpha = scale(alpha + times_t(beta), u) - times_t(beta_v)
            beta = beta_v
        else:
            alpha_u = scale(alpha, u)
            beta = alpha_u + scale(beta - alpha, v)
            alpha = alpha_u
    return alpha, beta


def _box(exps: Sequence[int]) -> tuple[int, int, int]:
    """(A, g, n) for the nonzero exponents e of one variable's runs, A =
    sum|e| and g = gcd(2|e|).  Each run scales a term by lambda^e or
    lambda^-e, so an exponent of a column entry is -A plus a sum of some
    2|e|: times lambda^A it lies in [0, 2A] on the stride g, one of the
    n = 2A/g + 1 slots of the box."""
    total = sum(map(abs, exps))
    g = gcd(*[2 * e for e in exps]) or 1
    return total, g, 2 * total // g + 1


def _shift_runs(pairs: Pairs, gl: int, nm: int, gm: int, power):
    """The runs at lambda^gl = X^nm, mu^gm = X, each scalar X^j as the
    shift count power(j) of _signed_shift: a run scales by
    lambda^(|e| + e) or lambda^(|e| - e), so the column comes out times
    lambda^A mu^B, in the boxes of _box."""
    x_pow, y_pow = lambda e: (power(2 * e // gl * nm), 0), lambda e: (power(2 * e // gm), 0)
    return _runs(pairs, x_pow, y_pow)[0]


def _column_norms(pairs: Pairs) -> tuple[int, int]:
    """Bounds (u, v) on the l1 norms of the two entries of any column of the
    transfer product, from (1, 1): a run scales by monomials, so it maps
    them to at most (u + 2v, v) for x and (u, 2u + v) for y."""
    u = v = 1
    for a, b in pairs:
        if a:
            u += 2 * v
        if b:
            v += 2 * u
    return u, v


def _laurent_runs(pairs: Pairs) -> list[tuple[bool, LaurentPoly, LaurentPoly]]:
    lam, mu = LaurentPoly.lam, LaurentPoly.mu
    return _runs(pairs, lambda e: (lam(e), lam(-e)), lambda e: (mu(e), mu(-e)))[0]


def assoc_polys(w: WordLike) -> AssocPolys:
    """Compute (alpha, beta) for a word or a run list such as cyclic_reduce's."""
    pairs = as_pairs(w)
    runs = _laurent_runs(pairs)
    alpha, beta = _column(runs, TPoly.scale, TPoly.times_t, TPoly.one(), TPoly.zero())
    return AssocPolys(alpha=alpha, beta=beta, pairs=pairs)


def gamma_of(ap: AssocPolys) -> TPoly:
    """gamma = alpha + beta * t, the (1,1) entry of the wiggle value."""
    return ap.alpha + ap.beta * TPoly.t()


def trace_poly(ap: AssocPolys) -> TPoly:
    """Trace of the wiggle value as a polynomial in t: gamma + sigma(gamma)."""
    g = gamma_of(ap)
    return g + g.sigma()


# ----------------------------------------------------------------------
# evaluation


def word_value(w: WordLike, xm: Mat2, ym: Mat2, identity: Mat2) -> Mat2:
    """Substitute matrices for the generators and multiply out the word."""
    value = identity
    for a, b in as_pairs(w):
        value = value * xm.pow_det1(a, identity) * ym.pow_det1(b, identity)
    return value


def _check_specialization(lam0: Fraction, mu0: Fraction):
    if lam0 == 0 or mu0 == 0:
        raise ZeroParameterError("torus parameters must be nonzero")


def _check_unimodular(g: Mat2[Fraction]):
    if g.det() != 1:
        raise NotUnimodularError("g must have determinant 1")


def eval_direct(w: WordLike, lam0, mu0, g: Mat2[Fraction]) -> Mat2[Fraction]:
    """Brute-force value w(x, g^-1 y g) with x, y the diagonal matrices."""
    lam0, mu0 = Fraction(lam0), Fraction(mu0)
    _check_specialization(lam0, mu0)
    _check_unimodular(g)
    xm = Mat2(lam0, Fraction(0), Fraction(0), 1 / lam0)
    ym = Mat2(mu0, Fraction(0), Fraction(0), 1 / mu0)
    y_conj = g.inv_det1() * ym * g
    return word_value(w, xm, y_conj, identity_q())


def eval_normal_form(ap: AssocPolys, lam0, mu0, g: Mat2[Fraction]) -> Mat2[Fraction]:
    """Assemble the wiggle value from (alpha, beta) at t = det(xi_g)."""
    lam0, mu0 = Fraction(lam0), Fraction(mu0)
    _check_specialization(lam0, mu0)
    _check_unimodular(g)
    xi = xi_of(g)
    t0 = xi.det()
    p, q = xi.e12, xi.e21
    gamma = gamma_of(ap)
    beta = ap.beta

    def at_t0(f: TPoly) -> Fraction:
        acc = Fraction(0)
        for c in reversed(f.specialize(lam0, mu0)):
            acc = acc * t0 + c
        return acc

    g11 = at_t0(gamma)
    g22 = at_t0(gamma.sigma())
    b12 = at_t0(beta) * p
    b21 = -at_t0(beta.sigma()) * q
    matrix = Mat2(g11, b12, b21, g22)
    if matrix.det() != 1:
        raise AssertionError("normal-form value must have determinant 1")
    return matrix


@dataclass(frozen=True)
class SpecializedAssoc:
    """beta, gamma = alpha + beta*t and their sigma-partners at a fixed
    rational (lam, mu), each as an integer numerator in Z[t] over the shared
    denominator `den` (alpha is gamma - t*beta, the trace gamma +
    sigma(gamma))."""

    den: int
    beta_num: tuple[int, ...]
    beta_sigma_num: tuple[int, ...]
    gamma_num: tuple[int, ...]
    gamma_sigma_num: tuple[int, ...]


def specialized_assoc(w: WordLike, lam0, mu0) -> SpecializedAssoc:
    """Run the column recursion over Z[t] at (lam0, mu0) = (p/q, r/s).

    The integer column is D times the true one, D = (pq)^sum|a| (rs)^sum|b|;
    inverting the parameters (U and V swapped, same D) gives the sigma-partners.
    Each entry is one integer, its polynomial at t = 2^K: a run multiplies the
    column's l1 norm by at most 2 max(U, V), gamma adds a bit, and a sign
    bit makes every coefficient fit a balanced K-bit slot.  K and the
    exponent sums of D come from the runs' distinct powers, each taken once.
    """
    lam0, mu0 = Fraction(lam0), Fraction(mu0)
    _check_specialization(lam0, mu0)
    p, q = lam0.numerator, lam0.denominator
    r, s = mu0.numerator, mu0.denominator
    runs, powers = _runs(
        as_pairs(w), lambda e: (p ** (2 * e), q ** (2 * e)), lambda e: (r ** (2 * e), s ** (2 * e))
    )
    k, sums = 2, [0, 0]
    for (is_x, e), ((u, v), count) in powers.items():
        k += count * (max(u, v).bit_length() + 1)
        sums[is_x] += count * e
    column = lambda steps: _column(steps, operator.mul, lambda f: f << k, 1, 0)
    alpha, beta = column(runs)
    alpha_s, beta_s = column(_swapped(runs))
    gamma, gamma_s = alpha + (beta << k), alpha_s + (beta_s << k)
    den = (p * q) ** sums[True] * (r * s) ** sums[False]
    return SpecializedAssoc(den, *(unpack(f, k) for f in (beta, beta_s, gamma, gamma_s)))


# ----------------------------------------------------------------------
# structural identities


def verify_identities(ap: AssocPolys) -> IdentityReport:
    """Check the three structural identities of the normal form:

        determinant  gamma*sigma(gamma) - beta*sigma(beta)*t(t+1) = 1;
        sigma        the runs at inverted parameters (U and V swapped) give
                     the column (sigma(alpha), sigma(beta));
        Bezout       alpha*delta - c*beta = 1, with (c, delta) the second
                     column of the transfer product M, read off
                     adj(M)*(alpha, beta).

    The Bezout relation needs no product and no second column.  _column's
    steps are X(U, V) and Y(U, V) of determinant UV, and their adjugates
    are the swapped steps X(V, U) and Y(V, U).  For M = X_n ... X_1,
    adj M = adj X_1 ... adj X_n, so the swapped runs in reverse order,
    started at (alpha, beta), give adj(M)*(alpha, beta) =
    (delta*alpha - c*beta, alpha_M*beta - beta_M*alpha) with (alpha_M,
    beta_M) and (c, delta) the columns of M.  Its first entry less det M
    is the Bezout difference, and det M, the product of all UV, is one:
    TPoly.one() over the Laurent ring, a power of X when packed.  Only
    the first entry is compared, so the check is the same equation as
    alpha*delta = 1 + c*beta on every input, the slot bound below holds
    unchanged, and a tampered input gets the same verdict.

    Each identity is two big-integer equations, at X = 2^b and at
    X = -2^b.  Per variable, say lambda, let A = sum|a| over the x-runs
    and g = gcd(2a) (_box).  A column exponent is -A plus a sum of some
    2|a| (each run scales by lambda^a or lambda^-a), so alpha, beta, their
    sigma-partners and the columns, times lambda^A, have exponents in g*Z
    within [0, 2A], and their products, times lambda^2A, within [0, 4A].
    The map mu^g' -> X, lambda^g -> X^n_mu, t -> X^(n_lambda n_mu) with
    n_mu = 4B/g' + 1 and n_lambda = 4A/g + 1 is a ring homomorphism into
    Z[X] that puts every monomial of a product at its own power of X, its
    slot.  Write the image of an identity's difference as
    D = E(X^2) + X O(X^2).  Then

        E(4^b) = (D(2^b) + D(-2^b)) / 2,
        O(4^b) = (D(2^b) - D(-2^b)) / 2^(b+1).

    s = _slot_bytes bounds every coefficient of D, so of E and of O, in
    absolute value by 2^(8s-1) (below), and b = 8h with h = ceil(s/2), so
    2b >= 8s.  A nonzero P with such coefficients has P(2^2b) != 0: with
    p its first nonzero coefficient, P(2^2b) = 2^(2bj) (p + 2^(2b) m) for
    an integer m, and 0 < |p| < 2^(2b).  So E(4^b) = 0 iff E = 0, likewise
    for O, and D = 0 iff D(2^b) = D(-2^b) = 0 (_at_both_points).  The
    operands fit h-byte slots: s's bound is at least m^2 for the m below,
    which bounds their coefficients, so m < 2^(4s) <= 2^(8h).

    alpha and beta are each walked once into two byte arrays of h-byte
    slots, one of the positive coefficients and one of the negated
    negative ones.  sigma sends lambda^(A+e) to lambda^(A-e), so a
    sigma-partner has the same slots in reverse order inside each power
    of t: slot j goes to slot top - j, for the slot top of lambda^2A mu^2B.
    At -2^b the odd slots change sign: they swap between the two arrays.
    The columns run on integers with _signed_shift, every run scalar and
    t being a power X^j: a shift by bj, negated at -2^b when j is odd.

    The bounds use the l1 norm |f|_1 and the largest coefficient |f|_max
    over all (t, lambda, mu) coefficients; a product fg has coefficients at
    most |f|_max |g|_1.  With m = |alpha|_max + |beta|_max, which bounds
    |gamma|_max, and n = |alpha|_1 + |beta|_1, which bounds |gamma|_1, the
    determinant difference has coefficients at most m n + 2|beta|_max
    |beta|_1 + 1.  A run scales by monomials, so it maps a column's norms
    (u, v) to at most (u + 2v, v) for x and (u, 2u + v) for y; from (1, 1)
    that bounds |c|_1, |delta|_1 and both entries of the inverted column by
    N = max(u, v).  The Bezout difference has coefficients at most m N + 1,
    and the sigma one at most N + m.  s is the least with 2^(8s-1) above
    them all.

    When a term lies outside its box (alpha and beta are then not the
    column of their runs), or the box has more slots than #alpha #beta
    term pairs (a word with one large exponent packs mostly empty slots,
    and beta = 0 packs nothing), the same identities run on TPoly
    arithmetic.
    Failures indicate an implementation bug, never bad input, so the
    report names the violated identity instead of raising.
    """
    report = _packed_identities(ap)
    if report is None:
        one = TPoly.one()
        report = _identities(
            ap.alpha, ap.beta, ap.alpha.sigma(), ap.beta.sigma(), _laurent_runs(ap.pairs),
            TPoly.zero(), one, one, TPoly.scale, TPoly.times_t,
        )
    return report


def _identities(alpha, beta, alpha_s, beta_s, runs, zero, unit, one, scale, times_t):
    """The identities of verify_identities on TPolys or on packed ints.

    alpha, beta and their sigma-partners support +, -, * and ==; the only
    products are the determinant identity's two.  The sigma column starts
    from `unit` and `zero`, the adjugate of the transfer product from
    (alpha, beta), both through _column with `scale` and `times_t`; `one`
    is the identity among products and the product's determinant (unit
    and one are both TPoly.one(), or two powers of two for packed
    integers).
    """
    gamma, gamma_s = alpha + times_t(beta), alpha_s + times_t(beta_s)
    beta_t = times_t(beta * beta_s)
    det_ok = gamma * gamma_s == one + beta_t + times_t(beta_t)
    # Inverting the parameters swaps U and V in every run; at the scalar
    # level that computes exactly the sigma-substituted pair.
    swapped = _swapped(runs)
    sigma_ok = _column(swapped, scale, times_t, unit, zero) == (alpha_s, beta_s)
    # adj(M) (alpha, beta) starts with delta*alpha - c*beta for the second
    # column (c, delta) of the product M: a Bezout relation, so alpha and
    # beta are coprime.
    bezout_ok = _column(swapped[::-1], scale, times_t, alpha, beta)[0] == one
    return IdentityReport(det_identity_ok=det_ok, sigma_symmetry_ok=sigma_ok, bezout_ok=bezout_ok)


def _slot_bytes(alpha: Sequence[int], beta: Sequence[int], pairs: Pairs) -> int:
    """The least s with 2^(8s-1) above every coefficient of the identities'
    differences, from the coefficients of alpha and beta and the runs of
    `pairs` (the bounds are in verify_identities)."""
    norm_a, norm_b = sum(map(abs, alpha)), sum(map(abs, beta))
    m_b = max(map(abs, beta), default=0)
    m = max(map(abs, alpha), default=0) + m_b
    bound = max(m * (norm_a + norm_b) + 2 * m_b * norm_b, m * max(_column_norms(pairs))) + 1
    return (bound.bit_length() + 8) // 8


def _signed_shift(f: int, k: int) -> int:
    """f times 2^k for k >= 0, and times -2^-k for k < 0."""
    return f << k if k >= 0 else -(f << -k)


def _at_both_points(report_at) -> IdentityReport:
    """The identities at X = 2^b and at X = -2^b together, report_at(sign)
    giving the report at sign 2^b: an identity holds iff its difference
    vanishes at both points (the proof is in verify_identities)."""
    plus, minus = report_at(1), report_at(-1)
    return IdentityReport(
        det_identity_ok=plus.det_identity_ok and minus.det_identity_ok,
        sigma_symmetry_ok=plus.sigma_symmetry_ok and minus.sigma_symmetry_ok,
        bezout_ok=plus.bezout_ok and minus.bezout_ok,
    )


def _packed_identities(ap: AssocPolys) -> IdentityReport | None:
    """verify_identities at X = 2^b and X = -2^b; None if it declines."""
    a, b = ap.alpha.terms(), ap.beta.terms()
    x_exps = [e for e, _ in ap.pairs if e]
    (al, gl, nl), (am, gm, nm) = _box(x_exps), _box([e for _, e in ap.pairs if e])
    # a term lies outside its box iff its lambda- or its mu-exponent does
    for i, total, stride in ((1, al, gl), (2, am, gm)):
        exps = set(map(operator.itemgetter(i), a))
        exps.update(map(operator.itemgetter(i), b))
        if any(abs(e) > total or (total + e) % stride for e in exps):
            return None
    nl, nm = 2 * nl - 1, 2 * nm - 1  # the boxes of products
    degree = max(len(ap.alpha.coeffs) - 1, len(ap.beta.coeffs), len(x_exps))
    if (2 * degree + 1) * nl * nm > len(a) * len(b):
        return None
    h = (_slot_bytes(list(a.values()), list(b.values()), ap.pairs) + 1) // 2
    nt = nl * nm  # the slots of one power of t
    top = 2 * al // gl * nm + 2 * am // gm  # the slot of lambda^2A mu^2B
    row, width = nt * h, (top + 1) * h

    def at_points(f: TPoly, terms: dict) -> tuple[tuple[int, int], tuple[int, int]]:
        """f and sigma(f), times lambda^A mu^B, each at X = 2^b and -2^b."""
        pos, neg = bytearray(len(f.coeffs) * row), bytearray(len(f.coeffs) * row)
        for (i, el, em), c in terms.items():
            k = (i * nt + (al + el) // gl * nm + (am + em) // gm) * h
            if c > 0:
                pos[k : k + h] = c.to_bytes(h, "little")
            else:
                neg[k : k + h] = (-c).to_bytes(h, "little")
        return values(pos, neg), values(reflected(pos), reflected(neg))

    def reflected(slots: bytearray) -> bytearray:
        """sigma: slot j of each t-row moved to slot top - j."""
        out = bytearray(len(slots))
        for start in range(0, len(slots), row):
            for k in range(start, start + h):
                out[k : start + width : h] = slots[k : start + width : h][::-1]
        return out

    def values(pos: bytearray, neg: bytearray) -> tuple[int, int]:
        """The slots' integer at X = 2^b, and at X = -2^b, where the odd
        slots change sign: they swap between pos and neg."""
        plus = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
        pos, neg = bytearray(pos), bytearray(neg)
        for k in range(h, 2 * h):
            pos[k :: 2 * h], neg[k :: 2 * h] = neg[k :: 2 * h], pos[k :: 2 * h]
        return plus, int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    alpha, alpha_s = at_points(ap.alpha, a)
    beta, beta_s = at_points(ap.beta, b)

    def report_at(sign: int) -> IdentityReport:
        i = sign < 0
        power = lambda j: -8 * h * j if i and j & 1 else 8 * h * j
        kt = power(nt)
        return _identities(
            alpha[i], beta[i], alpha_s[i], beta_s[i], _shift_runs(ap.pairs, gl, nm, gm, power),
            0, 1, _signed_shift(1, power(top)), _signed_shift, lambda f: _signed_shift(f, kt),
        )

    return _at_both_points(report_at)
