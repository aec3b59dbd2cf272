from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import Mat2, identity_q, mat2_q, xi_of
from sl2wiggle.exact.qpoly import QPoly
from sl2wiggle.exact.tpoly import TPoly
from sl2wiggle.wiggle import (
    AssocPolys,
    SpecializedAssoc,
    _unpack,
    as_pairs,
    assoc_polys,
    eval_direct,
    eval_normal_form,
    gamma_of,
    specialized_assoc,
    trace_poly,
    transfer_matrix,
    verify_identities,
    word_value,
)
from sl2wiggle.words import Word, cyclic_reduce, parse_word

from conftest import (
    random_commutator_subgroup_word,
    random_nonzero_fraction,
    random_sl2,
    random_word,
)

T = TPoly.t()
ONE = TPoly.one()


def reference_assoc(w) -> AssocPolys:
    """(alpha, beta) as the first column of the full transfer product."""
    m = transfer_matrix(w)
    return AssocPolys(alpha=m.e11, beta=m.e21, pairs=as_pairs(w))


def xbar() -> LaurentPoly:
    return LaurentPoly.lam(1) - LaurentPoly.lam(-1)


def ybar() -> LaurentPoly:
    return LaurentPoly.mu(1) - LaurentPoly.mu(-1)


class TestAssocPolys:
    def test_trivial_word(self):
        ap = assoc_polys(Word.identity())
        assert ap.alpha == ONE and ap.beta == TPoly.zero()

    def test_xy(self):
        ap = assoc_polys(parse_word("x y"))
        assert ap.alpha == TPoly.const(LaurentPoly.lam(1) * LaurentPoly.mu(1))
        assert ap.beta == TPoly.const(ybar() * LaurentPoly.lam(1))

    def test_commutator_trace(self):
        ap = assoc_polys(parse_word("[x,y]"))
        ref = TPoly.const(xbar() ** 2 * ybar() ** 2) * T * (T + ONE) + ONE * 2
        assert trace_poly(ap) == ref

    def test_accepts_cyclic_form_and_pairs(self):
        w = parse_word("x^2 y x^-1 y^3")
        # the cyclic form is a canonical rotation, i.e. a specific conjugate
        cf = cyclic_reduce(w)
        assert assoc_polys(cf).alpha == assoc_polys(cf.to_word()).alpha
        assert assoc_polys([(2, 1), (-1, 3)]).alpha == assoc_polys(w).alpha
        # trace is a conjugacy invariant, so either representative gives it
        assert trace_poly(assoc_polys(cf)) == trace_poly(assoc_polys(w))

    def test_independent_of_run_decomposition(self):
        # splitting a run into pieces with zero partners changes nothing
        a = assoc_polys([(2, 1)])
        b = assoc_polys([(1, 0), (1, 1)])
        assert (a.alpha, a.beta) == (b.alpha, b.beta)

    def test_recursion_step_formula(self, rng):
        # appending x^a y^b acts by the displayed one-run recursion
        for _ in range(25):
            w = random_word(rng, max_syllables=4)
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            base = assoc_polys(w)
            lam_a = LaurentPoly.lam(a)
            mu_b = LaurentPoly.mu(b)
            xbar_a = LaurentPoly.lam(a) - LaurentPoly.lam(-a)
            ybar_b = LaurentPoly.mu(b) - LaurentPoly.mu(-b)
            alpha_next = base.alpha.scale(lam_a * mu_b) + base.beta.scale(
                xbar_a * mu_b
            ) * T
            beta_next = base.alpha.scale(ybar_b * lam_a) + base.beta * (
                TPoly.const(lam_a.unit_inverse() * mu_b.unit_inverse())
                + TPoly.const(xbar_a * ybar_b) * T
            )
            extended = assoc_polys(tuple(base.pairs) + ((a, b),))
            assert extended.alpha == alpha_next
            assert extended.beta == beta_next

    def test_json_round_trip(self):
        from sl2wiggle.wiggle import AssocPolys

        ap = assoc_polys(parse_word("x y^-2"))
        data = ap.to_json()
        back = AssocPolys.from_json(data)
        assert back.alpha == ap.alpha and back.beta == ap.beta
        assert back.pairs == ap.pairs


class TestGammaAndTrace:
    def test_trivial(self):
        ap = assoc_polys(Word.identity())
        assert gamma_of(ap) == ONE
        assert trace_poly(ap) == ONE * 2

    def test_commutator_gamma_at_zero(self):
        gamma = gamma_of(assoc_polys(parse_word("[x,y]")))
        assert gamma.coeff(0) == LaurentPoly.one()

    def test_trace_sigma_invariant(self, rng):
        for _ in range(20):
            tr = trace_poly(assoc_polys(random_word(rng)))
            assert tr.sigma() == tr

    def test_commutator_subgroup_trace_divisibility(self, rng):
        # for words with zero exponent sums, trace - 2 vanishes at t = 0, -1
        t_t1 = T * (T + ONE)
        for _ in range(50):
            w = random_commutator_subgroup_word(rng)
            tr = trace_poly(assoc_polys(w))
            (tr - ONE * 2).exact_div(t_t1)  # raises if not divisible

    def test_general_word_no_divisibility(self):
        tr = trace_poly(assoc_polys(Word.x_pow(1)))
        assert tr == TPoly.const(LaurentPoly.lam(1) + LaurentPoly.lam(-1))


class TestEvaluation:
    def test_direct_trivial(self):
        assert eval_direct(Word.identity(), 2, 3, mat2_q(1, 1, 0, 1)) == identity_q()

    def test_identity_g(self):
        w = parse_word("x^2 y^-1")
        ap = assoc_polys(w)
        nf = eval_normal_form(ap, 2, 3, identity_q())
        assert nf.t_value == 0
        assert nf.matrix == eval_direct(w, 2, 3, identity_q())

    def test_intro_unipotent(self):
        w = parse_word("[x,y]")
        ap = assoc_polys(w)
        g = mat2_q(0, 1, -1, 1)
        value = eval_normal_form(ap, 2, 2, g)
        assert value.matrix.trace() == 2
        assert value.matrix != identity_q()
        assert value.matrix.det() == 1
        assert value.matrix == eval_direct(w, 2, 2, g)

    def test_random_agreement(self, rng):
        for _ in range(80):
            w = random_word(rng)
            ap = assoc_polys(w)
            lam0 = random_nonzero_fraction(rng)
            mu0 = random_nonzero_fraction(rng)
            g = random_sl2(rng)
            nf = eval_normal_form(ap, lam0, mu0, g)
            assert nf.matrix == eval_direct(w, lam0, mu0, g)
            assert nf.t_value == xi_of(g).det()

    def test_specialized_assoc_matches_symbolic(self, rng):
        # random words (DC or not), parameters of both signs, small and large
        bounds = (9,) * 15 + (10**6,) * 10
        for bound in bounds:
            w = random_word(rng)
            ap = reference_assoc(w)
            lam0 = random_nonzero_fraction(rng, bound)
            mu0 = random_nonzero_fraction(rng, bound)
            sa = specialized_assoc(w, lam0, mu0)
            beta, beta_s = over_den(sa, "beta"), over_den(sa, "beta_sigma")
            gamma, gamma_s = over_den(sa, "gamma"), over_den(sa, "gamma_sigma")
            assert beta == ap.beta.specialize(lam0, mu0)
            assert beta_s == ap.beta.sigma().specialize(lam0, mu0)
            assert gamma - beta * QPoly.t() == ap.alpha.specialize(lam0, mu0)
            assert gamma_s - beta_s * QPoly.t() == ap.alpha.sigma().specialize(lam0, mu0)
            assert gamma == gamma_of(ap).specialize(lam0, mu0)
            assert gamma_s == gamma_of(ap).sigma().specialize(lam0, mu0)
            assert over_den(sa, "trace") == trace_poly(ap).specialize(lam0, mu0)

    def test_specialized_assoc_at_unit_parameters(self):
        # lambda, mu = +-1 make runs act trivially or by sign flips
        w = parse_word("[[x,y^2],[x^-3,y]] x^2 y^-1")
        ap = reference_assoc(w)
        for lam0, mu0 in ((1, 1), (-1, 2), (3, -1), (-1, -1)):
            sa = specialized_assoc(w, lam0, mu0)
            assert over_den(sa, "trace") == trace_poly(ap).specialize(lam0, mu0)
            assert over_den(sa, "beta_sigma") == ap.beta.sigma().specialize(lam0, mu0)

    def test_word_value_on_upper_triangular(self):
        # [x^a, y^b] with non-diagonal upper-triangular x is unipotent
        y = mat2_q(2, 0, 0, Fraction(1, 2))
        for x in (mat2_q(1, 1, 0, 1), mat2_q(2, 3, 0, Fraction(1, 2))):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    w = parse_word(f"[x^{a},y^{b}]")
                    u = word_value(w, x, y, identity_q())
                    assert u.trace() == 2
                    assert u != identity_q()
                    # value equals 1 + (mu^-b - mu^b) xi_{x^a} y^b
                    xi = xi_of(x.pow_det1(a, identity_q()))
                    bar = Fraction(1, 2) ** b - Fraction(2) ** b
                    assert u == identity_q() + (xi * y.pow_det1(b, identity_q())).scale(bar)


class TestIdentities:
    def test_commutator_passes(self):
        assert verify_identities(assoc_polys(parse_word("[x,y]"))).ok

    def test_trivial_passes(self):
        report = verify_identities(assoc_polys(Word.identity()))
        assert report.ok and report.failures == ()

    def test_random_words_pass(self, rng):
        for _ in range(30):
            assert verify_identities(assoc_polys(random_word(rng, max_syllables=5))).ok

    def test_transfer_matrix_det(self, rng):
        for _ in range(10):
            m = transfer_matrix(random_word(rng, max_syllables=5))
            assert m.det() == ONE

    def test_assoc_polys_is_transfer_matrix_column(self, rng):
        for _ in range(20):
            w = random_word(rng, max_syllables=6)
            assert assoc_polys(w) == reference_assoc(w)

    def test_report_names_failures(self):
        from sl2wiggle.wiggle import IdentityReport

        report = IdentityReport(False, True, False)
        assert not report.ok
        assert len(report.failures) == 2


# ----------------------------------------------------------------------
# the packed column recursion against the Mat2 product


def over_den(sa: SpecializedAssoc, name: str) -> QPoly:
    """The polynomial `name` of sa: its integer numerator over sa.den."""
    return QPoly.from_ints(getattr(sa, name + "_num"), sa.den)


def specialized_column(pairs, lam0, mu0) -> tuple[QPoly, QPoly]:
    """First column of transfer_matrix(pairs) at (lam0, mu0).  Specializing
    is a ring homomorphism, so each run matrix is specialized before the
    product instead of after; the symbolic product of a long word is slow."""
    m = Mat2(QPoly.one(), QPoly.zero(), QPoly.zero(), QPoly.one())
    for pair in pairs:
        run = transfer_matrix([pair])
        m = Mat2(*(e.specialize(lam0, mu0) for e in (run.e11, run.e12, run.e21, run.e22))) * m
    return m.e11, m.e21


def slot_bits(pairs, lam0: Fraction, mu0: Fraction) -> int:
    """K = 3 + sum over runs of (bit length of max(U, V)) + 1, where
    (U, V) = (P^2, Q^2) for lambda^a = P/Q resp. mu^b = P/Q."""
    k = 3
    for param, exps in ((lam0, [a for a, _ in pairs]), (mu0, [b for _, b in pairs])):
        big = max(abs(param.numerator), param.denominator)
        k += sum((big ** (2 * abs(e))).bit_length() + 1 for e in exps if e)
    return k


side = st.one_of(st.integers(1, 9), st.integers(1, 2**64))
signed_fractions = st.builds(
    lambda n, d, sign: Fraction(sign * n, d), side, side, st.sampled_from([1, -1])
)
run_lists = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=16)


@given(run_lists, signed_fractions, signed_fractions)
@example([], Fraction(2), Fraction(3))
@example([(0, 0), (0, 5)], Fraction(-1), Fraction(2**64 - 1, 3))
@settings(max_examples=100, deadline=None)
def test_specialized_assoc_matches_transfer_product(pairs, lam0, mu0):
    sa = specialized_assoc(pairs, lam0, mu0)
    alpha, beta = specialized_column(pairs, lam0, mu0)
    alpha_s, beta_s = specialized_column(pairs, 1 / lam0, 1 / mu0)
    gamma, gamma_s = over_den(sa, "gamma"), over_den(sa, "gamma_sigma")
    beta_got, beta_s_got = over_den(sa, "beta"), over_den(sa, "beta_sigma")
    assert (beta_got, beta_s_got) == (beta, beta_s)
    # alpha = gamma - t*beta
    assert (gamma - beta * QPoly.t(), gamma_s - beta_s * QPoly.t()) == (alpha, alpha_s)
    assert over_den(sa, "trace") == gamma + gamma_s
    expected = (beta, beta_s, gamma, gamma_s, gamma + gamma_s)
    # every numerator coefficient fits a balanced slot of the packed recursion
    largest = max((abs(c * sa.den) for f in expected for c in f.coeffs), default=0)
    assert largest < 2 ** (slot_bits(pairs, lam0, mu0) - 1)


@pytest.mark.parametrize("k", [2, 3, 8, 61, 64, 200])
def test_unpack_balanced_slots(k):
    top = 2 ** (k - 1) - 1
    cases = [
        [top],
        [-top],
        [top, -top] * 3,
        [-top, top] * 3 + [-1],
        [1, -1, 1, -1, 1],
        [0, 0, -top, 0, top],
        [-top] * 5,
        [0, top],
    ]
    for coeffs in cases:
        packed = sum(c << (k * i) for i, c in enumerate(coeffs))
        assert _unpack(packed, k) == tuple(coeffs)
    assert _unpack(0, k) == ()
