from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import Mat2, identity_q, mat2_q, xi_of
from sl2wiggle.exact.polycore import div_t1, unpack
from sl2wiggle.exact.tpoly import TPoly
from sl2wiggle.wiggle import (
    AssocPolys,
    IdentityReport,
    SpecializedAssoc,
    _column,
    _at_both_points,
    _laurent_runs,
    _packed_identities,
    _slot_bytes,
    _swapped,
    as_pairs,
    assoc_polys,
    eval_direct,
    eval_normal_form,
    gamma_of,
    specialized_assoc,
    trace_poly,
    verify_identities,
    word_value,
)
from sl2wiggle.certify import DCParams
from sl2wiggle.words import Word, cyclic_reduce, parse_word

from fraction_reference import QPoly
from conftest import (
    nonzero_rationals,
    pairs_word,
    random_commutator_subgroup_word,
    random_nonzero_fraction,
    random_sl2,
    random_word,
    words,
)
from transfer_reference import (
    _steps,
    identity_differences,
    reference_identities,
    transfer_matrix,
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
        ap = assoc_polys(Word())
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
        pairs = cyclic_reduce(w)
        assert assoc_polys(pairs).alpha == assoc_polys(pairs_word(pairs)).alpha
        assert assoc_polys([(2, 1), (-1, 3)]).alpha == assoc_polys(w).alpha
        # trace is a conjugacy invariant, so either representative gives it
        assert trace_poly(assoc_polys(pairs)) == trace_poly(assoc_polys(w))

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
                TPoly.const(LaurentPoly.mono(1, -a, -b))
                + TPoly.const(xbar_a * ybar_b) * T
            )
            extended = assoc_polys(tuple(base.pairs) + ((a, b),))
            assert extended.alpha == alpha_next
            assert extended.beta == beta_next


class TestGammaAndTrace:
    def test_trivial(self):
        ap = assoc_polys(Word())
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
        for _ in range(50):
            w = random_commutator_subgroup_word(rng)
            tr = trace_poly(assoc_polys(w))
            coeffs = (tr - ONE * 2).coeffs
            assert not any(coeffs[:1]) and not div_t1(coeffs[1:])[1]

    def test_general_word_no_divisibility(self):
        tr = trace_poly(assoc_polys(Word.from_exps((1,))))
        assert tr == TPoly.const(LaurentPoly.lam(1) + LaurentPoly.lam(-1))


class TestEvaluation:
    def test_direct_trivial(self):
        assert eval_direct(Word(), 2, 3, mat2_q(1, 1, 0, 1)) == identity_q()

    def test_identity_g(self):
        w = parse_word("x^2 y^-1")
        ap = assoc_polys(w)
        assert xi_of(identity_q()).det() == 0
        assert eval_normal_form(ap, 2, 3, identity_q()) == eval_direct(w, 2, 3, identity_q())

    def test_intro_unipotent(self):
        w = parse_word("[x,y]")
        ap = assoc_polys(w)
        g = mat2_q(0, 1, -1, 1)
        value = eval_normal_form(ap, 2, 2, g)
        assert value.trace() == 2
        assert value != identity_q()
        assert value.det() == 1
        assert value == eval_direct(w, 2, 2, g)

    def test_random_agreement(self, rng):
        for _ in range(80):
            w = random_word(rng)
            ap = assoc_polys(w)
            lam0 = random_nonzero_fraction(rng)
            mu0 = random_nonzero_fraction(rng)
            g = random_sl2(rng)
            assert eval_normal_form(ap, lam0, mu0, g) == eval_direct(w, lam0, mu0, g)

    @given(words, nonzero_rationals, nonzero_rationals)
    @example(parse_word("[x,y]"), Fraction(2), Fraction(3))
    @settings(max_examples=60, deadline=None)
    def test_run_pairs_give_the_words_value(self, w, lam0, mu0):
        g = mat2_q(2, 1, 1, 1)
        assert eval_direct(w.pairs, lam0, mu0, g) == eval_direct(w, lam0, mu0, g)
        x, y = mat2_q(1, 1, 0, 1), mat2_q(lam0, 0, 0, 1 / lam0)
        assert word_value(w.pairs, x, y, identity_q()) == word_value(w, x, y, identity_q())

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
            assert beta == QPoly(ap.beta.specialize(lam0, mu0))
            assert beta_s == QPoly(ap.beta.sigma().specialize(lam0, mu0))
            assert gamma - beta * QPoly.t() == QPoly(ap.alpha.specialize(lam0, mu0))
            assert gamma_s - beta_s * QPoly.t() == QPoly(ap.alpha.sigma().specialize(lam0, mu0))
            assert gamma == QPoly(gamma_of(ap).specialize(lam0, mu0))
            assert gamma_s == QPoly(gamma_of(ap).sigma().specialize(lam0, mu0))
            assert gamma + gamma_s == QPoly(trace_poly(ap).specialize(lam0, mu0))

    def test_specialized_assoc_at_unit_parameters(self):
        # lambda, mu = +-1 make runs act trivially or by sign flips
        w = parse_word("[[x,y^2],[x^-3,y]] x^2 y^-1")
        ap = reference_assoc(w)
        for lam0, mu0 in ((1, 1), (-1, 2), (3, -1), (-1, -1)):
            sa = specialized_assoc(w, lam0, mu0)
            trace = over_den(sa, "gamma") + over_den(sa, "gamma_sigma")
            assert trace == QPoly(trace_poly(ap).specialize(lam0, mu0))
            assert over_den(sa, "beta_sigma") == QPoly(ap.beta.sigma().specialize(lam0, mu0))

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


# tamper -> whether the determinant identity still holds
TAMPERS = {
    "alpha + 1": False,
    "beta * lambda": False,
    "alpha, beta swapped": False,
    "pairs of another word": True,
    "pairs reversed": True,
    "alpha * 2": False,  # a multiple: no coefficient leaves the box
    "beta * lambda^40": False,  # outside the runs' box
    "alpha + 2^64 t^deg": False,  # would overflow slots sized without it
    "beta + 2^200": False,
}


# one box-2 tuple of each family
FAMILIES = {
    "generic": (-1, -2, -2, 2), "k=m": (2, 1, 2, -1), "l=n": (1, 2, -2, 2), "anti": (1, 2, -1, -2),
}
IDENTITY_FIELDS = ("det_identity_ok", "sigma_symmetry_ok", "bezout_ok")


def tampered(tamper) -> AssocPolys:
    ap = assoc_polys(parse_word("[[x,y],[x^2,y]]"))
    alpha, beta, pairs = ap.alpha, ap.beta, ap.pairs
    if tamper == "alpha + 1":
        alpha = alpha + ONE
    elif tamper == "beta * lambda":
        beta = beta.scale(LaurentPoly.lam(1))
    elif tamper == "alpha, beta swapped":
        alpha, beta = beta, alpha
    elif tamper == "pairs of another word":
        pairs = as_pairs(parse_word("[[x,y],[x,y^2]]"))
    elif tamper == "pairs reversed":
        pairs = pairs[::-1]
    elif tamper == "alpha * 2":
        alpha = alpha.scale(LaurentPoly.const(2))
    elif tamper == "beta * lambda^40":
        beta = beta.scale(LaurentPoly.lam(40))
    elif tamper == "alpha + 2^64 t^deg":
        alpha = alpha + TPoly.const(2**64) * T**alpha.degree
    elif tamper == "beta + 2^200":
        beta = beta + TPoly.const(2**200)
    else:
        assert tamper is None
    return AssocPolys(alpha, beta, pairs)


def assert_adjugate_column(ap: AssocPolys):
    """_column over the swapped runs in reverse order, from (alpha, beta),
    is adj(M) (alpha, beta) for the transfer product M of ap.pairs."""
    m = transfer_matrix(ap.pairs)
    alpha, beta = ap.alpha, ap.beta
    runs = _swapped(_laurent_runs(ap.pairs))[::-1]
    column = _column(runs, TPoly.scale, TPoly.times_t, alpha, beta)
    assert column == (alpha * m.e22 - m.e12 * beta, m.e11 * beta - m.e21 * alpha)


class TestIdentities:
    def test_commutator_passes(self):
        assert verify_identities(assoc_polys(parse_word("[x,y]"))).ok

    def test_trivial_passes(self):
        report = verify_identities(assoc_polys(Word()))
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
            runs = _laurent_runs(as_pairs(w))
            zero, one = TPoly.zero(), TPoly.one()
            scale, times_t = TPoly.scale, TPoly.times_t
            m = transfer_matrix(w)
            assert _column(runs, scale, times_t, zero, one) == (m.e12, m.e22)
            m_inv = transfer_matrix(w, invert_params=True)
            assert _column(_swapped(runs), scale, times_t, one, zero) == (m_inv.e11, m_inv.e21)

    def test_swapped_steps_are_adjugates(self):
        # each step has determinant 1, so its adjugate is its inverse
        for step, swapped in zip(_steps(False), _steps(True)):
            assert step.inv_det1() == swapped

    def test_reversed_swapped_runs_apply_the_adjugate_on_random_words(self, rng):
        for _ in range(20):
            assert_adjugate_column(assoc_polys(random_word(rng, max_syllables=6)))

    @pytest.mark.parametrize("tamper", [None, *TAMPERS])
    def test_reversed_swapped_runs_apply_the_adjugate_on_tampers(self, tamper):
        # the Bezout check reads the first entry, whatever alpha and beta are
        assert_adjugate_column(tampered(tamper))

    @pytest.mark.parametrize("tamper, det_ok", TAMPERS.items())
    def test_tampered_input_fails(self, tamper, det_ok):
        ap = tampered(tamper)
        report = verify_identities(ap)
        assert not report.ok and not report.sigma_symmetry_ok and not report.bezout_ok
        assert report.det_identity_ok == det_ok
        assert report == reference_identities(ap)

    @pytest.mark.parametrize("tamper", [None, *TAMPERS])
    def test_slots_hold_every_difference(self, tamper):
        # the widest coefficient of each identity's difference fits a slot;
        # the two large tampers would not fit slots one byte narrower
        ap = tampered(tamper)
        coeffs = lambda f: [c for lp in f.coeffs for c in lp.terms().values()]
        s = _slot_bytes(coeffs(ap.alpha), coeffs(ap.beta), ap.pairs)
        largest = max((abs(c) for d in identity_differences(ap) for c in coeffs(d)), default=0)
        assert largest < 2 ** (8 * s - 1)

    @pytest.mark.parametrize("case", [None, *TAMPERS, *FAMILIES])
    def test_operands_fit_half_slots(self, case):
        # the two-point check packs alpha and beta into slots of
        # h = ceil(s/2) bytes
        if case in FAMILIES:
            ap = assoc_polys(DCParams(*FAMILIES[case]).cyclic_pairs())
        else:
            ap = tampered(case)
        coeffs = lambda f: [c for lp in f.coeffs for c in lp.terms().values()]
        h = (_slot_bytes(coeffs(ap.alpha), coeffs(ap.beta), ap.pairs) + 1) // 2
        largest = max(abs(c) for c in coeffs(ap.alpha) + coeffs(ap.beta))
        assert largest < 2 ** (8 * h)

    @pytest.mark.parametrize("b", [8, 16, 40])
    @pytest.mark.parametrize("sign", [1, -1], ids=["2^b - X", "2^b + X"])
    @pytest.mark.parametrize("field", ["det_identity_ok", "sigma_symmetry_ok", "bezout_ok"])
    def test_an_identity_holds_only_at_both_points(self, b, sign, field):
        # D = 2^b - sign X vanishes at X = sign 2^b and not at -sign 2^b,
        # so a check that drops either point would pass it
        def report_at(point):
            holds = 2**b - sign * point * 2**b == 0
            return IdentityReport(**{f: f != field or holds for f in IDENTITY_FIELDS})

        assert report_at(sign) == IdentityReport(True, True, True)
        assert _at_both_points(report_at) == IdentityReport(
            **{f: f != field for f in IDENTITY_FIELDS}
        )
        assert _at_both_points(lambda point: IdentityReport(True, True, True)).ok

    def test_matches_reference_on_random_words(self, rng):
        for _ in range(30):
            ap = assoc_polys(random_word(rng, max_syllables=8))
            assert verify_identities(ap) == reference_identities(ap)

    @pytest.mark.parametrize("params", FAMILIES.values(), ids=FAMILIES)
    def test_matches_reference_on_each_family(self, params):
        ap = assoc_polys(DCParams(*params).cyclic_pairs())
        assert _packed_identities(ap) is not None
        report = verify_identities(ap)
        assert report.ok and report == reference_identities(ap)

    @pytest.mark.parametrize(
        "word",
        [Word(), parse_word("x^5000 y x y^-3 x^7 y^2")],
        ids=["trivial", "one large exponent"],
    )
    def test_matches_reference_on_edge_words(self, word):
        # a box of mostly empty slots declines to the TPoly path, and so
        # does beta = 0, which has no term pairs
        ap = assoc_polys(word)
        assert _packed_identities(ap) is None
        report = verify_identities(ap)
        assert report.ok and report == reference_identities(ap)

    @pytest.mark.parametrize(
        "params, packed",
        [
            ((200, 1, 2, 1), False), ((1, 200, 1, 3), False), ((1000, 1, 2, 1), False),
            ((7, -5, 3, 6), True), ((3, -2, -3, 3), True), ((5, 4, -3, 2), True),
            # a term lambda^i mu^j added to beta of [[x,y],[x^2,y]], whose box
            # is |i| <= 10, |j| <= 8 on even i and j: beyond it on the
            # stride, or inside it off the stride
            ((40, 0), False), ((0, 40), False), ((1, 0), False), ((0, -1), False),
        ],
    )
    def test_decline_rule(self, params, packed):
        # a box with more slots than #alpha #beta term pairs takes the TPoly
        # path: one large exponent among small ones leaves most slots empty;
        # so does a term outside the box
        if len(params) == 2:
            ap = tampered(None)
            term = TPoly.const(LaurentPoly.lam(params[0]) * LaurentPoly.mu(params[1]))
            ap = AssocPolys(ap.alpha, ap.beta + term, ap.pairs)
            assert verify_identities(ap) == reference_identities(ap)
        else:
            ap = assoc_polys(DCParams(*params).cyclic_pairs())
            assert verify_identities(ap).ok
        assert (_packed_identities(ap) is not None) == packed

    def test_report_names_failures(self):
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
        entries = (run.e11, run.e12, run.e21, run.e22)
        m = Mat2(*(QPoly(e.specialize(lam0, mu0)) for e in entries)) * m
    return m.e11, m.e21


def slot_bits(pairs, lam0: Fraction, mu0: Fraction) -> int:
    """K = 2 + sum over runs of (bit length of max(U, V)) + 1, where
    (U, V) = (P^2, Q^2) for lambda^a = P/Q resp. mu^b = P/Q."""
    k = 2
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
    expected = (beta, beta_s, gamma, gamma_s)
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
        assert unpack(packed, k) == tuple(coeffs)
    assert unpack(0, k) == ()
