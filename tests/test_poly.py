import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2wiggle.errors import InexactDivisionError, ZeroParameterError
from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import identity_q
from sl2wiggle.certify import (
    Certificate,
    CertStatus,
    DCParams,
    _peel,
    _stripped_squarefree,
    build_witness,
    core_polys,
)
from sl2wiggle.exact import polycore, tpoly
from sl2wiggle.exact.qpoly import real_roots, zderivative, zexact_div, zgcd, zprimitive
from sl2wiggle.exact.tpoly import TPoly, resultant
from sl2wiggle.words import Word

from conftest import laurents, nonzero_rationals, random_sl2, small_scalars, words
from fraction_reference import (
    QPoly,
    div_rem,
    gcd_fraction_euclid,
    squarefree_part,
    squarefree_without,
)
from resultant_reference import resultant_sylvester

small_qpolys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=5
).map(QPoly)

small_tpolys = st.lists(laurents, max_size=4).map(TPoly)

# few terms and exponents, so that sympy's resultant stays fast
sympy_tpolys = (
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), small_scalars, max_size=2
        ).map(LaurentPoly),
        max_size=4,
    )
    .map(TPoly)
    .filter(bool)
)


class TestSpecialize:
    """specialize gives the trimmed Fraction coefficients, lowest degree first."""

    def test_direct_substitution(self):
        p = TPoly([LaurentPoly.mu(1), LaurentPoly.lam(1)])  # lambda*t + mu
        assert p.specialize(2, 3) == (3, 2)
        assert all(type(c) is Fraction for c in p.specialize(2, 3))

    def test_annihilation_at_one(self):
        p = TPoly([LaurentPoly.lam(1) - 1, LaurentPoly.mu(1) - 1])
        assert p.specialize(1, 1) == ()

    def test_degree_drop(self):
        p = TPoly([0, 1, LaurentPoly.lam(2) - 4])  # (l^2 - 4) t^2 + t
        assert p.specialize(2, 5) == (0, 1)

    def test_zero_parameter_rejected(self):
        p = TPoly.t()
        with pytest.raises(ZeroParameterError):
            p.specialize(0, 1)
        with pytest.raises(ZeroParameterError):
            p.specialize(1, 0)

    @given(small_tpolys, small_tpolys, nonzero_rationals, nonzero_rationals)
    @settings(max_examples=100)
    def test_commutes_with_ring_ops(self, f, g, lam0, mu0):
        at = lambda p: QPoly(p.specialize(lam0, mu0))
        assert at(f * g) == at(f) * at(g)
        assert at(f + g) == at(f) + at(g)

    @given(small_tpolys, nonzero_rationals, nonzero_rationals)
    def test_sigma_specializes_to_inverted_parameters(self, f, lam0, mu0):
        assert f.sigma().specialize(lam0, mu0) == f.specialize(1 / lam0, 1 / mu0)


class TestTermsAndTimesT:
    """TPoly.terms, the flat term view of the packed paths, and
    TPoly.times_t, the shift by t of the transfer column."""

    @given(small_tpolys)
    @example(TPoly.zero())
    @example(TPoly([LaurentPoly.lam(-2), 0, LaurentPoly({(1, 3): -4, (0, 0): 7})]))
    def test_terms_are_the_rows_terms(self, f):
        terms = f.terms()
        assert terms == {
            (i, el, em): c
            for i, row in enumerate(f.coeffs)
            for (el, em), c in row.terms().items()
        }
        assert 0 not in terms.values()

    @given(small_tpolys)
    @example(TPoly.zero())
    @example(TPoly([0, LaurentPoly.mu(5)]))
    def test_times_t_is_the_product_with_t(self, f):
        shifted = f.times_t()
        assert shifted == f * TPoly.t()
        assert shifted.coeffs == (f * TPoly.t()).coeffs
        assert shifted.degree == (f.degree + 1 if f else -1)


class TestExactDiv:
    """QPoly's division, the oracle's long division over Q, and the shift
    down by t^k that opens certify._peel, the only division of a TPoly."""

    def test_t_squared_plus_t(self):
        f = QPoly([0, 1, 1])
        assert f.exact_div(QPoly([1, 1])) == QPoly.t()

    @given(small_qpolys, small_qpolys.filter(bool))
    def test_round_trip_rational(self, q, g):
        assert (q * g).exact_div(g) == q

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            QPoly([1, 0, 1]).exact_div(QPoly([1, 1]))

    @given(small_qpolys, small_qpolys.filter(bool))
    def test_divmod_identity(self, f, g):
        # the long division behind every QPoly.exact_div
        quot, rem = map(QPoly, div_rem(f.coeffs, g.coeffs))
        assert quot * g + rem == f
        assert rem.degree < g.degree
        if f.degree < g.degree:
            assert (quot, rem) == (QPoly.zero(), f)

    def test_lower_degree_dividend_is_inexact(self):
        with pytest.raises(InexactDivisionError):
            QPoly([1]).exact_div(QPoly([1, 1]))
        assert QPoly.zero().exact_div(QPoly([1, 1])) == QPoly.zero()

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QPoly([1, 1]).exact_div(QPoly.zero())
        with pytest.raises(ZeroDivisionError):
            div_rem([1, 1], [])

    def test_shift_down(self):
        # t_power rows dropped, then t_power divisions by t + 1
        lam = LaurentPoly.lam(1)
        t1 = TPoly.t() + TPoly.one()
        f = TPoly([0, 0, lam]) * t1 * t1
        assert _peel(f, 2, LaurentPoly.one()) == TPoly.const(lam)
        with pytest.raises(InexactDivisionError):
            _peel(TPoly.one(), 1, LaurentPoly.one())


# products with a shared factor, so gcds of every degree occur; the empty
# list and single entries give zero and constant operands
gcd_operands = st.tuples(small_qpolys, small_qpolys, small_qpolys).map(
    lambda t: (t[0] * t[2], t[1] * t[2])
)


class TestPower:
    """Every power shares one square-and-multiply loop; check it against
    repeated products, negative exponents included where defined (the
    Laurent case is in test_laurent)."""

    @staticmethod
    def repeated(base, n, one):
        out = one
        for _ in range(n):
            out = out * base
        return out

    @given(small_qpolys, small_tpolys, laurents, st.integers(0, 3))
    @settings(max_examples=50)
    def test_polynomials(self, q, t, lp, n):
        assert q ** (2 * n) == self.repeated(q, 2 * n, QPoly.one())
        assert t ** n == self.repeated(t, n, TPoly.one())
        assert lp ** n == self.repeated(lp, n, LaurentPoly.one())

    @given(words, st.integers(-6, 6))
    def test_words(self, w, n):
        base = w if n >= 0 else w.inverse()
        assert w ** n == self.repeated(base, abs(n), Word())

    @pytest.mark.parametrize("n", range(-5, 6))
    def test_det1_matrices(self, n):
        g = random_sl2(random.Random(n))
        base = g if n >= 0 else g.inv_det1()
        assert g.pow_det1(n, identity_q()) == self.repeated(base, abs(n), identity_q())

    def test_negative_polynomial_powers(self):
        with pytest.raises(ValueError):
            QPoly.t() ** -1
        with pytest.raises(ValueError):
            TPoly.t() ** -1


def zgcd_q(f: QPoly, g: QPoly) -> QPoly:
    """zgcd of the primitive integer forms of f and g, made monic."""
    d = zgcd(f.primitive_ints(), g.primitive_ints())
    assert d[-1] > 0 and zprimitive(d) == d
    return QPoly(d).monic()


class TestGcd:
    """zgcd on rational operands, through the oracle's primitive_ints,
    against Euclid's algorithm with rational remainders."""

    @given(gcd_operands)
    @settings(max_examples=300)
    def test_matches_fraction_euclid(self, operands):
        f, g = operands
        if not f and not g:
            return
        assert zgcd_q(f, g) == gcd_fraction_euclid(f, g)
        assert zgcd_q(g, f) == gcd_fraction_euclid(f, g)

    @pytest.mark.parametrize(
        "f, g",
        [
            (QPoly.zero(), QPoly([3])),
            (QPoly([Fraction(-2, 3)]), QPoly([1, 2, 3])),
            (QPoly([0, 0, Fraction(5, 7)]), QPoly.zero()),
            (QPoly([-1, 0, 1]) * 10**30, QPoly([1, 1]) * Fraction(1, 10**20)),
        ],
    )
    def test_zero_constant_and_scaled_operands(self, f, g):
        assert zgcd_q(f, g) == gcd_fraction_euclid(f, g)

    def test_golden(self):
        assert zgcd([-1, 0, 1], [-1, 1]) == [-1, 1]

    def test_gcd_with_zero_is_monic(self):
        f = QPoly([2, 0, 4])
        assert zgcd(f.primitive_ints(), []) == [1, 0, 2]
        assert zgcd_q(f, QPoly.zero()) == QPoly([Fraction(1, 2), 0, 1])

    def test_both_zero_raises(self):
        with pytest.raises(ValueError):
            zgcd([], [])

    @given(st.data())
    @settings(max_examples=60)
    def test_coprime_products_of_distinct_linear_factors(self, data):
        roots = data.draw(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=3),
                min_size=2,
                max_size=6,
                unique=True,
            )
        )
        split = data.draw(st.integers(1, len(roots) - 1))
        f = QPoly.one()
        for r in roots[:split]:
            f = f * QPoly([-r, 1])
        g = QPoly.one()
        for r in roots[split:]:
            g = g * QPoly([-r, 1])
        assert zgcd(f.primitive_ints(), g.primitive_ints()) == [1]

    def test_squarefree_part(self):
        f = QPoly([-1, 1]) ** 3 * QPoly([2, 1])
        expected = (QPoly([-1, 1]) * QPoly([2, 1])).monic()
        assert squarefree_part(f) == expected
        ints = f.primitive_ints()
        assert QPoly(zexact_div(ints, zgcd(ints, zderivative(ints)))).monic() == expected

    def test_squarefree_without_roots(self):
        f = QPoly([0, 1]) ** 2 * QPoly([1, 1]) * QPoly([-5, 1])
        assert squarefree_without(f, [Fraction(0), Fraction(-1)]) == QPoly([-5, 1])
        assert _stripped_squarefree(f.primitive_ints()) == ([-5, 1], 2, 1)


class TestRationalRootsAndFactor:
    def test_rational_roots_small(self):
        p = QPoly([-6, 11, -6, 1])  # (t-1)(t-2)(t-3)
        assert p.rational_roots() == [1, 2, 3]

    def test_rational_roots_with_big_coefficients(self):
        r = Fraction(-49, 48)
        big = 10**40 + 7
        p = QPoly([-r * big, big]) * QPoly([3, 0, 5])
        assert p.rational_roots() == [r]

    def test_rational_roots_fractional_intermediate_quotients(self):
        p = QPoly([-1, 2]) * QPoly([-2, 3]) * QPoly([1, 0, 1])
        assert p.rational_roots() == [Fraction(1, 2), Fraction(2, 3)]

    def test_irreducible_quadratic(self):
        assert QPoly([2, 0, 1]).rational_roots() == []
        assert real_roots([2, 0, 1]) == []

    def test_factor_mixed_cubic(self):
        # the rational root splits off the linear factor; the rest is irreducible
        h = QPoly([Fraction(49, 48), 1]) * QPoly([1, 0, 1])
        assert h.rational_roots() == [Fraction(-49, 48)]
        assert h.exact_div(QPoly([Fraction(49, 48), 1])) == QPoly([1, 0, 1])

    def test_factor_degree_cap(self):
        # witnesses factor h by its rational roots, which needs degree <= 3
        cert = Certificate(
            DCParams(1, 1, 2, 3), CertStatus.CERTIFIED, Fraction(2), Fraction(3),
            (1, 0, 0, 0, 1), None, 1,
        )
        with pytest.raises(ValueError, match="degree 1 to 3"):
            build_witness(cert)

    def test_clear_denominators(self):
        p = QPoly([Fraction(1, 2), Fraction(-3, 4)])
        assert p.primitive_ints() == [-2, 3]
        assert QPoly([Fraction(-2, 7), 0, Fraction(4, 21)]).primitive_ints() == [-3, 0, 2]


class TestResultant:
    def test_linear_convention(self):
        # res(t - a, t - b) = lc^1 * (a - b) under the product-over-roots rule
        a, b = 5, 2
        assert resultant(TPoly([-a, 1]), TPoly([-b, 1])) == a - b
        lam, mu = LaurentPoly.lam(1), LaurentPoly.mu(1)
        f = TPoly([-lam, LaurentPoly.one()])
        g = TPoly([-mu, LaurentPoly.one()])
        assert resultant(f, g) == lam - mu

    def test_shared_root_gives_zero(self):
        shared = TPoly([LaurentPoly.lam(1), LaurentPoly.one()])
        f = shared * TPoly([LaurentPoly.mu(1), LaurentPoly.one()])
        g = shared * TPoly([LaurentPoly.one() * 3, LaurentPoly.one()])
        assert resultant(f, g) == LaurentPoly.zero()

    @given(st.data())
    @settings(max_examples=40)
    def test_disjoint_linear_factors_nonzero(self, data):
        roots = data.draw(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=3),
                min_size=2,
                max_size=5,
                unique=True,
            )
        )
        split = data.draw(st.integers(1, len(roots) - 1))
        # the root p/q is that of the integer factor q t - p, and
        # res(q t - p, s t - r) = q s (p/q - r/s)
        f = TPoly.one()
        for r in roots[:split]:
            f = f * TPoly([-r.numerator, r.denominator])
        g = TPoly.one()
        for r in roots[split:]:
            g = g * TPoly([-r.numerator, r.denominator])
        expected = Fraction(1)
        for rf in roots[:split]:
            for rg in roots[split:]:
                expected *= rf.denominator * rg.denominator * (rf - rg)
        assert resultant(f, g) == int(expected)

    @given(small_tpolys.filter(bool), small_tpolys.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_prs_matches_sylvester(self, f, g):
        assert resultant(f, g) == resultant_sylvester(f, g)

    @given(sympy_tpolys, sympy_tpolys)
    @example(TPoly([0, 2]), TPoly([1, 0, 0, 1]))
    @example(
        TPoly([LaurentPoly.lam(-1), LaurentPoly.mu(2)]),
        TPoly([1, LaurentPoly.lam(1), 0, LaurentPoly.mu(-1) * 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, f, g):
        sympy = pytest.importorskip("sympy")
        lam, mu, t = sympy.symbols("lam mu t")

        def laurent(c: LaurentPoly):
            return sum(v * lam**el * mu**em for (el, em), v in c.terms().items())

        def cleared(p: TPoly):
            """(c p, c) for the monomial c that makes p's coefficients polynomial."""
            exps = [e for c in p.coeffs for e in c.terms()]
            c = lam ** -min(el for el, _ in exps) * mu ** -min(em for _, em in exps)
            return sympy.expand(c * sum(laurent(a) * t**i for i, a in enumerate(p.coeffs))), c

        (cf, c), (cg, d) = cleared(f), cleared(g)
        # sympy 1.14 returns res(g, f) when deg f < deg g, without the swap's
        # sign (-1)^(deg f deg g) (its resultant of 2t and t^3 + 1 is -8 in
        # both orders), so it is asked with the higher degree first
        if f.degree < g.degree:
            expected = (-1) ** (f.degree * g.degree) * sympy.resultant(cg, cf, t)
        else:
            expected = sympy.resultant(cf, cg, t)
        # res(c f, d g) = c^deg g d^deg f res(f, g)
        expected /= c**g.degree * d**f.degree
        assert sympy.expand(expected - laurent(resultant(f, g))) == 0

    def test_swap_sign_rule(self):
        rng = random.Random(5)
        for _ in range(20):
            f = TPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))])
            g = TPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))])
            if f.degree < 1 or g.degree < 1:
                continue
            sign = (-1) ** (f.degree * g.degree)
            assert resultant(f, g) == sign * resultant(g, f)


@st.composite
def packing_pairs(draw, integer=False):
    """Two TPolys of degree 0 to 3 that the packed resultant takes on when
    both have degree 1 or more: every coefficient has 5 to 9 terms in a
    3 x 3 window of exponents with strides shared by both, so the box has
    fewer slots than the pairs of terms.  Each operand has its own
    negative or positive offset; with a coin flip both are multiplied by a
    common linear factor, so that the resultant is 0."""
    strides = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    scalars = st.integers(-6, 6) if integer else small_scalars
    window = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def operand(degree):
        (l0, m0) = draw(st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
        coeffs = []
        for _ in range(degree + 1):
            terms = draw(st.dictionaries(window, scalars.filter(bool), min_size=5, max_size=9))
            coeffs.append(
                LaurentPoly(
                    {(l0 + strides[0] * u, m0 + strides[1] * v): c for (u, v), c in terms.items()}
                )
            )
        return TPoly(coeffs)

    shared = draw(st.booleans())
    top = 2 if shared else 3
    f, g = operand(draw(st.integers(0, top))), operand(draw(st.integers(0, top)))
    if shared:
        h = operand(1)
        f, g = f * h, g * h
    return f, g


def laurent_resultant(f: TPoly, g: TPoly) -> LaurentPoly:
    """The resultant by the subresultant PRS over the Laurent ring: the
    path resultant takes when the packed one declines."""
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return polycore.resultant_prs(f.coeffs, g.coeffs, one, zero, LaurentPoly.exact_div)


class TestPackedResultant:
    """tpoly.resultant packs both operands into Z[t] at one Kronecker point;
    the Sylvester determinant and the Laurent-ring PRS are its oracles."""

    @given(packing_pairs())
    @example((TPoly([-1, 1]), TPoly([1, 1])))  # res = 2, exactly the bound
    @settings(max_examples=40, deadline=None)
    def test_matches_sylvester_and_laurent_prs(self, pair):
        f, g = pair
        packed = tpoly._packed_resultant(f, g)
        assert (packed is None) == (f.degree == 0 or g.degree == 0)
        expected = resultant_sylvester(f, g)
        assert resultant(f, g) == expected
        if packed is not None:
            assert packed == expected == laurent_resultant(f, g)
            # the other argument order differs by (-1)^(deg f deg g)
            swapped = tpoly._packed_resultant(g, f)
            assert swapped == (-1) ** (f.degree * g.degree) * packed

    @pytest.mark.parametrize(
        "params, vanishes",
        [((-1, -1, -2, 1), False), ((1, 1, 1, -2), False), ((2, 1, -1, 1), True),
         ((-1, 1, 1, -1), True)],
        ids=["generic", "k=m", "l=n", "anti"],
    )
    def test_tables_take_the_packed_path(self, params, vanishes):
        cp = core_polys(DCParams(*params))
        packed = tpoly._packed_resultant(cp.tau, cp.gamma_inner)
        assert packed is not None and (packed == 0) == vanishes
        assert packed == laurent_resultant(cp.tau, cp.gamma_inner)
        assert packed == resultant_sylvester(cp.tau, cp.gamma_inner)

    @given(packing_pairs(integer=True).filter(lambda p: p[0].degree and p[1].degree))
    @example((TPoly([1, 1]), TPoly([-1, 1])))
    @example((TPoly([-1, 1]), TPoly([1, 1])))
    # g(1 + lambda) for g = t^6 + ... + 1 has the coefficient C(7, 3) = 35,
    # which a bound from the largest coefficients instead of l1 norms misses
    @example((TPoly([LaurentPoly({(0, 0): -1, (1, 0): -1}), 1]), TPoly([1] * 7)))
    @settings(max_examples=40, deadline=None)
    def test_slot_holds_every_coefficient(self, pair):
        f, g = pair
        a, b = (p.terms() for p in (f, g))
        k = tpoly._slot_width(a, b, f.degree, g.degree)
        expected = resultant_sylvester(f, g)
        assert all(abs(c) < 2 ** (k - 1) for c in expected.terms().values())
        assert tpoly._packed_resultant(f, g) == expected

    def test_tight_bound(self):
        # res(t - 1, t + 1) = 2 is the Hadamard bound sqrt(2 * 2) itself
        f, g = TPoly([-1, 1]), TPoly([1, 1])
        a, b = (p.terms() for p in (f, g))
        assert tpoly._slot_width(a, b, 1, 1) == 3
        assert tpoly._packed_resultant(f, g) == LaurentPoly.const(2)

    def test_strided_exponents_are_deflated(self):
        # exponents in 1000 Z deflate to a box of 9 slots for 35 pairs of
        # terms; undeflated it would have 8001
        lam = LaurentPoly.lam
        f = TPoly([lam(1000) - 1, lam(1000) + 2 + lam(-1000), lam(1000) * 3 + 1])
        g = TPoly([lam(2000) - lam(1000) + 3, lam(-1000) * 2 - 5])
        packed = tpoly._packed_resultant(f, g)
        assert packed is not None
        assert packed == resultant_sylvester(f, g) == laurent_resultant(f, g)

    def test_sparse_box_declines(self):
        # lambda^1000 - 1 next to lambda + 1: a box of 2010 slots for 15
        # pairs of terms
        lam = LaurentPoly.lam
        f = TPoly([lam(1) + 1, lam(1000) - 1, LaurentPoly.mu(1)])
        g = TPoly([lam(1) * 2, lam(-1) + 1])
        assert tpoly._packed_resultant(f, g) is None
        assert resultant(f, g) == resultant_sylvester(f, g)

    def test_tiny_pair_packs(self):
        # no coefficient of more than four terms, no degree 0: packed
        lam, mu = LaurentPoly.lam(1), LaurentPoly.mu(1)
        f = TPoly([lam + mu, lam - 1, 1])
        g = TPoly([mu * 3, lam + mu + 1])
        packed = tpoly._packed_resultant(f, g)
        assert packed is not None
        assert packed == resultant(f, g) == resultant_sylvester(f, g)


# bit lengths on both sides of the cutoffs of tpoly._schoolbook: a divisor
# of 9000 bits, a quotient of 4500
DIVISOR_BITS = st.sampled_from([1, 2, 64, 8999, 9000, 9001, 9002, 20000]) | st.integers(1, 20000)
QUOTIENT_BITS = st.sampled_from([0, 1, 4499, 4500, 4501, 4502, 30000]) | st.integers(0, 30000)


@st.composite
def division_operands(draw):
    """(a, b, exact) with a = q b + r for signed integers: b is +-1, a power
    of two, all ones, its top bit over a low half of ones, or random; q is
    0 (then a = 0 or |a| < |b|), a power of two, all ones or random; r is
    0 for an exact division, else nonzero with |r| < |b|, random or the
    largest."""
    rng = draw(st.randoms(use_true_random=False))
    nb, nq = draw(DIVISOR_BITS), draw(QUOTIENT_BITS)
    shapes = {
        "random": lambda n: rng.getrandbits(n) | 1 << (n - 1) if n else 0,
        "power of two": lambda n: 1 << (n - 1) if n else 0,
        "all ones": lambda n: (1 << n) - 1,
        "low half ones": lambda n: 1 << (n - 1) | (1 << n // 2) - 1 if n else 0,
    }
    b = shapes[draw(st.sampled_from(sorted(shapes)))](nb)
    q = shapes[draw(st.sampled_from(sorted(shapes)))](nq)
    exact = b == 1 or draw(st.booleans())
    r = 0 if exact else draw(st.sampled_from([rng.randrange(1, b), b - 1]))
    b *= draw(st.sampled_from([1, -1]))
    return draw(st.sampled_from([1, -1])) * (q * abs(b) + r), b, exact


# (b, q): dividing q b + b - 1 by b, a 3n/2n step corrects its estimate twice
TWO_CORRECTIONS = 1 << 9999 | (1 << 5000) - 1, 10**3000

# dividing ALL_ONES^2 by ALL_ONES, three 3n/2n steps find a12 >> h equal to
# the top half of the divisor, so that a12 // b1 would have h + 1 bits
ALL_ONES = (1 << 20000) - 1


class TestExactIntDiv:
    """tpoly._exact_int_div, the one division of the packed resultant, against
    Python's own // and divmod, on either side of its cutoff."""

    @given(division_operands())
    @example((0, 3, True))
    @example((0, -(1 << 9000) - 1, True))
    @example((5, 7, False))
    @example((-(1 << 20000) + 1, 1 << 9500, False))
    @example(((1 << 30000) - 1, -1, True))
    @example((TWO_CORRECTIONS[1] * TWO_CORRECTIONS[0] + TWO_CORRECTIONS[0] - 1,
              TWO_CORRECTIONS[0], False))
    @example((ALL_ONES * ALL_ONES, ALL_ONES, True))
    @settings(max_examples=80, deadline=None)
    def test_matches_floor_division(self, operands):
        a, b, exact = operands
        if exact:
            assert tpoly._exact_int_div(a, b) == a // b
        else:
            with pytest.raises(InexactDivisionError):
                tpoly._exact_int_div(a, b)
        # the recursive route, whichever route the cutoff picks
        assert tpoly._recursive_divmod(abs(a), abs(b)) == divmod(abs(a), abs(b))

    def test_estimate_of_h_plus_one_bits(self, monkeypatch):
        overflows = []
        div3n2n = tpoly._div3n2n

        def spy(a12, a3, b, h):
            overflows.append(a12 >> h == b >> h)
            return div3n2n(a12, a3, b, h)

        monkeypatch.setattr(tpoly, "_div3n2n", spy)
        assert tpoly._recursive_divmod(ALL_ONES * ALL_ONES, ALL_ONES) == (ALL_ONES, 0)
        assert overflows.count(True) == 3

    def test_the_cutoff_picks_the_route(self, monkeypatch):
        calls = []
        recursive = tpoly._recursive_divmod
        monkeypatch.setattr(
            tpoly, "_recursive_divmod", lambda a, b: calls.append(1) or recursive(a, b)
        )
        rng = random.Random(3)
        # a = b 2^s has exactly s bits more than b
        for nb, s, expected in [(9001, 4501, 1), (9000, 4501, 0), (9001, 4500, 0),
                                (60000, 90000, 1)]:
            b = rng.getrandbits(nb) | 1 << (nb - 1)
            calls.clear()
            assert tpoly._exact_int_div(-b << s, b) == -1 << s
            assert len(calls) == expected, (nb, s)

    def test_generic_table_recurses(self, monkeypatch):
        # the last division of res(tau, gamma_inner) at (-1, -1, -2, 1) is
        # 151k by 76k bits, above the cutoff
        calls = []
        div2n1n = tpoly._div2n1n
        monkeypatch.setattr(
            tpoly, "_div2n1n", lambda a, b, n: calls.append(n) or div2n1n(a, b, n)
        )
        cp = core_polys(DCParams(-1, -1, -2, 1))
        resultant(cp.tau, cp.gamma_inner)  # its value: test_tables_take_the_packed_path
        assert max(calls) > 70000


class TestPretty:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ([], "0"),
            ([Fraction(1, 2), -1, 0, -3], "-3·t^3 - t + 1/2"),
            ([-1, 1], "t - 1"),
            ([0, Fraction(-2, 3)], "-2/3·t"),
            ([-7], "-7"),
            ([1, 0, 1], "t^2 + 1"),
        ],
    )
    def test_qpoly(self, coeffs, text):
        assert polycore.pretty(coeffs) == text
        assert polycore.pretty(coeffs, "x") == text.replace("t", "x")

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ([], "0"),
            ([0, 1, 1], "t^2 + t"),
            ([LaurentPoly.lam(), 0, 1], "t^2 + λ"),
            ([LaurentPoly.lam() - 1, 1 - LaurentPoly.mu(-1)], "(1 - μ⁻¹)·t + (λ - 1)"),
            ([2, -LaurentPoly.lam(2)], "-λ²·t + 2"),
            ([1, -2 + LaurentPoly.lam(-1)], "(-2 + λ⁻¹)·t + 1"),
            # a later one-term coefficient with a negative scalar is subtracted
            (
                [-3 * LaurentPoly.lam(), 0, 1 - LaurentPoly.mu(-1), -LaurentPoly.lam(2)],
                "-λ²·t^3 + (1 - μ⁻¹)·t^2 - 3λ",
            ),
            ([1, -1, 2 * LaurentPoly.lam() * LaurentPoly.mu(), 1], "t^3 + 2λμ·t^2 - t + 1"),
            # a leading coefficient -1 is a sign, as polycore.pretty writes it
            ([1, -1], "-t + 1"),
            ([0, 0, -1], "-t^2"),
            ([5, -1, 2], "2·t^2 - t + 5"),
            ([-1], "-1"),
        ],
    )
    def test_tpoly(self, coeffs, text):
        assert TPoly(coeffs).pretty() == text
        assert TPoly(coeffs).pretty("s") == text.replace("t", "s")
