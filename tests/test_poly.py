import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2wiggle.errors import InexactDivisionError, ZeroParameterError
from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import identity_q
from sl2wiggle.certify import _stripped_squarefree
from sl2wiggle.exact.qpoly import (
    QPoly,
    factor_cubic_or_less,
    gcd_q,
    resultant_q,
    zderivative,
    zexact_div,
    zgcd,
)
from sl2wiggle.exact.tpoly import TPoly, resultant, resultant_sylvester
from sl2wiggle.words import Word

from conftest import laurents, nonzero_rationals, random_sl2, words
from fraction_reference import gcd_fraction_euclid, squarefree_part, squarefree_without

small_qpolys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=5
).map(QPoly)

small_tpolys = st.lists(laurents, max_size=4).map(TPoly)


class TestSpecialize:
    def test_direct_substitution(self):
        p = TPoly([LaurentPoly.mu(1), LaurentPoly.lam(1)])  # lambda*t + mu
        assert p.specialize(2, 3) == QPoly([3, 2])

    def test_annihilation_at_one(self):
        p = TPoly([LaurentPoly.lam(1) - 1, LaurentPoly.mu(1) - 1])
        assert p.specialize(1, 1) == QPoly.zero()

    def test_degree_drop(self):
        p = TPoly([0, 1, LaurentPoly.lam(2) - 4])  # (l^2 - 4) t^2 + t
        assert p.specialize(2, 5) == QPoly.t()

    def test_zero_parameter_rejected(self):
        p = TPoly.t()
        with pytest.raises(ZeroParameterError):
            p.specialize(0, 1)
        with pytest.raises(ZeroParameterError):
            p.specialize(1, 0)

    @given(small_tpolys, small_tpolys, nonzero_rationals, nonzero_rationals)
    @settings(max_examples=100)
    def test_commutes_with_ring_ops(self, f, g, lam0, mu0):
        assert (f * g).specialize(lam0, mu0) == f.specialize(lam0, mu0) * g.specialize(
            lam0, mu0
        )
        assert (f + g).specialize(lam0, mu0) == f.specialize(lam0, mu0) + g.specialize(
            lam0, mu0
        )

    @given(small_tpolys, nonzero_rationals, nonzero_rationals)
    def test_sigma_specializes_to_inverted_parameters(self, f, lam0, mu0):
        assert f.sigma().specialize(lam0, mu0) == f.specialize(1 / lam0, 1 / mu0)


class TestExactDiv:
    def test_t_squared_plus_t(self):
        f = QPoly([0, 1, 1])
        assert f.exact_div(QPoly([1, 1])) == QPoly.t()

    def test_self_division(self):
        f = TPoly([LaurentPoly.lam(1), LaurentPoly.one(), LaurentPoly.mu(-2)])
        assert f.exact_div(f) == TPoly.one()

    @given(small_tpolys, small_tpolys.filter(bool))
    @settings(max_examples=100)
    def test_round_trip(self, q, g):
        assert (q * g).exact_div(g) == q

    @given(small_qpolys, small_qpolys.filter(bool))
    def test_round_trip_rational(self, q, g):
        assert (q * g).exact_div(g) == q

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            QPoly([1, 0, 1]).exact_div(QPoly([1, 1]))
        with pytest.raises(InexactDivisionError):
            TPoly([LaurentPoly.lam(1), LaurentPoly.one()]).exact_div(
                TPoly([LaurentPoly.mu(1), LaurentPoly.one()])
            )

    @given(small_qpolys, small_qpolys.filter(bool))
    def test_divmod_identity(self, f, g):
        quot, rem = f.divmod(g)
        assert quot * g + rem == f
        assert rem.degree < g.degree
        assert f % g == rem
        if f.degree < g.degree:
            assert (quot, rem) == (QPoly.zero(), f)

    def test_lower_degree_dividend_is_inexact(self):
        with pytest.raises(InexactDivisionError):
            QPoly([1]).exact_div(QPoly([1, 1]))
        with pytest.raises(InexactDivisionError):
            TPoly.one().exact_div(TPoly.t())
        assert QPoly.zero().exact_div(QPoly([1, 1])) == QPoly.zero()

    def test_division_by_zero_raises(self):
        for op in (QPoly.divmod, QPoly.exact_div, QPoly.__mod__):
            with pytest.raises(ZeroDivisionError):
                op(QPoly([1, 1]), QPoly.zero())

    def test_shift_down(self):
        f = TPoly([0, 0, LaurentPoly.lam(1)])
        assert f.shift_down(2) == TPoly.const(LaurentPoly.lam(1))
        with pytest.raises(InexactDivisionError):
            TPoly.one().shift_down(1)


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
        assert w ** n == self.repeated(base, abs(n), Word.identity())

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


class TestGcd:
    @given(gcd_operands)
    @settings(max_examples=300)
    def test_matches_fraction_euclid(self, operands):
        f, g = operands
        if not f and not g:
            return
        assert gcd_q(f, g) == gcd_fraction_euclid(f, g)
        assert gcd_q(g, f) == gcd_fraction_euclid(f, g)

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
        assert gcd_q(f, g) == gcd_fraction_euclid(f, g)

    def test_golden(self):
        assert gcd_q(QPoly([-1, 0, 1]), QPoly([-1, 1])) == QPoly([-1, 1])

    def test_gcd_with_zero_is_monic(self):
        f = QPoly([2, 0, 4])
        assert gcd_q(f, QPoly.zero()) == QPoly([Fraction(1, 2), 0, 1])

    def test_both_zero_raises(self):
        with pytest.raises(ValueError):
            gcd_q(QPoly.zero(), QPoly.zero())

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
        assert gcd_q(f, g) == QPoly.one()

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
        assert factor_cubic_or_less(QPoly([2, 0, 1])) == [QPoly([2, 0, 1])]

    def test_factor_mixed_cubic(self):
        h = QPoly([Fraction(49, 48), 1]) * QPoly([1, 0, 1])
        factors = factor_cubic_or_less(h)
        assert factors == [QPoly([Fraction(49, 48), 1]), QPoly([1, 0, 1])]

    def test_factor_degree_cap(self):
        with pytest.raises(ValueError):
            factor_cubic_or_less(QPoly([1, 0, 0, 0, 1]))

    def test_clear_denominators(self):
        p = QPoly([Fraction(1, 2), Fraction(-3, 4)])
        assert p.clear_denominators() == QPoly([-2, 3])


class TestResultant:
    def test_linear_convention(self):
        # res(t - a, t - b) = lc^1 * (a - b) under the product-over-roots rule
        a, b = Fraction(5), Fraction(2)
        assert resultant_q(QPoly([-a, 1]), QPoly([-b, 1])) == a - b
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
        f = QPoly.one()
        for r in roots[:split]:
            f = f * QPoly([-r, 1])
        g = QPoly.one()
        for r in roots[split:]:
            g = g * QPoly([-r, 1])
        value = resultant_q(f, g)
        expected = Fraction(1)
        for rf in roots[:split]:
            for rg in roots[split:]:
                expected *= rf - rg
        assert value == expected

    @given(small_tpolys.filter(bool), small_tpolys.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_prs_matches_sylvester(self, f, g):
        assert resultant(f, g) == resultant_sylvester(f, g)

    def test_swap_sign_rule(self):
        rng = random.Random(5)
        for _ in range(20):
            f = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))])
            g = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))])
            if not f or not g or f.degree < 1 or g.degree < 1:
                continue
            sign = (-1) ** (f.degree * g.degree)
            assert resultant_q(f, g) == sign * resultant_q(g, f)
