"""Exact real-root isolation, rational roots and small factorizations,
checked against the numeric search they replaced and against sympy."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2wiggle.certify import _witness_point
from sl2wiggle.exact.qpoly import QPoly, real_roots, zexact_div

from fraction_reference import squarefree_part
from root_reference import (
    NotConverged,
    rational_roots_numeric,
    real_root_approximations,
    smallest_root_numeric,
)

BIG = 10**40

coefficients = st.one_of(
    st.integers(-9, 9), st.integers(-BIG, BIG), st.sampled_from([BIG, -BIG, 0])
)


def int_polys(max_degree: int = 6):
    """Nonconstant integer polynomials with coefficients up to 1e40."""
    return (
        st.lists(coefficients, min_size=2, max_size=max_degree + 1)
        .map(QPoly)
        .filter(lambda f: f.degree >= 1)
    )


small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
huge_q = st.integers(10**20 - 10**6, 10**20 + 10**6)


@st.composite
def polys_with_rational_roots(draw, max_degree: int = 6):
    """(f, roots): f of degree <= max_degree with the given rational roots,
    among them clustered pairs p/q and p/q + 1/q^2 with q about 1e20, huge
    roots, a root at 0 and repeated roots, times an integer cofactor."""
    roots = []
    if draw(st.booleans()):
        q = draw(huge_q)
        p = draw(st.integers(-3 * q, 3 * q))
        roots += [Fraction(p, q), Fraction(p, q) + Fraction(1, q * q)]
    if draw(st.booleans()):
        roots.append(Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, 10**6))))
    if draw(st.booleans()):
        roots.append(Fraction(0))
    roots += draw(st.lists(small_fractions, max_size=3))
    cofactor = draw(
        st.sampled_from([QPoly.one(), QPoly([1, 0, 1]), QPoly([-2, 0, 1])])
        | int_polys(max_degree=min(3, max_degree))
    )
    f, kept, budget = cofactor, set(), max_degree - cofactor.degree
    for r in roots:
        m = min(draw(st.integers(1, 3)), budget)
        if m < 1:
            break
        f, budget = f * QPoly([-r, 1]) ** m, budget - m
        kept.add(r)
    assume(f.degree >= 1)
    return f, kept


def rooted_polys(max_degree: int = 6):
    return polys_with_rational_roots(max_degree).map(lambda case: case[0])


def _sympy_poly(f: QPoly):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    return sympy.Poly(coeffs, t)


def _roots_in(sp, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the sympy polynomial sp in (lo, hi]."""
    sympy = pytest.importorskip("sympy")
    a = sympy.Rational(lo.numerator, lo.denominator)
    b = sympy.Rational(hi.numerator, hi.denominator)
    return sp.count_roots(a, b) - (sp.eval(a) == 0)


def _check_isolation(f: QPoly, roots) -> None:
    """Ordered disjoint half-open intervals, each holding a sign change of
    the squarefree polynomial behind them (or an exact root)."""
    previous = None
    for root in roots:
        lo, hi = root.bounds
        assert lo <= hi
        if previous is not None:
            assert previous <= lo
        previous = hi
        poly = QPoly(root.poly)
        assert zexact_div(f.primitive_ints(), root.poly) is not None
        a, b = poly.evaluate(lo), poly.evaluate(hi)
        if lo == hi:
            assert b == 0
        else:  # a root at hi or a sign change; a root at lo is the previous one
            assert b == 0 or a == 0 or (a > 0) != (b > 0)


class TestRealRoots:
    def test_small_examples(self):
        cubic = QPoly([-6, 11, -6, 1])  # (t-1)(t-2)(t-3)
        intervals = [r.bounds for r in real_roots(cubic)]
        assert len(intervals) == 3
        for (lo, hi), r in zip(intervals, (1, 2, 3)):
            assert lo < r <= hi
        assert real_roots(QPoly([1, 0, 1])) == []
        (root,) = real_roots(QPoly([0, 5]))
        assert root.refined(10).bounds == (0, 0)  # bisection lands on 0

    def test_repeated_roots_are_isolated_once(self):
        f = QPoly([-1, 3]) ** 3 * QPoly([0, 1]) ** 2 * QPoly([-2, 0, 1])
        roots = real_roots(f)
        assert len(roots) == 4
        assert QPoly(roots[0].poly).degree == 4  # the squarefree part
        _check_isolation(f, roots)

    def test_constant_is_rejected(self):
        with pytest.raises(ValueError):
            real_roots(QPoly([3]))

    @given(int_polys())
    @settings(max_examples=40, deadline=None)
    def test_intervals_match_numeric_roots(self, f):
        roots = real_roots(f)
        _check_isolation(f, roots)
        squarefree = QPoly(roots[0].poly if roots else f.primitive_ints())
        try:
            approx = real_root_approximations(squarefree)
        except NotConverged:
            assume(False)
        # every numeric real root falls in one interval, refined to 2^-80
        assert len(approx) == len(roots)
        for root, a in zip(roots, sorted(approx)):
            lo, hi = root.refined(80).bounds
            assert lo - Fraction(1, 2**60) <= a <= hi + Fraction(1, 2**60)

    @given(int_polys() | rooted_polys())
    @settings(max_examples=80, deadline=None)
    def test_intervals_match_sympy(self, f):
        sp = _sympy_poly(f)
        roots = real_roots(f)
        _check_isolation(f, roots)
        assert len(roots) == sp.count_roots()
        for root in roots:
            lo, hi = root.bounds
            if lo == hi:
                continue  # an exact root, checked by _check_isolation
            assert _roots_in(sp, lo, hi) == 1
            for bits in (3, 30, 200):
                r = root.refined(bits)
                a, b = r.bounds
                assert b - a <= Fraction(1, 2**bits)
                assert lo <= a and b <= hi
                if a == b:
                    assert f.evaluate(a) == 0
                else:
                    assert _roots_in(sp, a, b) == 1


class TestRationalRoots:
    @given(polys_with_rational_roots())
    @settings(max_examples=100, deadline=None)
    def test_every_constructed_root_is_found(self, case):
        f, roots = case
        found = f.rational_roots()
        assert found == sorted(set(found))
        assert roots <= set(found)
        assert all(f.evaluate(r) == 0 for r in found)

    @given(rooted_polys(max_degree=3) | int_polys())
    @settings(max_examples=40, deadline=None)
    def test_matches_numeric_search_where_it_converges(self, f):
        try:
            expected = rational_roots_numeric(f)
        except NotConverged:
            assume(False)
        assert f.rational_roots() == expected

    @given(rooted_polys() | int_polys())
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy(self, f):
        sympy = pytest.importorskip("sympy")
        _, factors = sympy.factor_list(_sympy_poly(f))
        expected = sorted(
            -Fraction(int(c.p), int(c.q))
            for g, _ in factors
            if g.degree() == 1
            for c in [g.monic().all_coeffs()[1]]
        )
        assert f.rational_roots() == expected

    def test_clustered_and_repeated_roots_are_all_found(self):
        # each of these made the numeric search give up and report no root
        q, p = 10**20 + 39, 3 * 10**19 + 7
        r1, r2 = Fraction(p, q), Fraction(p, q) + Fraction(1, q * q)
        third, near = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)
        lin = lambda r: QPoly([-r, 1])
        cases = [
            (lin(r1) * lin(r2) * lin(Fraction(-2, 3)), [Fraction(-2, 3), r1, r2]),
            (
                lin(Fraction(1, 3)) ** 3 * lin(Fraction(2, 5)) ** 2 * QPoly([2, 0, 1]),
                [Fraction(1, 3), Fraction(2, 5)],
            ),
            (
                lin(Fraction(BIG + 1, 3)) * lin(Fraction(-1, BIG + 3)) * QPoly([5, 0, 1]),
                [Fraction(-1, BIG + 3), Fraction(BIG + 1, 3)],
            ),
            (lin(third) * lin(near) * QPoly([1, 2, 3, 4]), [third, near]),
        ]
        for f, roots in cases:
            assert f.rational_roots() == roots

    def test_high_degree(self):
        roots = [Fraction(n, d) for n, d in ((1, 7), (-3, 2), (5, 9), (11, 4), (-7, 13))]
        f = QPoly([1, 1, 1]) * QPoly([-3, 0, 1])
        for r in roots:
            f = f * QPoly([-r, 1])
        assert f.degree == 9
        assert f.rational_roots() == sorted(roots)


def factors_by_rational_roots(f: QPoly) -> list[QPoly]:
    """The monic irreducible factors of a squarefree f of degree <= 3, the
    way witnesses split h: t - r for each rational root r, and the rest."""
    factors = [QPoly([-r, 1]) for r in f.rational_roots()]
    rest = f.monic()
    for lin in factors:
        rest = rest.exact_div(lin)
    return factors + ([rest] if rest.degree >= 1 else [])


class TestFactorCubicOrLess:
    """Degree <= 3 factorization over Q needs only rational roots: any
    proper factorization of a quadratic or cubic has a linear factor."""

    @given(rooted_polys(max_degree=3) | int_polys())
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy_factor_list(self, f):
        sympy = pytest.importorskip("sympy")
        f = squarefree_part(f)
        assume(1 <= f.degree <= 3)
        _, expected = sympy.factor_list(_sympy_poly(f))
        want = sorted(
            tuple(Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs()))
            for g, _ in expected
        )
        assert sorted(g.coeffs for g in factors_by_rational_roots(f)) == want
        assert f.rational_roots() == sorted(-g[0] for g in want if len(g) == 2)

    @given(rooted_polys(max_degree=3) | int_polys())
    @settings(max_examples=60, deadline=None)
    def test_product_of_irreducible_monic_factors(self, f):
        f = squarefree_part(f)
        assume(1 <= f.degree <= 3)
        factors = factors_by_rational_roots(f)
        product = QPoly.one()
        for g in factors:
            assert g.lc == 1
            if g.degree > 1:
                assert g.rational_roots() == []
            product = product * g
        assert product == f.monic()


class TestWitnessPoint:
    """The witness root equals the one the polyroots search selected."""

    @pytest.mark.parametrize(
        "coeffs",
        [
            [-2, 0, 1],  # +-sqrt(2): the smaller one
            [2, 0, 1],  # no real root: the one below the real axis
            [7, -3, 5],
            [1, 1, 1, 1 + BIG],
            [-1, 0, 0, 1],
            [3, -(10**12), 2, 7],
        ],
    )
    def test_known_polynomials(self, coeffs):
        self._check(QPoly(coeffs))

    @given(
        st.lists(coefficients, min_size=3, max_size=4)
        .filter(lambda cs: cs[-1] > 0 and cs[0] != 0)
        .map(QPoly)
    )
    @settings(max_examples=60, deadline=None)
    def test_against_polyroots(self, h):
        assume(h.degree >= 2 and squarefree_part(h).degree == h.degree)
        try:
            self._check(h)
        except mpmath.libmp.NoConvergence:
            assume(False)

    @staticmethod
    def _check(h: QPoly):
        h = QPoly(h.primitive_ints())
        digits = max(len(str(abs(c.numerator))) for c in h.coeffs)
        with mpmath.workdps(120 + 3 * digits):
            expected = smallest_root_numeric(h)
            got = _witness_point(h, real_roots(h))
            assert mpmath.mpc(got).imag <= 0
            if expected.imag == 0:
                assert got.imag == 0
            scale = max(1, abs(expected))
            assert abs(got - expected) <= mpmath.mpf(10) ** (-100) * scale
