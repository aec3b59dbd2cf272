"""Exact real-root isolation, rational roots and small factorizations,
checked against the numeric search they replaced and against sympy."""

from fractions import Fraction

from math import prod

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sl2wiggle.certify import _witness_points
from sl2wiggle.exact import polycore, qpoly
from sl2wiggle.exact.qpoly import rational_roots, real_roots, zexact_div

from fraction_reference import QPoly, squarefree_part
from root_reference import (
    NotConverged,
    rational_roots_numeric,
    real_root_approximations,
    smallest_root_numeric,
    sturm_chain_zprem,
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
        cubic = [-6, 11, -6, 1]  # (t-1)(t-2)(t-3)
        intervals = [r.bounds for r in real_roots(cubic)]
        assert len(intervals) == 3
        for (lo, hi), r in zip(intervals, (1, 2, 3)):
            assert lo < r <= hi
        assert real_roots([1, 0, 1]) == []
        (root,) = real_roots([0, 5])
        assert root.refined(10).bounds == (0, 0)  # bisection lands on 0

    @given(int_polys(), st.integers(-5, 5).filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_content_and_sign_do_not_matter(self, f, scale):
        # real_roots takes any integer coefficients and works on their
        # primitive part, whatever the sign of the leading coefficient
        ints = f.primitive_ints()
        expected = real_roots(ints)
        roots = real_roots([scale * c for c in ints])
        assert [r.bounds for r in roots] == [r.bounds for r in expected]
        assert [r.rational() for r in roots] == [r.rational() for r in expected]

    def test_repeated_roots_are_isolated_once(self):
        f = QPoly([-1, 3]) ** 3 * QPoly([0, 1]) ** 2 * QPoly([-2, 0, 1])
        roots = real_roots(f.primitive_ints())
        assert len(roots) == 4
        assert QPoly(roots[0].poly).degree == 4  # the squarefree part
        _check_isolation(f, roots)

    def test_constant_is_rejected(self):
        with pytest.raises(ValueError):
            real_roots([3])

    @given(int_polys())
    @settings(max_examples=40, deadline=None)
    def test_intervals_match_numeric_roots(self, f):
        roots = real_roots(f.primitive_ints())
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
        _check_against_sympy(f)


def _check_against_sympy(f: QPoly) -> None:
    """real_roots(f) isolates each real root sympy counts, and refining
    keeps one root per interval."""
    sp = _sympy_poly(f)
    roots = real_roots(f.primitive_ints())
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


# Primitive polynomials whose Sturm chain takes a remainder step a mod b
# with lc(b) < 0 and deg a - deg b even, where polycore.prem's factor
# lc(b)^(deg a - deg b + 1) is negative.  That needs a remainder two or
# more degrees below its divisor, then one more step, so no polynomial of
# degree <= 3 has one; these were found by searching small coefficients.
FLIP_EXAMPLES = [
    (-2, 1, 0, 0, 1),  # t^4 + t - 2: p mod p' has degree 1
    (-(BIG + 7), BIG, 0, 0, 1),
    (-3, 1, 2, 0, 0, 1),
    (2, 0, 0, 0, 2, 1),  # p' mod the third entry drops two degrees
    (2, 2, 0, 0, 0, -2, -1),
    (-1, 1, 0, 0, 0, 0, 1),  # p mod p' drops four degrees
]


def _flip_steps(chain: list[list[int]]) -> int:
    """The steps of a Sturm chain that appended an entry from a b with
    lc(b) < 0 and deg a - deg b even."""
    return sum(
        b[-1] < 0 and (len(a) - len(b)) % 2 == 0 for a, b in zip(chain, chain[1:-1])
    )


def _with_examples(examples):
    def decorate(test):
        for f in examples:
            test = example(list(f))(test)
        return test

    return decorate


class TestSturmChain:
    @given(
        st.lists(coefficients, min_size=2, max_size=7)
        .map(lambda f: qpoly.zprimitive(polycore.trim(f)))
        .filter(lambda p: len(p) >= 2)
    )
    @_with_examples(FLIP_EXAMPLES)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_zprem_chain(self, p):
        # prem's chain entries are primitive parts of the same remainders
        assert qpoly._sturm_chain(p) == sturm_chain_zprem(p)

    @pytest.mark.parametrize("f", FLIP_EXAMPLES)
    def test_examples_reach_the_sign_flip(self, f):
        assert _flip_steps(sturm_chain_zprem(list(f))) >= 1

    @pytest.mark.parametrize("f", FLIP_EXAMPLES)
    def test_real_roots_match_sympy_on_the_examples(self, f):
        _check_against_sympy(QPoly(f))


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


@st.composite
def planted_integer_polys(draw):
    """(f, roots): an integer f of degree 1 to 5, as a list, with the
    planted rational roots, some of them repeated, times a cofactor, a
    content and a sign."""
    roots = draw(st.lists(small_fractions, max_size=4))
    cofactor = draw(
        st.sampled_from([QPoly.one(), QPoly([1, 0, 1]), QPoly([-2, 0, 1]), QPoly([-2, 0, 0, 1])])
        | int_polys(max_degree=2)
    )
    f, kept = cofactor, set()
    for r in roots:
        m = draw(st.integers(1, 2))
        if f.degree + m > 5:
            break
        f, kept = f * QPoly([-r, 1]) ** m, kept | {r}
    assume(f.degree >= 1)
    content = draw(st.integers(1, 12) | st.just(prod(qpoly._FILTER_PRIMES)))
    sign = draw(st.sampled_from([1, -1]))
    return [sign * content * c for c in f.primitive_ints()], kept


def _sympy_ground_roots(f: list[int]) -> list[Fraction]:
    sympy = pytest.importorskip("sympy")
    roots = sympy.Poly(list(reversed(f)), sympy.Symbol("t")).ground_roots()
    return sorted(Fraction(int(r.p), int(r.q)) for r in roots)


class TestIntegerRationalRoots:
    """rational_roots by arithmetic against the interval route it replaced
    on the witness path (QPoly.rational_roots), and against sympy."""

    P = prod(qpoly._FILTER_PRIMES)

    @given(planted_integer_polys())
    @settings(max_examples=120, deadline=None)
    def test_matches_interval_route_and_sympy(self, case):
        f, planted = case
        found = rational_roots(f)
        assert found == QPoly(f).rational_roots() == _sympy_ground_roots(f)
        assert planted <= set(found)

    @given(int_polys(max_degree=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_interval_route_on_any_polynomial(self, f):
        assert rational_roots(f.primitive_ints()) == f.rational_roots()

    def test_filter_cuts_irrational_cubic(self, monkeypatch):
        monkeypatch.setattr(qpoly.RealRoot, "rational", self._refused)
        assert rational_roots([-2, 0, 0, 1]) == []

    def test_root_mod_every_prime_falls_back(self, monkeypatch):
        # 2t - 1 has the root (p + 1) / 2 mod every odd p, and 2 | lc
        refined = []
        rational = qpoly.RealRoot.rational
        monkeypatch.setattr(
            qpoly.RealRoot, "rational", lambda root: refined.append(root) or rational(root)
        )
        f = polycore.mul([-1, 2], [1, 1, 1], 0)
        assert rational_roots(f) == [Fraction(1, 2)]
        assert len(refined) == 1

    def test_every_prime_skipped(self):
        # every filter prime divides lc, so none of them may rule out 1/P;
        # t^2 - 2 has no root mod 3, so a filter without the skip would
        assert rational_roots(polycore.mul([-1, self.P], [-2, 0, 1], 0)) == [
            Fraction(1, self.P)
        ]
        assert rational_roots([-2, 0, 0, self.P]) == []

    @pytest.mark.parametrize(
        "f, roots",
        [
            ([1, -5, 6], [Fraction(1, 3), Fraction(1, 2)]),  # (2t - 1)(3t - 1)
            ([-1, 5, -6], [Fraction(1, 3), Fraction(1, 2)]),
            ([4, 0, -1], [-2, 2]),
            ([0, 3, 7], [Fraction(-3, 7), 0]),
            ([1, -4, 4], [Fraction(1, 2)]),  # discriminant 0
            ([1, 1, 1], []),  # discriminant -3
            ([-2, 0, 1], []),  # discriminant 8, between two squares
            ([-3, 0, 1], []),  # discriminant 12
            ([2, 3], [Fraction(-2, 3)]),
            ([-2, -3], [Fraction(-2, 3)]),
        ],
    )
    def test_linear_and_quadratic(self, monkeypatch, f, roots):
        monkeypatch.setattr(qpoly.RealRoot, "rational", self._refused)
        assert rational_roots(f) == roots

    def test_constant_is_rejected(self):
        with pytest.raises(ValueError):
            rational_roots([3])

    @staticmethod
    def _refused(root):
        raise AssertionError("a real root was refined")


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
    """The witness root bracket holds the root the polyroots search selected."""

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
        ints = h.primitive_ints()
        h = QPoly(ints)
        digits = max(len(str(abs(c))) for c in ints)
        roots = real_roots(ints)
        # 2^-400 < 10^-120: all three points are well inside the bound
        points, b = _witness_points(ints, roots[0] if roots else None, 400)
        with mpmath.workdps(120 + 3 * digits):
            expected = smallest_root_numeric(h)
            scale = max(1, abs(expected))
            for re, im in points:
                got = mpmath.mpc(mpmath.mpf(re) / b, mpmath.mpf(im) / b)
                assert got.imag <= 0
                if expected.imag == 0:
                    assert got.imag == 0
                assert abs(got - expected) <= mpmath.mpf(10) ** (-100) * scale
