"""The integer polynomial layer of sl2wiggle.exact.qpoly against the
rational-arithmetic oracles in fraction_reference, and against sympy."""

import random
from fractions import Fraction
from itertools import product
from math import gcd as int_gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2wiggle.certify import (
    CheckRecord,
    DCParams,
    _attempt,
    _check_record,
    _draw_parameter,
    _stripped_squarefree,
)
from sl2wiggle.exact import qpoly
from sl2wiggle.exact.polycore import add, div_t1, mul, trim, unpack
from sl2wiggle.exact.qpoly import (
    zderivative,
    zexact_div,
    zgcd,
    zprimitive,
)
from sl2wiggle.wiggle import specialized_assoc

from fraction_reference import (
    QPoly,
    div_rem,
    gcd_fraction_euclid,
    order_at,
    squarefree_part,
    squarefree_without,
)

BIG = 2**200

coefficients = st.one_of(
    st.integers(-9, 9), st.integers(-BIG, BIG), st.sampled_from([BIG, -BIG, 0])
)
# the empty list is zero and single entries are constants
zpolys = st.lists(coefficients, max_size=5).map(trim)
nonzero_zpolys = zpolys.filter(bool)


def zmul(*factors: list[int]) -> list[int]:
    out = [1]
    for f in factors:
        out = mul(out, f, 0)
    return out


def monic(f: list[int]) -> QPoly:
    return QPoly(f).monic()


@st.composite
def planted_gcd_pairs(draw):
    """(f, g) shaped like the search's operands: degree at most 8,
    coefficients up to about 2^600, a planted common factor of degree 0 to
    3, and a random content and sign on each."""
    edge = st.sampled_from([BIG, -BIG])
    wide = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG), edge)
    common = draw(st.lists(wide, min_size=1, max_size=4).map(trim).filter(bool))
    pair = []
    for _ in range(2):
        cofactor = draw(st.lists(wide, max_size=10 - len(common)).map(trim))
        content = draw(st.one_of(st.integers(1, 9), st.integers(-BIG, BIG), edge).filter(bool))
        pair.append(trim([c * content for c in zmul(cofactor, common)]))
    return tuple(pair)


@st.composite
def with_roots_at_0_and_minus_1(draw):
    """f = t^i (t+1)^j g^e h for i, j up to 5, so orders >= 3 occur."""
    i, j, e = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 3))
    g = draw(st.lists(coefficients, max_size=3).map(trim).filter(bool))
    h = draw(nonzero_zpolys)
    return zmul([0] * i + [1], *[[1, 1]] * j, *[g] * e, h)


@pytest.mark.parametrize(
    "f, expected", [([2, 4, 6], [1, 2, 3]), ([-2, 4], [-1, 2]), ([3, 5], [3, 5]), ([], [])]
)
def test_primitive_part(f, expected):
    # the content is positive, so the sign of f is kept
    assert zprimitive(f) == expected


class TestExactDiv:
    @given(zpolys, nonzero_zpolys)
    @settings(max_examples=200, deadline=None)
    def test_multiples_divide(self, q, g):
        assert zexact_div(zmul(q, g), g) == q

    @given(zpolys, nonzero_zpolys)
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_division(self, f, g):
        # g | f in Z[t] exactly when the rational quotient has integer
        # coefficients and there is no remainder
        quot, rem = div_rem(f, g)
        integral = not rem and all(c.denominator == 1 for c in quot)
        expected = [int(c) for c in quot] if integral else None
        assert zexact_div(f, g) == expected

    def test_non_divisible_inputs(self):
        assert zexact_div([1, 0, 1], [1, 1]) is None  # remainder 2
        assert zexact_div([1], [1, 1]) is None  # lower degree
        assert zexact_div([2, 2], [2, 4]) is None  # rational quotient 1/2 ...
        assert zexact_div([1, 2], [2, 4]) is None  # ... and exact over Q only
        assert zexact_div([], [3, 1]) == []
        assert zexact_div([6, 9], [3]) == [2, 3]

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            zexact_div([1, 1], [])


class TestSyntheticDivision:
    @given(zpolys)
    @settings(max_examples=200, deadline=None)
    def test_quotient_and_value_at_minus_1(self, f):
        q, r = div_t1(f)
        assert add(mul([1, 1], q, 0), [r]) == f
        assert r == QPoly(f).evaluate(Fraction(-1))

    def test_zero_and_constant(self):
        assert div_t1([]) == ([], 0)
        assert div_t1([7]) == ([], 7)
        assert div_t1([1, 2, 1]) == ([1, 1], 0)


class TestGcd:
    @given(zpolys, zpolys, zpolys)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_euclid(self, a, b, c):
        f, g = zmul(a, c), zmul(b, c)
        if not f and not g:
            with pytest.raises(ValueError):
                zgcd(f, g)
            return
        d = zgcd(f, g)
        assert d[-1] > 0 and zprimitive(d) == d
        assert monic(d) == gcd_fraction_euclid(QPoly(f), QPoly(g))
        assert zgcd(g, f) == d

    @pytest.mark.parametrize(
        "f, g, expected",
        [
            ([], [3], [1]),
            ([-6], [1, 2, 3], [1]),
            ([0, 0, -5], [], [0, 0, 1]),
            ([-(10**30), 0, 10**30], [10**20, 10**20], [1, 1]),
            ([2, 0, 4], [], [1, 0, 2]),
        ],
    )
    def test_zero_and_constant_operands(self, f, g, expected):
        assert zgcd(f, g) == expected

    @given(nonzero_zpolys, nonzero_zpolys, nonzero_zpolys)
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, a, b, c):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        f, g = zmul(a, c), zmul(b, c)
        to_sympy = lambda p: sympy.Poly(list(reversed(p)), t)
        expected = sympy.Poly(sympy.gcd(to_sympy(f), to_sympy(g)), t).all_coeffs()
        assert monic(zgcd(f, g)) == monic([int(v) for v in reversed(expected)])

    @given(planted_gcd_pairs())
    # a coprime pair, and a gcd equal to one operand as in the search's
    # gcd(s, gamma - 1) = s on the swap family
    @example(([-(2**600), 3, 1], [5, 0, -(2**599)]))
    @example(([-9, 64, 64], zmul([-9, 64, 64], [2**300, -7, 2**290 + 1])))
    @settings(max_examples=100, deadline=None)
    def test_workload_shaped_operands(self, pair):
        sympy = pytest.importorskip("sympy")
        f, g = pair
        if not f and not g:
            return
        d = zgcd(f, g)
        assert d[-1] > 0 and zprimitive(d) == d
        assert monic(d) == gcd_fraction_euclid(QPoly(f), QPoly(g))
        t = sympy.Symbol("t")
        to_sympy = lambda p: sympy.Poly(list(reversed(p)) or [0], t)
        expected = sympy.Poly(sympy.gcd(to_sympy(f), to_sympy(g)), t).all_coeffs()
        assert monic(d) == monic([int(v) for v in reversed(expected)])

    @pytest.mark.parametrize(
        "j, points",
        [(8, [8, 16]), (40, [8, 16, 32, 64]), (1000, [8, 16, 32, 64, 128, 256, 512, 1024])],
    )
    def test_a_large_cofactor_gcd_takes_more_points(self, monkeypatch, j, points):
        # a = t G and b = (t + 2^j) G: gcd(a(x), b(x)) = G(x) gcd(x, x + 2^j)
        # carries a factor x into the digits until x > 2 * 2^j * |G|
        G = [-9, 64, 64]
        seen = []

        def spy(packed, k):
            seen.append(k)
            return unpack(packed, k)

        monkeypatch.setattr(qpoly, "unpack", spy)
        assert zgcd(zmul([0, 1], G), zmul([2**j, 1], G)) == G
        assert seen == points


class TestSquarefree:
    @given(with_roots_at_0_and_minus_1())
    @settings(max_examples=150, deadline=None)
    def test_squarefree_part(self, f):
        s = zexact_div(f, zgcd(f, zderivative(f)))
        assert monic(s) == squarefree_part(QPoly(f))

    @given(with_roots_at_0_and_minus_1())
    @settings(max_examples=150, deadline=None)
    def test_stripping_the_roots_at_0_and_minus_1(self, f):
        s, at_0, at_m1 = _stripped_squarefree(f)
        assert monic(s) == squarefree_without(QPoly(f), [0, -1])
        assert int_gcd(*s) == 1  # primitive
        assert at_0 == order_at(QPoly(f), Fraction(0))
        assert at_m1 == order_at(QPoly(f), Fraction(-1))

    def test_high_orders_at_0_and_minus_1(self):
        f = zmul([0, 0, 0, 1], [1, 1], [1, 1], [1, 1], [1, 1], [-5, 1], [-5, 1])
        assert _stripped_squarefree(f) == ([-5, 1], 3, 4)


def test_each_check_is_decided_on_its_own():
    trace_minus_2 = zmul([0, 0, 1], [1, 1], [1, 1], [-2, 1], [-3, 1])
    gamma_minus_1 = zmul([0, 1], [1, 1], [-3, 1])
    assert _check_record([-2, 1], trace_minus_2, gamma_minus_1).all_ok
    assert _check_record([-3, 1], trace_minus_2, gamma_minus_1) == CheckRecord(True, True, False)
    assert _check_record([-5, 1], trace_minus_2, gamma_minus_1) == CheckRecord(False, True, True)
    # a root at 0 or -1 fails the second check even where gamma - 1 misses it
    for h, gamma_minus_1 in (([0, 1], [1, 1]), ([1, 1], [0, 1])):
        assert _check_record(h, trace_minus_2, gamma_minus_1) == CheckRecord(True, False, True)


def fraction_polys(params: DCParams, lam0: Fraction, mu0: Fraction) -> tuple[QPoly, QPoly]:
    """The specialized trace - 2 and gamma - 1, in Fractions."""
    sa = specialized_assoc(params.cyclic_pairs(), lam0, mu0)
    trace_minus_2 = QPoly.from_ints(add(sa.gamma_num, sa.gamma_sigma_num), sa.den) - 2
    return trace_minus_2, QPoly.from_ints(sa.gamma_num, sa.den) - 1


def fraction_pipeline(params: DCParams, lam0: Fraction, mu0: Fraction):
    """The certificate h the search took before the integer pipeline: in
    Fractions, from the specialized trace - 2 and gamma - 1."""
    trace_minus_2, gamma_minus_1 = fraction_polys(params, lam0, mu0)
    if not trace_minus_2:
        return None
    s = squarefree_without(trace_minus_2, [0, -1])
    if s.degree < 1:
        return None
    h = s.exact_div(gcd_fraction_euclid(s, gamma_minus_1))
    return tuple(h.primitive_ints()) if h.degree >= 1 else None


def shares_every_root(params: DCParams, lam0: Fraction, mu0: Fraction) -> bool:
    """Whether trace - 2 != 0 and every root of it outside {0, -1} is a root
    of gamma - 1, in Fractions: the draws the search rejects."""
    trace_minus_2, gamma_minus_1 = fraction_polys(params, lam0, mu0)
    if not trace_minus_2:
        return False
    s = squarefree_without(trace_minus_2, [0, -1])
    return not div_rem(list(gamma_minus_1.coeffs), list(s.coeffs))[1]


def test_attempt_matches_the_fraction_pipeline():
    rng = random.Random(61)
    certified = 0
    for bound, count in ((3, 60), (6, 20)):
        values = [v for v in range(-bound, bound + 1) if v]
        for _ in range(count):
            params = DCParams(*(rng.choice(values) for _ in range(4)))
            lam0, mu0 = (Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30)) for _ in "lm")
            result = _attempt(params, params.cyclic_pairs(), lam0, mu0)
            expected = fraction_pipeline(params, lam0, mu0)
            assert (result and result[0]) == expected, (params, lam0, mu0)
            certified += result is not None
    assert certified >= 55
    # the swap family l = n, at certify's five first-phase draws: every
    # root of trace - 2 outside {0, -1} is a root of gamma - 1, and the
    # search rejects the draw
    values = [v for v in range(-6, 7) if v]
    swap_family = [DCParams(k, l, m, l) for k, l, m in product(values, repeat=3) if k != m]
    for seed, params in enumerate(rng.sample(swap_family, 12)):
        draws, rejected = random.Random(seed), 0
        for _ in range(5):
            lam0, mu0 = _draw_parameter(draws), _draw_parameter(draws)
            result = _attempt(params, params.cyclic_pairs(), lam0, mu0)
            assert (result and result[0]) == fraction_pipeline(params, lam0, mu0)
            if shares_every_root(params, lam0, mu0):
                assert result is None
                rejected += 1
        assert rejected >= 1, params
