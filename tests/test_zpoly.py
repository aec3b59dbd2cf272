"""The integer polynomial layer of sl2wiggle.exact.qpoly against the
rational-arithmetic oracles in fraction_reference, and against sympy."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2wiggle.certify import (
    CheckRecord,
    DCParams,
    _attempt,
    _check_record,
    _stripped_squarefree,
)
from sl2wiggle.exact.polycore import add, div_rem, mul, trim
from sl2wiggle.exact.qpoly import (
    QPoly,
    gcd_q,
    zderivative,
    zdiv_t1,
    zexact_div,
    zgcd,
    zprimitive,
)
from sl2wiggle.wiggle import as_pairs, specialized_assoc

from fraction_reference import (
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
def with_roots_at_0_and_minus_1(draw):
    """f = t^i (t+1)^j g^e h for i, j up to 5, so orders >= 3 occur."""
    i, j, e = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 3))
    g = draw(st.lists(coefficients, max_size=3).map(trim).filter(bool))
    h = draw(nonzero_zpolys)
    return zmul([0] * i + [1], *[[1, 1]] * j, *[g] * e, h)


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
        quot, rem = div_rem([Fraction(c) for c in f], g, operator.truediv, 0)
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
        q, r = zdiv_t1(f)
        assert add(mul([1, 1], q, 0), [r]) == f
        assert r == QPoly(f).evaluate(Fraction(-1))

    def test_zero_and_constant(self):
        assert zdiv_t1([]) == ([], 0)
        assert zdiv_t1([7]) == ([], 7)
        assert zdiv_t1([1, 2, 1]) == ([1, 1], 0)


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
        assert gcd_q(QPoly(f), QPoly(g)) == monic(d)

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


def fraction_pipeline(params: DCParams, lam0: Fraction, mu0: Fraction):
    """The certificate h the search took before the integer pipeline: in
    Fractions, from the specialized trace - 2 and gamma - 1."""
    sa = specialized_assoc(params.cyclic_word(), lam0, mu0)
    trace_minus_2 = QPoly.from_ints(sa.trace_num, sa.den) - 2
    gamma_minus_1 = QPoly.from_ints(sa.gamma_num, sa.den) - 1
    if not trace_minus_2:
        return None
    s = squarefree_without(trace_minus_2, [0, -1])
    if s.degree < 1:
        return None
    h = s.exact_div(gcd_fraction_euclid(s, gamma_minus_1))
    return QPoly(h.primitive_ints()) if h.degree >= 1 else None


def test_attempt_matches_the_fraction_pipeline():
    rng = random.Random(61)
    values = [v for v in range(-3, 4) if v]
    certified = 0
    for _ in range(60):
        params = DCParams(*(rng.choice(values) for _ in range(4)))
        lam0, mu0 = (Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30)) for _ in "lm")
        result = _attempt(params, as_pairs(params.cyclic_word()), lam0, mu0)
        expected = fraction_pipeline(params, lam0, mu0)
        assert (result and result[0]) == expected, (params, lam0, mu0)
        certified += result is not None
    assert certified >= 40
