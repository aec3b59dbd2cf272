from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2wiggle.errors import InexactDivisionError
from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.tpoly import TPoly

from conftest import laurents, nonzero_laurents, nonzero_rationals
from laurent_reference import _sparse_quotient


def test_difference_of_squares():
    lam, lam_inv = LaurentPoly.lam(1), LaurentPoly.lam(-1)
    assert (lam - lam_inv) * (lam + lam_inv) == LaurentPoly.lam(2) - LaurentPoly.lam(-2)


def test_negative_power_of_monomial():
    # no inverse is taken, not even of a unit: build lambda^-a directly
    with pytest.raises(ValueError):
        LaurentPoly.mono(-1, 1, 1) ** -1


def test_sigma_on_variables():
    assert LaurentPoly.lam(1).sigma() == LaurentPoly.lam(-1)
    p = LaurentPoly.lam(2) * LaurentPoly.mu(1) + 3
    assert p.sigma() == LaurentPoly.lam(-2) * LaurentPoly.mu(-1) + 3


@given(laurents)
def test_sigma_involution(p):
    assert p.sigma().sigma() == p


@given(laurents, laurents, nonzero_rationals, nonzero_rationals)
@settings(max_examples=150)
def test_evaluation_homomorphism(p, q, lam0, mu0):
    assert (p * q).evaluate(lam0, mu0) == p.evaluate(lam0, mu0) * q.evaluate(lam0, mu0)
    assert (p + q).evaluate(lam0, mu0) == p.evaluate(lam0, mu0) + q.evaluate(lam0, mu0)


@given(laurents, nonzero_rationals, nonzero_rationals)
def test_evaluation_term_by_term(p, lam0, mu0):
    expected = sum(c * lam0**el * mu0**em for (el, em), c in p.terms().items())
    value = p.evaluate(lam0, mu0)
    assert type(value) is Fraction and value == expected


@given(laurents, nonzero_rationals, nonzero_rationals)
def test_sigma_evaluation(p, lam0, mu0):
    assert p.sigma().evaluate(lam0, mu0) == p.evaluate(1 / lam0, 1 / mu0)


@given(laurents, nonzero_laurents)
@settings(max_examples=150)
def test_exact_division_round_trip(p, q):
    assert (p * q).exact_div(q) == p


def test_exact_division_remainder_raises():
    p = LaurentPoly.lam(1) + LaurentPoly.one()
    q = LaurentPoly.mu(1) + LaurentPoly.one()
    with pytest.raises(InexactDivisionError):
        p.exact_div(q)


def test_exact_division_by_unit():
    p = LaurentPoly.lam(3) - LaurentPoly.mu(-2) * 5
    unit = LaurentPoly.mono(-1, -1, 4)
    assert p.exact_div(unit) == p * LaurentPoly.mono(-1, 1, -4)


def test_exact_division_by_a_monomial_divides_every_coefficient():
    p = LaurentPoly({(3, 0): 6, (0, -2): -9})
    assert p.exact_div(LaurentPoly.mono(-3, 1, 1)) == LaurentPoly({(2, -1): -2, (-1, -3): 3})
    # 6 lambda^3 - 9 mu^-2 over 6 lambda: the quotient has the coefficient -3/2
    with pytest.raises(InexactDivisionError):
        p.exact_div(LaurentPoly.mono(6, 1, 0))


def test_zero_handling():
    z = LaurentPoly.zero()
    assert not z
    assert z + z == z
    assert z * LaurentPoly.lam(5) == z
    assert LaurentPoly({(1, 0): 1, (0, 0): 0}) == LaurentPoly.lam(1)


def test_scalar_interop():
    p = LaurentPoly.lam(1)
    assert p + 1 == LaurentPoly({(1, 0): 1, (0, 0): 1})
    assert 2 * p == LaurentPoly.mono(2, 1, 0)
    assert p - 2 == LaurentPoly({(1, 0): 1, (0, 0): -2})
    with pytest.raises(TypeError):
        p - Fraction(1, 2)


@pytest.mark.parametrize("c", [0.5, 1.0, Fraction(1, 2), Fraction(3)], ids=repr)
def test_non_integer_coefficient_raises(c):
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0): c, (1, 0): 1})
    with pytest.raises(TypeError):
        LaurentPoly.const(c)
    with pytest.raises(TypeError):
        LaurentPoly.mono(c, 1, -1)
    with pytest.raises(TypeError):
        TPoly([1, c])


def test_json_round_trip():
    p = LaurentPoly({(2, -1): 3, (-4, 0): -2})
    data = p.to_json()
    assert data == [
        {"el": -4, "em": 0, "c": "-2"},
        {"el": 2, "em": -1, "c": "3"},
    ]


def schoolbook(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Reference product: every pair of terms, summed one by one."""
    out: dict = {}
    for (a1, b1), c1 in p.terms().items():
        for (a2, b2), c2 in q.terms().items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(out)


def integral(p: LaurentPoly) -> bool:
    return all(type(c) is int for c in p._terms.values())


product_coeffs = st.one_of(st.integers(-6, 6), st.integers(-(2**200), 2**200))


@st.composite
def product_operands(draw, coeffs=product_coeffs):
    """Up to 40 terms on a strided, offset grid, dense or spread out."""
    spread = draw(st.sampled_from([6, 6, 200]))
    stride = draw(st.tuples(st.sampled_from([0, 1, 2, 3]), st.sampled_from([0, 1, 2, 4])))
    offset = draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    n = draw(st.integers(0, 40))
    grid = st.tuples(st.integers(0, spread), st.integers(0, spread))
    terms = draw(st.lists(st.tuples(grid, coeffs), min_size=n, max_size=n))
    return LaurentPoly(
        {(offset[0] + stride[0] * i, offset[1] + stride[1] * j): c for (i, j), c in terms}
    )


@given(product_operands(), product_operands())
@settings(max_examples=120, deadline=None)
def test_product_matches_schoolbook(p, q):
    pq = p * q
    assert pq == schoolbook(p, q)
    assert hash(pq) == hash(schoolbook(p, q))
    assert all(c != 0 for c in pq.terms().values())
    assert q * p == pq
    assert integral(pq)


@given(product_operands(st.integers(-(2**200), 2**200)), product_operands())
@settings(max_examples=100, deadline=None)
def test_product_cancels_to_zero(p, q):
    assert p * (-p) + p * p == LaurentPoly.zero()
    assert p * q - q * p == LaurentPoly.zero()
    assert (p * q + p * (-q)).terms() == {}


@pytest.mark.parametrize("scale", [1, -(2**200), -7])
def test_product_cancels_inside_the_box(scale):
    # (1 + ... + lam^9)(1 - lam)(1 + ... + mu^4) = (1 - lam^10)(1 + ... + mu^4):
    # every interior lambda-row of the product sums to zero
    p = LaurentPoly({(i, 0): scale for i in range(10)})
    mu_sum = LaurentPoly({(0, j): 1 for j in range(5)})
    q = (LaurentPoly.one() - LaurentPoly.lam(1)) * mu_sum
    expected = (LaurentPoly.one() - LaurentPoly.lam(10)) * mu_sum * scale
    assert p * q == expected == schoolbook(p, q)
    assert len((p * q).terms()) == 10


def test_product_at_the_coefficient_bound():
    # equal dense blocks of one coefficient c: the central coefficient of the
    # product is #terms * c^2, the largest any coefficient can be
    shapes = [(n, 1) for n in range(5, 13)] + [(1, 5), (2, 3), (3, 4), (4, 4)]
    for rows, cols in shapes:
        for c in [7, 11, 127, 255, 2**31 - 1, 2**200 + 1]:
            block = LaurentPoly({(i, j): c for i in range(rows) for j in range(cols)})
            for p, q in [(block, block), (block, -block), (-block, -block)]:
                pq = p * q
                assert pq == schoolbook(p, q)
                assert integral(pq)


division_coeffs = {
    "small": st.integers(-9, 9),
    "big": st.integers(-(2**80), 2**80),
}


@st.composite
def division_operands(draw, sizes=(0, 12)):
    """min..max terms of one coefficient kind on a strided grid with negative
    exponents, such as the lambda^2- and mu^2-strided tables polynomials."""
    coeffs = division_coeffs[draw(st.sampled_from(sorted(division_coeffs)))]
    stride = draw(st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2])))
    offset = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    grid = st.tuples(st.integers(0, 4), st.integers(0, 4))
    lo, hi = sizes
    terms = draw(st.dictionaries(grid, coeffs.filter(bool), min_size=lo, max_size=hi))
    return LaurentPoly(
        {(offset[0] + stride[0] * i, offset[1] + stride[1] * j): c for (i, j), c in terms.items()}
    )


# a monomial (the shift), and 2-4 or 5-12 terms (the long division)
divisors = st.sampled_from([(1, 1), (2, 4), (5, 12)]).flatmap(division_operands)


@given(division_operands(), divisors)
@settings(max_examples=100, deadline=None)
def test_exact_division_matches_the_sparse_loop(p, q):
    pq = p * q
    assert pq.exact_div(q) == p
    if pq:
        assert LaurentPoly(_sparse_quotient(pq._terms, q._terms)) == p


@given(division_operands(), st.sampled_from([(2, 4), (5, 12)]).flatmap(division_operands),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_inexact_division_raises(p, q, e, c):
    # q has two terms or more, so it divides no monomial
    with pytest.raises(InexactDivisionError):
        (p * q + LaurentPoly.mono(c, *e)).exact_div(q)


def test_rational_quotient_of_integer_operands():
    # (lambda + 1) Phi / (2 Phi) is (lambda + 1) / 2, outside the ring: the
    # divisor's leading coefficient 2 does not divide the dividend's 1
    cyclotomic = LaurentPoly({(i, 0): 1 for i in range(5)})
    num = (LaurentPoly.lam(1) + 1) * cyclotomic
    den = cyclotomic * 2
    with pytest.raises(InexactDivisionError):
        num.exact_div(den)


def mu_poly(coeffs: list[int]) -> LaurentPoly:
    return LaurentPoly({(0, j): c for j, c in enumerate(coeffs)})


def test_row_quotient_with_coefficients_above_the_dividend():
    # mu^30 - 1 over (mu^30 - 1) / (Phi_1 Phi_6 Phi_10 Phi_15): the quotient
    # has a coefficient 12 and the dividend only +-1
    phis = [[-1, 1], [1, -1, 1], [1, -1, 1, -1, 1], [1, -1, 0, 1, -1, 1, 0, -1, 1]]
    quotient = LaurentPoly.one()
    for phi in phis:
        quotient = quotient * mu_poly(phi)
    num = LaurentPoly.mu(30) - 1
    den = LaurentPoly(_sparse_quotient(num._terms, quotient._terms))
    assert max(abs(c) for c in quotient.terms().values()) == 12
    assert num.exact_div(den) == quotient


def test_defect_below_the_row_divisions_fails_the_row_division():
    # the defect lies in the lowest lambda-row of p q: the long division
    # reaches it after every quotient term above it
    q = (LaurentPoly.lam(-1) + 2 + LaurentPoly.lam(1)) * mu_poly([3, 1, -2])
    p = LaurentPoly({(2, 0): 5, (3, 1): -1, (2, 3): 4})
    num = p * q + LaurentPoly.mono(7, 1, 1)
    assert min(el for el, _ in (p * q).terms()) == 1
    with pytest.raises(InexactDivisionError, match="left a remainder"):
        num.exact_div(q)


def test_rows_that_divide_at_the_slot_base_fail_the_product_check():
    # den = lambda + mu + 19 equals num = lambda + 2 mu + 3 at mu = 2^4, so a
    # division at that point accepts it; the long division's quotient term
    # 1 leaves the remainder mu - 16
    num = LaurentPoly({(1, 0): 1, (0, 1): 2, (0, 0): 3})
    den = LaurentPoly({(1, 0): 1, (0, 1): 1, (0, 0): 19})
    with pytest.raises(InexactDivisionError, match="left a remainder"):
        num.exact_div(den)


def test_divisor_whose_leading_row_vanishes_at_the_slot_base():
    # den's leading lambda-row 8 - mu is 0 at mu = 2^3, so a row division at
    # that point has no divisor; the long division's first term -1 leaves
    # 9 lambda + 2, which den's leading term -lambda mu does not divide
    num = LaurentPoly({(0, 0): 1, (1, 0): 1, (1, 1): 1})
    den = LaurentPoly({(0, 0): 1, (1, 0): 8, (1, 1): -1})
    with pytest.raises(InexactDivisionError):
        num.exact_div(den)


def test_constants_hash_as_the_int_they_equal():
    lam_plus_2 = LaurentPoly.lam(1) + 2
    for c in [0, 3, -(2**200)]:
        for p in [LaurentPoly.const(c), TPoly.const(c)]:
            assert p == c and hash(p) == hash(c)
    assert len({LaurentPoly.const(3), TPoly.const(3), 3}) == 1
    assert TPoly.const(lam_plus_2) == lam_plus_2
    assert hash(TPoly.const(lam_plus_2)) == hash(lam_plus_2)


@pytest.mark.parametrize(
    "terms, text",
    [
        ({}, "0"),
        ({(2, 1): -1, (0, 0): 2, (-1, 0): 3, (0, -2): 1}, "-λ²μ + 2 + μ⁻² + 3λ⁻¹"),
        ({(0, 0): -2}, "-2"),
        ({(1, 0): -5, (0, 1): -1}, "-5λ - μ"),
        ({(0, 0): 1}, "1"),
        ({(-3, 12): -1}, "-λ⁻³μ¹²"),
    ],
)
def test_pretty(terms, text):
    assert LaurentPoly(terms).pretty() == text
