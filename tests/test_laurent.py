from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2wiggle.errors import InexactDivisionError, NotAUnitError
from sl2wiggle.exact.laurent import LaurentPoly

from conftest import laurents, nonzero_laurents, nonzero_rationals


def test_difference_of_squares():
    lam, lam_inv = LaurentPoly.lam(1), LaurentPoly.lam(-1)
    assert (lam - lam_inv) * (lam + lam_inv) == LaurentPoly.lam(2) - LaurentPoly.lam(-2)


def test_unit_inverse_monomial():
    p = LaurentPoly.mono(3, 2, -1)
    assert p.unit_inverse() == LaurentPoly.mono(Fraction(1, 3), -2, 1)
    assert p * p.unit_inverse() == LaurentPoly.one()


def test_unit_inverse_non_monomial_raises():
    with pytest.raises(NotAUnitError):
        (LaurentPoly.lam(1) + LaurentPoly.one()).unit_inverse()
    with pytest.raises(NotAUnitError):
        LaurentPoly.zero().unit_inverse()


def test_negative_power_of_monomial():
    assert LaurentPoly.mono(2, 1, 1) ** -2 == LaurentPoly.mono(Fraction(1, 4), -2, -2)


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
    unit = LaurentPoly.mono(Fraction(2, 3), -1, 4)
    assert p.exact_div(unit) == p * unit.unit_inverse()


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
    assert p - Fraction(1, 2) == LaurentPoly({(1, 0): 1, (0, 0): Fraction(-1, 2)})


def test_json_round_trip():
    p = LaurentPoly({(2, -1): Fraction(3, 7), (-4, 0): -2})
    data = p.to_json()
    assert data == [
        {"el": -4, "em": 0, "c": "-2"},
        {"el": 2, "em": -1, "c": "3/7"},
    ]
    assert LaurentPoly.from_json(data) == p


def schoolbook(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Reference product: every pair of terms, summed in Fractions."""
    out: dict = {}
    for (a1, b1), c1 in p.terms().items():
        for (a2, b2), c2 in q.terms().items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(out)


def integral(p: LaurentPoly) -> bool:
    return all(type(c) is int for c in p._terms.values())


product_coeffs = st.one_of(
    st.integers(-6, 6),
    st.integers(-(2**200), 2**200),
    st.fractions(max_denominator=30),
)


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
    if integral(p) and integral(q):
        assert integral(pq)


@given(product_operands(st.integers(-(2**200), 2**200)), product_operands())
@settings(max_examples=100, deadline=None)
def test_product_cancels_to_zero(p, q):
    assert p * (-p) + p * p == LaurentPoly.zero()
    assert p * q - q * p == LaurentPoly.zero()
    assert (p * q + p * (-q)).terms() == {}


@pytest.mark.parametrize("scale", [1, -(2**200), Fraction(-7, 3)])
def test_product_cancels_inside_the_box(scale):
    # (1 + ... + lam^9)(1 - lam)(1 + ... + mu^4) = (1 - lam^10)(1 + ... + mu^4):
    # every interior row of the packed product sums to zero
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


@pytest.mark.parametrize(
    "terms, text",
    [
        ({}, "0"),
        (
            {(2, 1): -1, (0, 0): Fraction(1, 2), (-1, 0): 3, (0, -2): 1},
            "-λ²μ + 1/2 + μ⁻² + 3λ⁻¹",
        ),
        ({(0, 0): Fraction(-2, 3)}, "-2/3"),
        ({(1, 0): Fraction(-5, 4), (0, 1): -1}, "-5/4λ - μ"),
        ({(0, 0): 1}, "1"),
        ({(-3, 12): -1}, "-λ⁻³μ¹²"),
    ],
)
def test_pretty(terms, text):
    assert LaurentPoly(terms).pretty() == text
