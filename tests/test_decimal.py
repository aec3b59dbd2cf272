"""The decimal formatter of numeric witnesses against mpmath.nstr."""

import math

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2wiggle.certify import _decimal


def mpmath_text(man: int, exp: int, dps: int) -> str:
    """mpmath.nstr(man 2^exp, dps, strip_zeros=False), with man 2^exp held
    exactly."""
    with mpmath.workprec(max(man.bit_length(), 1) + 10):
        x = mpmath.mpf((man, exp))
    return mpmath.nstr(x, dps, strip_zeros=False)


def exact_text(man: int, exp: int, dps: int) -> str:
    return _decimal(man << max(exp, 0), 1 << max(-exp, 0), dps)


@st.composite
def dyadics(draw):
    """(man, exp, dps) for man 2^exp of either sign.  The mantissa stays
    within the bits mpmath converts exactly at dps + 3 digits, so its digits
    are those of the exact value, and the exponent stays well inside the
    range it converts without dividing by a power of ten."""
    dps = draw(st.integers(1, 80))
    bits = int((dps + 3) * math.log2(10)) + 10
    man = draw(st.integers(-(1 << bits) + 1, (1 << bits) - 1))
    exp = draw(st.integers(-400, 300))
    return man, exp, dps


@given(dyadics())
@example((0, 0, 10))
# 9.99...9 rounds to 10.00...0, one exponent up
@example(((10 << 30) - 1, -30, 5))
@example((-((10 << 30) - 1), -30, 5))
@example(((1 << 40) - 1, -40, 5))  # 0.99...9 rounds to 1.0000
# dps 9: fixed notation for exponents -4 to 8
@example((1, -14, 9))  # 6.1e-5, exponent -5 = min_fixed
@example((1, -13, 9))  # 1.2e-4, exponent -4
@example((-1, -13, 9))
@example((1, 27, 9))  # 1.3e8, exponent 8
@example((1, 30, 9))  # 1.1e9, exponent 9 = max_fixed
@example((-1, 30, 9))
# dps 30: fixed notation for exponents -9 to 29
@example((1, -30, 30))  # 9.3e-10, exponent -10 = min_fixed
@example((1, -29, 30))  # 1.9e-9, exponent -9
@example((1, 99, 30))  # 6.3e29, exponent 29
@example((1, 100, 30))  # 1.3e30, exponent 30 = max_fixed
@example((999999, 0, 6))  # fixed with no digit after the point
@example((1, 0, 1))
@settings(max_examples=400, deadline=None)
def test_matches_mpmath(case):
    man, exp, dps = case
    assert exact_text(man, exp, dps) == mpmath_text(man, exp, dps)


def test_rounds_half_up_on_the_exact_value():
    # decimal halves that no binary float holds
    assert _decimal(5, 100, 1) == "0.05"
    assert _decimal(15, 100, 1) == "0.2"
    assert _decimal(-25, 10, 1) == "-3."  # fixed, with every digit before the point
    assert _decimal(2**64 - 1, 2**64, 3) == "1.00"
    assert _decimal(1, 3, 5) == "0.33333"
    assert _decimal(2, 3, 5) == "0.66667"
    assert _decimal(10**80 + 1, 1, 3) == "1.00e+80"
