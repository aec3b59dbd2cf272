"""Sparse long division in the Laurent ring, kept as a test oracle.

`_sparse_quotient` cancels leading terms one at a time on operands
shifted to exponent 0.  `sl2wiggle.exact.laurent.LaurentPoly.exact_div`
runs the same loop on the unshifted operands, bounding the quotient's
exponents from below instead; tests compare the two.
"""

from __future__ import annotations

from sl2wiggle.errors import InexactDivisionError
from sl2wiggle.exact.laurent import Terms


def _sparse_quotient(num: Terms, den: Terms) -> Terms:
    """num / den by sparse long division; raises InexactDivisionError.

    Shift both operands to plain-polynomial exponents, then cancel leading
    terms under lex order.  Minimal exponents are additive under
    multiplication in a domain, so the shifted quotient stays polynomial
    and the loop terminates (lex on N^2 is a well-order).  Each step
    divides two integers: an exact quotient over the integers is the
    quotient over the rationals, so a remainder there proves the
    division inexact.
    """
    fl = min(el for el, _ in num)
    fm = min(em for _, em in num)
    gl = min(el for el, _ in den)
    gm = min(em for _, em in den)
    num = {(el - fl, em - fm): c for (el, em), c in num.items()}
    den = {(el - gl, em - gm): c for (el, em), c in den.items()}
    dlead = max(den)
    dcoef = den[dlead]
    quot: Terms = {}
    while num:
        lead = max(num)
        de = (lead[0] - dlead[0], lead[1] - dlead[1])
        if de[0] < 0 or de[1] < 0:
            raise InexactDivisionError("Laurent division left a remainder")
        c, r = divmod(num[lead], dcoef)
        if r:
            raise InexactDivisionError("Laurent division left a remainder")
        quot[de] = c
        for (el, em), dc in den.items():
            e = (el + de[0], em + de[1])
            s = num.get(e, 0) - c * dc
            if s == 0:
                num.pop(e, None)
            else:
                num[e] = s
    shift = (fl - gl, fm - gm)
    return {(el + shift[0], em + shift[1]): c for (el, em), c in quot.items()}
