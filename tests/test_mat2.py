import pytest

from sl2wiggle.errors import NotUnimodularError
from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import Mat2, identity_q, mat2_q, xi_of

from conftest import conjugate, random_nonzero_fraction, random_sl2


def diag(a, b) -> Mat2:
    return mat2_q(a, 0, 0, b)


def test_mul_and_det():
    a = mat2_q(1, 2, 3, 4)
    b = mat2_q(0, 1, -1, 1)
    assert a * b == mat2_q(-2, 3, -4, 7)
    assert (a * b).det() == a.det() * b.det()


def test_inverse_and_powers():
    g = mat2_q(2, 3, 1, 2)
    assert g.det() == 1
    assert g * g.inv_det1() == identity_q()
    assert g.pow_det1(-2, identity_q()) == (g.inv_det1() * g.inv_det1())
    assert g.pow_det1(0, identity_q()) == identity_q()


def test_matrix_ring_entries():
    lam = LaurentPoly.lam(1)
    m = Mat2(lam, LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.lam(-1))
    assert m.det() == LaurentPoly.one()


def test_xi_identity_is_zero():
    assert xi_of(identity_q()) == mat2_q(0, 0, 0, 0)


def test_xi_golden():
    g = mat2_q(0, 1, -1, 1)
    xi = xi_of(g)
    assert xi == mat2_q(-1, 1, 0, 1)
    assert xi.det() == -1


def test_xi_requires_unimodular():
    with pytest.raises(NotUnimodularError):
        xi_of(mat2_q(1, 1, 1, 1))


def test_xi_matches_conjugation_oracle(rng):
    e11 = mat2_q(1, 0, 0, 0)
    for _ in range(50):
        g = random_sl2(rng)
        assert xi_of(g) == conjugate(e11, g) - e11


def test_xi_identity_suite(rng):
    for _ in range(100):
        g = random_sl2(rng)
        xi = xi_of(g)
        t = xi.det()
        # shape ((t, p), (q, -t)) with p q = -t(t+1)
        assert xi.e11 == t and xi.e22 == -t
        assert xi.e12 * xi.e21 == -t * (t + 1)
        assert xi.trace() == 0
        assert xi * xi == identity_q().scale(-t)
        # trace and commutation rules against a random diagonal
        lam0 = random_nonzero_fraction(rng)
        muv = random_nonzero_fraction(rng)
        x = diag(lam0, muv)
        xbar = lam0 - muv
        assert (x * xi).trace() == xbar * t
        assert conjugate(x, g) == x + xi.scale(xbar)
        # torus element: xi x = x^-1 xi + xbar det(xi) 1
        torus = diag(lam0, 1 / lam0)
        tbar = lam0 - 1 / lam0
        assert xi * torus == torus.inv_det1() * xi + identity_q().scale(tbar * t)


def test_det_xi_surjectivity_witness(rng):
    for _ in range(30):
        t0 = random_nonzero_fraction(rng)
        g = mat2_q(1, 1, t0, 1 + t0)
        assert g.det() == 1
        assert xi_of(g).det() == t0
