"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every comparison is exact; no tolerances appear anywhere except
the stated 1e-50 residual ceiling of the numeric witness.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

from sl2wiggle.certify import (
    CertStatus,
    DCParams,
    build_witness,
    certify,
    check_certificate,
    core_polys,
    sweep_box,
)
from sl2wiggle.exact.mat2 import identity_q, mat2_q, xi_of
from sl2wiggle.exact.qpoly import zexact_div
from sl2wiggle.exact.tpoly import TPoly, resultant
from sl2wiggle.wiggle import (
    assoc_polys,
    eval_direct,
    eval_normal_form,
    verify_identities,
    word_value,
)
from sl2wiggle.words import parse_word

from conftest import conjugate, random_nonzero_fraction, random_sl2, random_word
from dc_reference import (
    alpha_core_coeffs,
    resultant_closed_form,
    tau_coeffs,
    tau_equal_inner_x_exponents,
)
from transfer_reference import transfer_matrix

SWEEP_BOX3_SHA256 = "8e2e725233d1364d32bad6fbbae32ab2a639b5e5f226cbb0f513a041a6298a09"
SWEEP_BOX4_SHA256 = "186d12a5209bac2c64d9b0056b10cf9b5fe196b5456b415fa8f836e4765192a6"


def _sweep_sha256(certs) -> str:
    """The sha256 of the bytes `scripts/run_sweep.py` writes for certs."""
    text = json.dumps([c.to_json() for c in certs], indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _report(n: int, text: str):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_coefficient_tables():
    tuples = [(1, 1, 2, 3), (2, 1, 1, 3), (1, 2, 3, 1)]
    for params in tuples:
        start = time.perf_counter()
        cp = core_polys(DCParams(*params))
        assert [cp.tau.coeff(i) for i in range(4)] == tau_coeffs(*params)
        assert [cp.alpha_core.coeff(i) for i in range(5)] == alpha_core_coeffs(*params)
        elapsed = time.perf_counter() - start
        assert elapsed < 60
    _report(1, f"alpha and tau coefficient tables match symbolically for {tuples}")


def test_criterion_2_resultant_closed_form():
    tuples = [(1, 1, 2, 3), (1, 2, 2, 1)]
    for params in tuples:
        cp = core_polys(DCParams(*params))
        assert resultant(cp.tau, cp.gamma_inner) == resultant_closed_form(*params)
    _report(2, f"res(tau, gamma_inner) equals the closed form exactly (sign +1) for {tuples}")


def test_criterion_3_identity_suite():
    rng = random.Random(31)
    for _ in range(200):
        w = random_word(rng, max_syllables=6)
        ap = assoc_polys(w)
        lam0 = random_nonzero_fraction(rng)
        mu0 = random_nonzero_fraction(rng)
        g = random_sl2(rng)
        assert eval_normal_form(ap, lam0, mu0, g) == eval_direct(w, lam0, mu0, g)
    for _ in range(50):
        w = random_word(rng, max_syllables=6)
        report = verify_identities(assoc_polys(w))
        assert report.ok, report.failures
        assert transfer_matrix(w).det() == TPoly.one()
    _report(3, "200 exact normal-form/direct agreements and 50 symbolic identity triples")


def test_criterion_4_conjugation_rules():
    rng = random.Random(47)
    one = identity_q()
    for _ in range(500):
        g = random_sl2(rng)
        xi = xi_of(g)
        t = xi.det()
        assert xi.e11 == t and xi.e22 == -t
        assert xi.e12 * xi.e21 == -t * (t + 1)
        lam0 = random_nonzero_fraction(rng)
        x_diag = mat2_q(lam0, 0, 0, random_nonzero_fraction(rng))
        xbar = x_diag.e11 - x_diag.e22
        assert (x_diag * xi).trace() == xbar * t
        assert conjugate(x_diag, g) == x_diag + xi.scale(xbar)
        torus = mat2_q(lam0, 0, 0, 1 / lam0)
        tbar = lam0 - 1 / lam0
        assert xi * torus == torus.inv_det1() * xi + one.scale(tbar * t)
        assert conjugate(torus, g) == torus + xi.scale(tbar)
    _report(4, "xi shape, trace, commutation and conjugation rules exact on 500 samples")


def test_criterion_5_unipotent_examples():
    w = parse_word("[x,y]")
    value = eval_normal_form(assoc_polys(w), 2, 2, mat2_q(0, 1, -1, 1))
    assert value.trace() == 2
    assert value != identity_q()

    y = mat2_q(2, 0, 0, Fraction(1, 2))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            x = mat2_q(1, 1, 0, 1)
            u = word_value(parse_word(f"[x^{a},y^{b}]"), x, y, identity_q())
            assert u.trace() == 2 and u != identity_q() and u.det() == 1
    _report(5, "introductory commutator unipotent and triangular-x examples reproduce")


def test_criterion_6_certification_sweep():
    certs = sweep_box(max_abs=3, seed=0, max_attempts=5)
    assert len(certs) == 1296
    for cert in certs:
        if cert.params.is_trivial():
            assert cert.status is CertStatus.TRIVIAL_WORD
        else:
            assert cert.certified, cert.params
            # 5 attempts per phase: unswapped, then generator-swapped
            assert cert.attempts <= 10
            if cert.status is CertStatus.CERTIFIED:
                assert cert.attempts <= 5
        assert check_certificate(cert).valid, cert.params
    swapped = sum(1 for c in certs if c.status is CertStatus.SWAPPED_CERTIFIED)
    assert _sweep_sha256(certs) == SWEEP_BOX3_SHA256  # run_sweep.py --max-abs 3 --seed 0
    # the 4096 tuples of run_sweep.py --max-abs 4 --seed 0, byte for byte
    assert _sweep_sha256(sweep_box(max_abs=4, seed=0, max_attempts=5)) == SWEEP_BOX4_SHA256
    _report(
        6,
        f"all 1260 nontrivial tuples certified ({swapped} via swap);"
        " every certificate re-verified independently; box-3 and box-4 sweep digests unchanged",
    )


def test_criterion_7_exceptional_cases():
    cp = core_polys(DCParams(1, 1, 1, 3))
    assert cp.tau.degree == 2
    assert cp.tau == TPoly(tau_equal_inner_x_exponents(1, 1, 3))
    assert certify(DCParams(1, 1, 1, 3), seed=2).status is CertStatus.CERTIFIED

    swap_cert = certify(DCParams(1, 1, 2, 1), seed=3)
    assert swap_cert.status is CertStatus.SWAPPED_CERTIFIED
    assert swap_cert.attempts > 5

    cert = certify(DCParams(1, 1, -1, -1), seed=1, initial=(Fraction(2), Fraction(3)))
    assert cert.status is CertStatus.CERTIFIED and cert.attempts == 1
    witness = build_witness(cert)
    assert witness.exact and witness.t0 == Fraction(-49, 48)
    assert witness.u.trace() == 2 and witness.u.det() == 1
    assert witness.u != identity_q()

    degenerate = certify(
        DCParams(1, 1, -1, -1), seed=5, initial=(Fraction(2), Fraction(2))
    )
    assert degenerate.certified and degenerate.attempts > 1
    _report(
        7,
        "degree-drop case certifies unswapped, swap family certifies after swap,"
        " exact witness at t0 = -49/48, degenerate (2,2) resampled",
    )


def test_criterion_8_numeric_witness():
    cert = certify(DCParams(1, 1, 2, 3), seed=7)
    witness = build_witness(cert, precision_digits=64)
    assert witness.modular.all_ok
    assert witness.residual <= Fraction(1, 10**50)
    assert zexact_div(cert.hpoly, witness.minimal_poly) is not None
    _report(
        8,
        f"64-digit witness residual bound {float(witness.residual):.2e} <= 1e-50"
        " with exact modular certificate",
    )
