import dataclasses
import hashlib
import importlib.util
import json
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl2wiggle.certify import (
    Certificate,
    CertStatus,
    CheckOutcome,
    DCParams,
    _ceil_abs,
    _laurent_core,
    _numeric_approx,
    _peel,
    _unipotent_not_identity,
    _universal_tables,
    build_witness,
    certify,
    check_certificate,
    core_polys,
    prefactor_den,
    prefactor_num,
    sweep_box,
)
from sl2wiggle.errors import InexactDivisionError, PrecisionExhaustedError, TrivialWordError
from sl2wiggle.exact import polycore
from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import identity_q, mat2_q
from sl2wiggle.exact.qpoly import real_roots, zexact_div
from sl2wiggle.exact.tpoly import TPoly, resultant
from sl2wiggle.wiggle import (
    assoc_polys,
    gamma_of,
    specialized_assoc,
    trace_poly,
)
from sl2wiggle.words import parse_word

from fraction_reference import QPoly, squarefree_without
from dc_reference import (
    alpha_core_coeffs,
    resultant_closed_form,
    tau_coeffs,
    tau_equal_inner_x_exponents,
    tau_opposite_exponents_cleared,
)


def divides_over_fractions(f: TPoly, g: TPoly) -> bool:
    """True when f divides g in Frac(R0)[t] (pseudo-remainder zero)."""
    if not f:
        return not g
    if not g:
        return True
    if g.degree < f.degree:
        return False
    return not polycore.trim(polycore.prem(list(g.coeffs), list(f.coeffs)))


def padded(p: TPoly, size: int) -> list:
    return [p.coeff(i) for i in range(size)]


BOX2 = [
    params for params in product((-2, -1, 1, 2), repeat=4) if not DCParams(*params).is_trivial()
]
# tuples with one large exponent among small ones
LARGE = [(200, 1, 2, 1), (50, 1, -3, 2), (7, -5, 3, 6), (1000, 1, 2, 1)]


class TestCorePolys:
    def test_trivial_raises(self):
        with pytest.raises(TrivialWordError):
            core_polys(DCParams(1, 1, 1, 1))
        with pytest.raises(TrivialWordError):
            core_polys(DCParams(0, 5, 2, 3))

    def test_generic_degrees(self):
        cp = core_polys(DCParams(1, 1, 2, 3))
        assert cp.tau.degree == 3
        assert cp.gamma_inner.degree == 5
        assert cp.alpha_core.degree == 4

    def test_alpha_constant_term_spot_value(self):
        cp = core_polys(DCParams(1, 1, 2, 3))
        expected = LaurentPoly.lam(10) * LaurentPoly.mu(14) - LaurentPoly.lam(
            8
        ) * LaurentPoly.mu(10)
        assert cp.alpha_core.coeff(0) == expected

    @pytest.mark.parametrize("params", [(1, 1, 2, 3), (2, 1, 1, 3), (1, 2, 3, 1)])
    def test_coefficient_tables(self, params):
        cp = core_polys(DCParams(*params))
        assert padded(cp.tau, 4) == tau_coeffs(*params)
        assert padded(cp.alpha_core, 5) == alpha_core_coeffs(*params)

    def test_equal_inner_x_exponents_factorization(self):
        cp = core_polys(DCParams(1, 1, 1, 3))
        assert cp.tau.degree == 2
        assert cp.tau == TPoly(tau_equal_inner_x_exponents(1, 1, 3))

    def test_opposite_exponents_factorization(self):
        cp = core_polys(DCParams(1, 1, -1, -1))
        clear, coeffs = tau_opposite_exponents_cleared(1, 1)
        assert cp.tau.scale(clear) == TPoly(coeffs)

    def test_factored_forms_reassemble(self):
        # the last six have a large exponent, a sparse prefactor or both;
        # the last two, exponents of up to 10^15
        reach = [(10**12, 3, -7, 10**15), (2**40 + 1, -(3**25), 5**20, 7)]
        for params in [
            (1, 1, 2, 3), (1, 1, 1, 3), (1, 1, -1, -1), (2, -1, 1, 2),
            (200, 1, 2, 1), (1, 200, 1, 3), (50, 1, -3, 2), (7, -5, 3, 6), *reach,
        ]:
            p = DCParams(*params)
            cp = core_polys(p)
            ap = cp.assoc
            t_t1 = TPoly.t() * (TPoly.t() + TPoly.one())
            den2 = prefactor_den(p) * prefactor_den(p)
            pref = TPoly.const(prefactor_num(p))
            trace = trace_poly(ap)
            assert (trace - TPoly.one() * 2).scale(den2) == pref * pref * t_t1 * t_t1 * cp.tau
            gamma = gamma_of(ap)
            assert (gamma - TPoly.one()).scale(den2) == pref * t_t1 * cp.gamma_inner
            assert (ap.alpha - TPoly.one()).scale(den2) == pref * t_t1 * cp.alpha_core
            if params in reach:
                assert padded(cp.tau, 4) == tau_coeffs(*params)
                assert padded(cp.alpha_core, 5) == alpha_core_coeffs(*params)

    def test_peel_raises_on_every_inexact_factor(self):
        # the peel of the Laurent route: rows are Laurent coefficients
        lam, t, one = LaurentPoly.lam(1), TPoly.t(), LaurentPoly.one()
        t_t1 = t * (t + TPoly.one())
        # a nonzero coefficient below t^k, also when f has degree below k
        with pytest.raises(InexactDivisionError):
            _peel(t_t1 + TPoly.one(), 1, one)
        with pytest.raises(InexactDivisionError):
            _peel(TPoly.one(), 1, one)
        assert _peel(TPoly.zero(), 2, one) == TPoly.zero()
        # t + 1 divides once but not twice, or not at all
        with pytest.raises(InexactDivisionError):
            _peel(t_t1 * t * (t + 2), 2, one)
        with pytest.raises(InexactDivisionError):
            _peel(t * (t * t + TPoly.one()), 1, one)
        # P does not divide a coefficient of the quotient
        with pytest.raises(InexactDivisionError):
            _peel(t_t1 * (t * (lam + 1) + TPoly.const(lam)), 1, lam + 1)
        assert _peel(t_t1 * t_t1 * (t + TPoly.const(lam)).scale(lam + 1), 2, lam + 1) == (
            t + TPoly.const(lam)
        )
        # a constant quotient: t^2 (t+1)^2 lambda
        assert _peel(t_t1 * t_t1 * TPoly.const(lam), 2, one) == TPoly.const(lam)

    def test_tables_pin(self):
        # sha256 of the JSON of tau, gamma_inner and alpha_core, and with the
        # assoc polys, over every non-trivial box-2 tuple and three tuples
        # with a large exponent, as the Laurent route computed them
        rows = []
        for params in BOX2 + LARGE[:3]:
            cp = core_polys(DCParams(*params))
            tables = [cp.tau, cp.gamma_inner, cp.alpha_core, cp.assoc.alpha, cp.assoc.beta]
            rows.append([list(params), *(f.to_json() for f in tables)])
        digest = lambda n: hashlib.sha256(
            json.dumps([row[:n] for row in rows], sort_keys=True).encode()
        ).hexdigest()
        assert digest(4) == "6cf61719f71f919f4f330001b66b7a8f3899c3d238dd8a4b7dd69720578a2580"
        assert digest(6) == "c6cca3280483d849e1902c14e95ce175407a7a462233e993eecaf8010a84a12e"

    def test_every_coefficient_is_an_int(self):
        # the tables, the assoc polys and the resultant lie in
        # Z[lambda^+-1, mu^+-1][t]; _from_terms wraps them unchecked
        def ints(*polys: TPoly) -> bool:
            return all(type(c) is int for f in polys for p in f.coeffs for c in p.terms().values())

        sample = random.Random(19).sample(BOX2, 12)
        for params in sample + [(200, 1, 2, 1), (7, -5, 3, 6)]:
            cp = core_polys(DCParams(*params))
            assert ints(cp.tau, cp.gamma_inner, cp.alpha_core, cp.assoc.alpha, cp.assoc.beta)
            if params in sample:  # every box-2 tuple takes the packed resultant
                assert ints(TPoly([resultant(cp.tau, cp.gamma_inner)]))
        for word in ["[x,y]", "x^2 y^-1 x y^3", "[[x,y],[x^2,y]]", "x^5 y^-4 x^-3 y^2"]:
            ap = assoc_polys(parse_word(word))
            assert ints(ap.alpha, ap.beta)

    def test_packed_path_matches_the_laurent_route(self):
        # the substituted universal tables and assoc polys against the
        # Laurent-ring peel and assoc_polys run on the tuple itself, for one
        # tuple per orbit of lambda -> 1/lambda, mu -> 1/mu and the tuples
        # with a large exponent
        orbits = {
            min((a * k, b * l, a * m, b * n) for a in (1, -1) for b in (1, -1))
            for k, l, m, n in BOX2
        }
        assert len(orbits) == 60
        for params in sorted(orbits) + LARGE:
            p = DCParams(*params)
            cp = core_polys(p)
            assert (cp.tau, cp.gamma_inner, cp.alpha_core, cp.assoc) == _laurent_core(p)

    def test_universal_tables_span_their_proven_ranges(self):
        # tau, gamma_inner and alpha_core span [0, 8 - 2j] for j = 2, 1, 1
        # in each of lambda^k, lambda^m, mu^l, mu^n, and alpha and beta
        # [-4, 4]; every exponent is even, as the paper's tables are
        # written in lambda^2k, ..., mu^2n
        ab, cd, tables = _universal_tables()
        sizes = []
        spans = [(0, 4), (0, 6), (0, 6), (-4, 4), (-4, 4)]
        for table, (low, high) in zip(tables, spans):
            terms = [term for row in table for term in row]
            sizes.append(len(terms))
            exps = {e for i, j, _ in terms for e in ab[i] + cd[j]}
            assert exps == set(range(low, high + 1, 2))
        assert sizes == [117, 527, 296, 1432, 1882]

    def test_universal_tables_check_the_decoded_exponents(self, monkeypatch):
        # a term of the generic tuple's tables outside the proven window
        # raises when the tables are built, instead of decoding wrongly
        C = importlib.import_module("sl2wiggle.certify")
        tau, gamma_inner, alpha_core, ap = C._laurent_core(C._GENERIC)
        for shift in (LaurentPoly.lam(-1), LaurentPoly.mu(16 * 7)):
            shifted = (tau, gamma_inner.scale(shift), alpha_core, ap)
            monkeypatch.setattr(C, "_laurent_core", lambda params: shifted)
            with pytest.raises(AssertionError, match="out of range"):
                C._universal_tables.__wrapped__()

    def test_specialized_matches_symbolic_route(self):
        t_t1 = QPoly([0, 1, 1])
        for params in [(1, 1, 2, 3), (1, 1, -1, -1), (2, 1, 1, 3)]:
            p = DCParams(*params)
            cp = core_polys(p)
            for lam0, mu0 in [(Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(5, 7))]:
                sa = specialized_assoc(p.cyclic_pairs(), lam0, mu0)
                pref = prefactor_num(p).evaluate(lam0, mu0)
                den = prefactor_den(p).evaluate(lam0, mu0)
                assert pref != 0
                tau = QPoly(cp.tau.specialize(lam0, mu0))
                gamma_inner = QPoly(cp.gamma_inner.specialize(lam0, mu0))
                trace = QPoly.from_ints(polycore.add(sa.gamma_num, sa.gamma_sigma_num), sa.den)
                gamma = QPoly.from_ints(sa.gamma_num, sa.den)
                assert trace - 2 == tau * (pref / den) ** 2 * t_t1 * t_t1
                assert gamma - 1 == gamma_inner * (pref / den**2) * t_t1

    def test_degenerate_specialization_returns_none(self):
        # lambda = +-1 makes the prefactor and so trace - 2 vanish identically
        for lam0 in (Fraction(1), Fraction(-1)):
            sa = specialized_assoc(DCParams(1, 1, 2, 3).cyclic_pairs(), lam0, Fraction(2))
            trace = polycore.add(sa.gamma_num, sa.gamma_sigma_num)
            assert QPoly.from_ints(trace, sa.den) == QPoly([2])
            cert = certify(DCParams(1, 1, 2, 3), initial=(lam0, Fraction(2)))
            assert cert.status is CertStatus.CERTIFIED
            assert cert.attempts == 2
            assert cert.lam0 != lam0


class TestResultantFormula:
    # the generic tuples end in exact divisions of 406k by 213k bits
    # (2, 3, -1, 2) and 578k by 308k bits (3, -2, 1, 3), above the 151k by
    # 76k of the symbolic tables; the recursive division of
    # tpoly._exact_int_div halves the divisor five and six times
    @pytest.mark.parametrize(
        "params", [(1, 1, 2, 3), (1, 2, 2, 1), (2, 3, -1, 2), (3, -2, 1, 3)]
    )
    def test_closed_form(self, params):
        cp = core_polys(DCParams(*params))
        # matches the closed form exactly; the sign convention is
        # res(f, g) = lc(f)^deg(g) * prod g(roots of f), global sign +1
        assert resultant(cp.tau, cp.gamma_inner) == resultant_closed_form(*params)

    def test_resultant_zero_in_swap_family(self):
        # inner y-exponents equal: tau divides gamma_inner, resultant vanishes
        cp = core_polys(DCParams(1, 1, 2, 1))
        assert resultant(cp.tau, cp.gamma_inner) == LaurentPoly.zero()
        assert divides_over_fractions(cp.tau, cp.gamma_inner)


class TestCertify:
    def test_generic_certifies_first_attempt(self):
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        assert cert.status is CertStatus.CERTIFIED
        assert len(cert.hpoly) == 4  # degree 3
        assert cert.checks.all_ok
        assert check_certificate(cert).valid

    def test_seed_determinism(self):
        a = certify(DCParams(1, 1, 2, 3), seed=42)
        b = certify(DCParams(1, 1, 2, 3), seed=42)
        assert a == b

    def test_swap_family_needs_swap(self):
        cert = certify(DCParams(1, 1, 2, 1), seed=3)
        assert cert.status is CertStatus.SWAPPED_CERTIFIED
        assert cert.attempts > 5
        assert cert.effective_params() == DCParams(1, 1, 1, 2)
        assert check_certificate(cert).valid

    def test_trivial_word(self):
        cert = certify(DCParams(1, 1, 1, 1))
        assert cert.status is CertStatus.TRIVIAL_WORD
        assert check_certificate(cert).valid

    def test_opposite_exponents_exact_root(self):
        cert = certify(
            DCParams(1, 1, -1, -1), seed=1, initial=(Fraction(2), Fraction(3))
        )
        assert cert.status is CertStatus.CERTIFIED
        assert cert.attempts == 1
        assert cert.hpoly == (49, 48)
        assert QPoly(cert.hpoly).rational_roots() == [Fraction(-49, 48)]

    def test_degenerate_specialization_resampled(self):
        # at lam = mu = 2 the emerging root collides with -1 and must be rejected
        cert = certify(
            DCParams(1, 1, -1, -1), seed=5, initial=(Fraction(2), Fraction(2))
        )
        assert cert.certified
        assert cert.attempts > 1

    def test_certificate_json_round_trip(self):
        cert = certify(DCParams(1, 1, 2, 3), seed=9)
        assert Certificate.from_json(cert.to_json()) == cert

    def test_from_json_reads_h_as_integers(self):
        data = certify(DCParams(1, 1, -1, -1), seed=1, initial=(2, 3)).to_json()
        assert data["h"] == ["49", "48"]
        assert Certificate.from_json({**data, "h": ["49", "48", "0"]}).hpoly == (49, 48)
        with pytest.raises(ValueError):
            Certificate.from_json({**data, "h": ["1/2", "1"]})

    def test_checker_rejects_tampered_h(self):
        cert = certify(DCParams(1, 1, 2, 3), seed=11)
        tampered = Certificate(
            params=cert.params,
            status=cert.status,
            lam0=cert.lam0,
            mu0=cert.mu0,
            hpoly=tuple(polycore.mul(cert.hpoly, [1, 1], 0)),
            checks=cert.checks,
            attempts=cert.attempts,
        )
        assert not check_certificate(tampered).valid

    def test_resultant_consistency_at_specialization(self):
        # generic case: nonzero specialized resultant pins h to the stripped
        # squarefree part of tau
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        cp = core_polys(cert.params)
        tau = QPoly(cp.tau.specialize(cert.lam0, cert.mu0))
        gamma_inner = QPoly(cp.gamma_inner.specialize(cert.lam0, cert.mu0))
        # scaled to integer polynomials, which keeps a resultant nonzero
        cleared = [TPoly(f.primitive_ints()) for f in (tau, gamma_inner)]
        assert resultant(*cleared) != 0
        stripped = squarefree_without(tau, [Fraction(0), Fraction(-1)])
        assert cert.hpoly == tuple(stripped.primitive_ints())

    def test_tau_vanishing_at_zero_is_logged(self, caplog):
        import logging

        # at lam = mu = 2, tau(0) = 0 for (2, 1, 1, 2) and tau(-1) = 0 for
        # (1, 1, -1, -1), so trace - 2 vanishes to order 3 there
        lam0 = mu0 = Fraction(2)
        for params, seed, root in [((2, 1, 1, 2), 4, 0), ((1, 1, -1, -1), 5, -1)]:
            p = DCParams(*params)
            assert QPoly(core_polys(p).tau.specialize(lam0, mu0)).evaluate(root) == 0
            with caplog.at_level(logging.INFO, logger="sl2wiggle.certify"):
                cert = certify(p, seed=seed, initial=(lam0, mu0))
            assert cert.certified
            assert any("vanishes to order >= 3" in r.message for r in caplog.records)
            caplog.clear()
        with caplog.at_level(logging.INFO, logger="sl2wiggle.certify"):
            certify(DCParams(1, 1, 2, 3), seed=7)
        assert not caplog.records

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"mu": None}, "missing h or specialization"),
            ({"lambda": "0"}, "zero torus parameter"),
            ({"mu": "0"}, "zero torus parameter"),
            # P(lambda, mu) = 0: the word's runs act trivially or by a sign
            ({"lambda": "1"}, "degenerate specialization"),
            ({"lambda": "-1"}, "degenerate specialization"),
            ({"mu": "1"}, "degenerate specialization"),
            # a constant h has no root to certify
            ({"h": ["1"]}, "missing h or specialization"),
            ({"h": ["2"]}, "missing h or specialization"),
            ({"h": ["-1"]}, "missing h or specialization"),
        ],
    )
    def test_checker_rejects_malformed_parameters(self, change, reason):
        data = {**certify(DCParams(1, 1, 2, 3), seed=7).to_json(), **change}
        cert = Certificate.from_json({k: v for k, v in data.items() if v is not None})
        assert check_certificate(cert) == CheckOutcome(valid=False, reason=reason)

    @pytest.mark.parametrize("c", [2, 3, 7, -1, -6])
    def test_checker_accepts_a_multiple_of_h(self, c):
        # c*h has the roots of h: the checker divides out the content, so
        # a change to this contract has to change this test on purpose
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        scaled = dataclasses.replace(cert, hpoly=tuple(c * x for x in cert.hpoly))
        assert check_certificate(scaled) == check_certificate(cert)
        assert check_certificate(scaled).valid

    def test_checker_rejects_wrong_status(self):
        cert = certify(DCParams(1, 1, 1, 1))
        wrong = Certificate(
            params=DCParams(1, 1, 2, 3),
            status=CertStatus.TRIVIAL_WORD,
            lam0=None,
            mu0=None,
            hpoly=None,
            checks=None,
            attempts=0,
        )
        assert check_certificate(cert).valid
        assert not check_certificate(wrong).valid

    def test_checker_reads_the_status_against_the_word(self):
        data = certify(DCParams(1, 1, 2, 3), seed=7).to_json()
        on_trivial = Certificate.from_json({**data, "params": [1, 1, 1, 1]})
        reason = "certified status on a trivial word"
        assert check_certificate(on_trivial) == CheckOutcome(valid=False, reason=reason)
        for params, outcome in [
            ((1, 1, 1, 1), CheckOutcome(valid=False, reason="trivial word")),
            ((1, 1, 2, 3), CheckOutcome(valid=True, reason="no claim to check")),
        ]:
            cert = Certificate(DCParams(*params), CertStatus.INCONCLUSIVE, None, None, None, None, 5)
            assert check_certificate(cert) == outcome

    def test_zero_initial_parameter_raises(self):
        with pytest.raises(ValueError, match="must be nonzero"):
            certify(DCParams(1, 1, 2, 3), initial=(0, 2))

    def test_no_attempts_is_inconclusive(self):
        cert = certify(DCParams(1, 1, 2, 1), max_attempts=0)
        assert (cert.status, cert.attempts) == (CertStatus.INCONCLUSIVE, 0)


class TestWitness:
    def test_exact_witness(self):
        cert = certify(
            DCParams(1, 1, -1, -1), seed=1, initial=(Fraction(2), Fraction(3))
        )
        w = build_witness(cert)
        assert w.exact
        assert w.t0 == Fraction(-49, 48)
        assert w.g == mat2_q(1, 1, Fraction(-49, 48), Fraction(-1, 48))
        assert w.u.trace() == 2
        assert w.u.det() == 1
        assert w.u != identity_q()
        assert w.residual == 0
        assert w.modular.all_ok

    def test_numeric_witness(self):
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        w = build_witness(cert, precision_digits=64)
        assert not w.exact
        assert len(w.minimal_poly) >= 3  # degree 2 or more
        assert w.residual <= Fraction(1, 10**50)
        assert w.modular.all_ok
        assert zexact_div(cert.hpoly, w.minimal_poly) is not None

    def test_numeric_witness_at_fixed_specialization(self):
        cert = certify(
            DCParams(1, 1, 2, 3), seed=0, initial=(Fraction(2), Fraction(2))
        )
        assert cert.certified and (cert.lam0, cert.mu0) == (2, 2)
        w = build_witness(cert, precision_digits=64)
        assert w.residual <= Fraction(1, 10**50)
        assert w.modular.all_ok

    def test_witness_from_swapped_certificate(self):
        # the swap family's degree-2 h splits into rational linear factors
        cert = certify(DCParams(1, 1, 2, 1), seed=3)
        assert cert.status is CertStatus.SWAPPED_CERTIFIED
        w = build_witness(cert)
        assert w.exact
        assert w.u.trace() == 2 and w.u.det() == 1 and w.u != identity_q()

    def test_unsound_certificate_fails_the_modular_check(self):
        # in the swap family the roots of h = 64t^2 + 64t - 9 are roots of
        # gamma - 1; sigma(beta) vanishes at the larger one, 1/8, and beta
        # does not, so beta * sigma(beta) is not invertible mod 8t - 1
        cert = Certificate(
            DCParams(1, 1, 2, 1), CertStatus.CERTIFIED, Fraction(2), Fraction(3),
            (-9, 64, 64), None, 1,
        )
        assert not check_certificate(cert).valid
        with pytest.raises(AssertionError, match="modular certificate"):
            build_witness(cert)

    def test_witness_of_negated_h(self):
        # a certificate may hold -h; its witness is the one of h
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        negated = dataclasses.replace(cert, hpoly=tuple(-c for c in cert.hpoly))
        assert check_certificate(negated).valid
        assert build_witness(negated, 20) == build_witness(cert, 20)

    def test_trivial_certificate_rejected(self):
        cert = certify(DCParams(1, 1, 1, 1))
        with pytest.raises(ValueError):
            build_witness(cert)

    def test_witness_json(self):
        cert = certify(
            DCParams(1, 1, -1, -1), seed=1, initial=(Fraction(2), Fraction(3))
        )
        data = build_witness(cert).to_json()
        assert data["exact"] is True
        assert data["t0"] == "-49/48"
        assert data["g"][1][0] == "-49/48"


    # printed by the mpmath evaluation that numeric witnesses used before
    # they moved to integers, for h1 = 5t^2 - 3t + 7 (no real root) with the
    # specialization of certify([1, 1, 2, 3], seed=7)
    COMPLEX_ROOT_STRINGS = {
        64: (
            ("0.3000000000000000000000000000000000000000000000000000000000000000",
             "-1.144552314225959703904343428819218413204911180701030508819019841"),
            [[("-2496855.102363965296450078841051531138938953048865091194366186700",
               "550245.3722683053738192424343227078452890257163815417721961196548"),
              ("-2443582.615134441613512683370723779774389059161714312649533071177",
               "655471.6799889343324692913986081993643675482100664058114253964498")],
             [("136989.3007454709523527725813578625220257601277645170372504018897",
               "-23495.80926977875975319748726208716944721483038382511393730358716"),
              ("134365.5459854541313844163380822557478619708622895964669510308496",
               "-29345.93129577931049299138168943330586703803571576076582140758448")]],
        ),
        20: (
            ("0.30000000000000000000", "-1.1445523142259597039"),
            [[("-2496855.1023639652965", "550245.37226830537382"),
              ("-2443582.6151344416135", "655471.67998893433247")],
             [("136989.30074547095235", "-23495.809269778759753"),
              ("134365.54598545413138", "-29345.931295779310493")]],
        ),
    }

    @pytest.mark.parametrize("digits", [64, 20])
    def test_complex_root_strings_are_pinned(self, digits):
        # no certificate of boxes 3 to 5 has an h without real roots, so the
        # branch is pinned on a hand-picked quadratic; its root is no root of
        # trace - 2 here, so the residual is large
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        sa = specialized_assoc(cert.params.cyclic_pairs(), cert.lam0, cert.mu0)
        bits = int(digits * math.log2(10)) + 64
        texts, residual = _numeric_approx(sa, [7, -3, 5], None, digits, bits)
        assert texts == self.COMPLEX_ROOT_STRINGS[digits]
        # residual is the least multiple of 10^-(digits + 10) at or above the
        # larger modulus at the midpoint (3 - i s) / 10, where
        # s = (2 isqrt(131 4^bits) + 1) / 2^(bits + 1)
        s = Fraction(2 * math.isqrt(131 << (2 * bits)) + 1, 1 << (bits + 1))
        t0 = (Fraction(3, 10), -s / 10)
        times = lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

        def at(num):
            acc = (Fraction(0), Fraction(0))
            for c in reversed(num):
                acc = times(acc, t0)
                acc = (acc[0] + c, acc[1])
            return acc[0] / sa.den, acc[1] / sa.den

        g, gs = at(sa.gamma_num), at(sa.gamma_sigma_num)
        bp = times(at(sa.beta_num), (1 + t0[0], t0[1]))
        bq = times(at(sa.beta_sigma_num), t0)
        gg, bb = times(g, gs), times(bp, bq)
        norm = max(
            (g[0] + gs[0] - 2) ** 2 + (g[1] + gs[1]) ** 2,
            (gg[0] - bb[0] - 1) ** 2 + (gg[1] - bb[1]) ** 2,
        )
        ulp = Fraction(1, 10 ** (digits + 10))
        assert (residual - ulp) ** 2 < norm <= residual**2
        assert residual > 1

    def test_unstable_bracket_is_widened(self):
        # a box-3 witness: at the first width lo and mid print the same and
        # hi does not, and the stable strings are not mid's; sha256 of the
        # witness JSON without "residual", from the mpmath evaluation that
        # numeric witnesses used before they moved to integers
        cert = certify(DCParams(-1, -3, -3, 3), initial=(Fraction(4, 83), Fraction(17, 71)))
        sa = specialized_assoc(cert.params.cyclic_pairs(), cert.lam0, cert.mu0)
        root = real_roots(cert.hpoly)[0]
        assert _numeric_approx(sa, list(cert.hpoly), root, 64, 276)[0] is None
        data = build_witness(cert, 64).to_json()
        data.pop("residual")
        digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        assert digest == "c44c4e3f2aa62e2f046a104a9eb4bf7690fe3e413273b3523f961ef3004a7fa8"

    def test_numeric_residual_is_exact_at_the_bracket_midpoint(self):
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        w = build_witness(cert, precision_digits=40)
        scale = 10**50
        assert w.residual <= Fraction(1, 10**26) and (w.residual * scale).denominator == 1
        # the same bound from Fractions, at the midpoint the witness used
        sa = specialized_assoc(cert.params.cyclic_pairs(), cert.lam0, cert.mu0)
        root = real_roots(cert.hpoly)[0].refined(int(40 * math.log2(10)) + 64)
        t0 = Fraction(root.lo + root.hi, 1 << (root.k + 1))
        u11, u12, u21, u22 = (
            QPoly(sa.gamma_num).evaluate(t0) / sa.den,
            QPoly(sa.beta_num).evaluate(t0) * (1 + t0) / sa.den,
            QPoly(sa.beta_sigma_num).evaluate(t0) * t0 / sa.den,
            QPoly(sa.gamma_sigma_num).evaluate(t0) / sa.den,
        )
        bound = max(abs(u11 + u22 - 2), abs(u11 * u22 - u12 * u21 - 1))
        assert w.residual == Fraction(math.ceil(bound * scale), scale)

    def test_precision_cap_raises(self, monkeypatch):
        # a bracket that never prints stably uses up every doubling
        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        widths = []

        def unstable(sa, h, root, digits, bits):
            widths.append(bits)
            return None, Fraction(0)

        module = importlib.import_module("sl2wiggle.certify")
        monkeypatch.setattr(module, "_numeric_approx", unstable)
        with pytest.raises(PrecisionExhaustedError, match="did not print stably"):
            build_witness(cert)
        assert widths == [276 << i for i in range(5)]

    def test_real_roots_are_isolated_only_for_numeric_witnesses(self, monkeypatch):
        # linear and quadratic h never locate a root; a cubic h refines its
        # roots only when no filter prime rules out a rational root, which
        # happens for one box-2 cubic
        module = importlib.import_module("sl2wiggle.certify")
        isolated, refined = [], []
        rational = module.RealRoot.rational

        def counted(f):
            isolated.append(f)
            return real_roots(f)

        monkeypatch.setattr(module, "real_roots", counted)
        monkeypatch.setattr(
            module.RealRoot, "rational", lambda root: refined.append(root) or rational(root)
        )
        kinds, refined_cubics = set(), 0
        for cert in sweep_box(2):
            if cert.certified:
                isolated.clear()
                refined.clear()
                w = build_witness(cert, 64)
                assert len(isolated) == (not w.exact)
                kinds.add((len(cert.hpoly) - 1, w.exact))
                if refined:
                    assert len(cert.hpoly) == 4
                    refined_cubics += 1
        assert kinds == {(1, True), (2, True), (3, False)}
        assert refined_cubics == 1

    @given(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        st.integers(1, 40),
        st.integers(1, 10**6),
    )
    def test_ceil_abs_is_the_least_integer_bound(self, z, den, scale):
        # the least r >= |z| scale / den, from exact squares: |3 + i| =
        # sqrt(10) needs the ceiling of the integer square root, not its floor
        r = _ceil_abs(z, den, scale)
        norm = (z[0] ** 2 + z[1] ** 2) * scale**2
        assert (r * den) ** 2 >= norm
        assert r == 0 or ((r - 1) * den) ** 2 < norm

    def test_ceil_abs_of_an_irrational_modulus(self):
        assert _ceil_abs((3, 1), 1, 1) == 4
        assert _ceil_abs((1, 1), 1, 10) == 15  # 10 sqrt(2) = 14.14...
        assert _ceil_abs((-3, 4), 5, 7) == 7

    @pytest.mark.parametrize(
        "u, den, expected",
        [
            ((1, 5, 0, 1), 1, True),  # unipotent with bc = 0: b only
            ((3, 0, -6, 3), 3, True),  # ... and c only, over den 3
            ((3, 1, -4, -1), 1, True),
            ((1, 0, 0, 1), 1, False),  # the identity
            ((4, 0, 0, 4), 4, False),
            ((2, 1, 1, 1), 1, False),  # determinant 1, trace 3
            ((1, 1, 1, 1), 1, False),  # trace 2, determinant 0
        ],
    )
    def test_unipotent_not_identity(self, u, den, expected):
        assert _unipotent_not_identity(*u, den) is expected

    def test_box2_witnesses_are_pinned(self):
        # sha256 of the JSON of every box-2 witness without its "residual",
        # recorded while witness roots still came from mpmath.polyroots
        lines = []
        for cert in sweep_box(2):
            if not cert.certified:
                continue
            data = build_witness(cert, 64).to_json()
            assert Fraction(data.pop("residual")) <= Fraction(1, 10**50)
            lines.append(json.dumps(data, sort_keys=True))
        assert len(lines) == 240
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "cf5b901b37eb690d6f1b6adbf68aa7d962c512b6221013eb4a7278f59c84d5ce"

    def test_box3_witnesses_are_pinned(self):
        # sha256 of the JSON of every box-3 witness, residual included,
        # recorded while every real root of h was still refined to decide
        # whether it is rational
        lines = [
            json.dumps(build_witness(cert, 64).to_json(), sort_keys=True)
            for cert in sweep_box(3)
            if cert.certified
        ]
        assert len(lines) == 1260
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e6e0b0c5d4c8e4334375a70e0449cb476bcada5c61e9394dc6629e078a251402"


class TestSweep:
    def test_small_box_all_certified(self):
        certs = sweep_box(max_abs=1, seed=2)
        assert len(certs) == 16
        for cert in certs:
            if cert.params.is_trivial():
                assert cert.status is CertStatus.TRIVIAL_WORD
            else:
                assert cert.certified
            assert check_certificate(cert).valid


def load_validator():
    """perfbench/validator.py, the brute-force oracle that imports nothing
    from sl2wiggle, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "validator.py"
    spec = importlib.util.spec_from_file_location("perfbench_validator", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tampered(entry: dict) -> list[dict]:
    """Copies with h times (t - 2), mu + 1, and the status flipped."""
    h = [Fraction(c) for c in entry["h"]]
    h_t2 = [str(a - 2 * b) for a, b in zip([Fraction(0)] + h, h + [Fraction(0)])]
    flip = {"Certified": "SwappedCertified", "SwappedCertified": "Certified"}
    return [
        {**entry, "h": h_t2},
        {**entry, "mu": str(Fraction(entry["mu"]) + 1)},
        {**entry, "status": flip[entry["status"]]},
    ]


def test_checker_agrees_with_the_independent_validator():
    validator = load_validator()
    entries = [c.to_json() for c in sweep_box(2) if c.certified]
    rejected = 0
    for entry in random.Random(2024).sample(entries, 40):
        assert check_certificate(Certificate.from_json(entry)).valid
        assert validator.validate_certificate(entry)[0]
        for data in tampered(entry):
            valid = check_certificate(Certificate.from_json(data)).valid
            assert valid == validator.validate_certificate(data)[0], data
            rejected += not valid
    # h (t - 2) and mu + 1 always make a false claim here
    assert rejected >= 80
