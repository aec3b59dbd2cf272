import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sl2wiggle.certify import (
    Certificate,
    CertStatus,
    CheckOutcome,
    DCParams,
    build_witness,
    certify,
    check_certificate,
    core_polys,
    sweep_box,
)
from sl2wiggle.errors import TrivialWordError
from sl2wiggle.exact import polycore
from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import identity_q, mat2_q
from sl2wiggle.exact.qpoly import QPoly, zexact_div
from sl2wiggle.exact.tpoly import TPoly, resultant
from sl2wiggle.wiggle import gamma_of, specialized_assoc, trace_poly

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
        for params in [(1, 1, 2, 3), (1, 1, 1, 3), (1, 1, -1, -1), (2, -1, 1, 2)]:
            p = DCParams(*params)
            cp = core_polys(p)
            ap = cp.assoc
            t_t1 = TPoly.t() * (TPoly.t() + TPoly.one())
            den2 = cp.prefactor_den * cp.prefactor_den
            pref = TPoly.const(cp.prefactor_num)
            trace = trace_poly(ap)
            assert (trace - TPoly.one() * 2).scale(den2) == pref * pref * t_t1 * t_t1 * cp.tau
            gamma = gamma_of(ap)
            assert (gamma - TPoly.one()).scale(den2) == pref * t_t1 * cp.gamma_inner
            assert (ap.alpha - TPoly.one()).scale(den2) == pref * t_t1 * cp.alpha_core

    def test_specialized_matches_symbolic_route(self):
        t_t1 = QPoly([0, 1, 1])
        for params in [(1, 1, 2, 3), (1, 1, -1, -1), (2, 1, 1, 3)]:
            p = DCParams(*params)
            cp = core_polys(p)
            for lam0, mu0 in [(Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(5, 7))]:
                sa = specialized_assoc(p.cyclic_word(), lam0, mu0)
                pref = cp.prefactor_num.evaluate(lam0, mu0)
                den = cp.prefactor_den.evaluate(lam0, mu0)
                assert pref != 0
                tau = cp.tau.specialize(lam0, mu0)
                gamma_inner = cp.gamma_inner.specialize(lam0, mu0)
                trace = QPoly.from_ints(sa.trace_num, sa.den)
                gamma = QPoly.from_ints(sa.gamma_num, sa.den)
                assert trace - 2 == tau * (pref / den) ** 2 * t_t1 * t_t1
                assert gamma - 1 == gamma_inner * (pref / den**2) * t_t1

    def test_degenerate_specialization_returns_none(self):
        # lambda = +-1 makes the prefactor and so trace - 2 vanish identically
        for lam0 in (Fraction(1), Fraction(-1)):
            sa = specialized_assoc(DCParams(1, 1, 2, 3).cyclic_word(), lam0, Fraction(2))
            assert QPoly.from_ints(sa.trace_num, sa.den) == 2
            cert = certify(DCParams(1, 1, 2, 3), initial=(lam0, Fraction(2)))
            assert cert.status is CertStatus.CERTIFIED
            assert cert.attempts == 2
            assert cert.lam0 != lam0


class TestResultantFormula:
    @pytest.mark.parametrize("params", [(1, 1, 2, 3), (1, 2, 2, 1)])
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
        assert cert.hpoly.degree == 3
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
        assert cert.hpoly == QPoly([49, 48])
        assert cert.hpoly.rational_roots() == [Fraction(-49, 48)]

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

    def test_checker_rejects_tampered_h(self):
        cert = certify(DCParams(1, 1, 2, 3), seed=11)
        tampered = Certificate(
            params=cert.params,
            status=cert.status,
            lam0=cert.lam0,
            mu0=cert.mu0,
            hpoly=cert.hpoly * QPoly([1, 1]),
            checks=cert.checks,
            attempts=cert.attempts,
        )
        assert not check_certificate(tampered).valid

    def test_resultant_consistency_at_specialization(self):
        # generic case: nonzero specialized resultant pins h to the stripped
        # squarefree part of tau
        from fraction_reference import squarefree_without

        cert = certify(DCParams(1, 1, 2, 3), seed=7)
        cp = core_polys(cert.params)
        tau = cp.tau.specialize(cert.lam0, cert.mu0)
        gamma_inner = cp.gamma_inner.specialize(cert.lam0, cert.mu0)
        assert resultant(TPoly(tau.coeffs), TPoly(gamma_inner.coeffs)) != 0
        stripped = squarefree_without(tau, [Fraction(0), Fraction(-1)])
        assert cert.hpoly == QPoly(stripped.primitive_ints())

    def test_tau_vanishing_at_zero_is_logged(self, caplog):
        import logging

        # at lam = mu = 2, tau(0) = 0 for (2, 1, 1, 2) and tau(-1) = 0 for
        # (1, 1, -1, -1), so trace - 2 vanishes to order 3 there
        lam0 = mu0 = Fraction(2)
        for params, seed, root in [((2, 1, 1, 2), 4, 0), ((1, 1, -1, -1), 5, -1)]:
            p = DCParams(*params)
            assert core_polys(p).tau.specialize(lam0, mu0).evaluate(root) == 0
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
        ],
    )
    def test_checker_rejects_malformed_parameters(self, change, reason):
        data = {**certify(DCParams(1, 1, 2, 3), seed=7).to_json(), **change}
        cert = Certificate.from_json({k: v for k, v in data.items() if v is not None})
        assert check_certificate(cert) == CheckOutcome(valid=False, reason=reason)

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
        assert w.minimal_poly.degree >= 2
        assert w.residual <= Fraction(1, 10**50)
        assert w.modular.all_ok
        h1 = w.minimal_poly.primitive_ints()
        assert zexact_div(cert.hpoly.primitive_ints(), h1) is not None

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
            QPoly([-9, 64, 64]), None, 1,
        )
        assert not check_certificate(cert).valid
        with pytest.raises(AssertionError, match="modular certificate"):
            build_witness(cert)

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
