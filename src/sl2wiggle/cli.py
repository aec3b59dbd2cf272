"""Command-line surface: polys, verify, certify, witness, oracle.

JSON output (--json) is deterministic for a fixed invocation including the
seed.  Exit codes: 0 success or Certified, 1 Inconclusive or a failed
check, 2 TrivialWord, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from itertools import product
from math import prod
from typing import Optional

from .certify import (
    Certificate,
    CertStatus,
    DCParams,
    _tuple_seed,
    build_witness,
    certify,
    check_certificate,
)
from .errors import PrecisionExhaustedError
from .exact.mat2 import Mat2, mat2_q
from .exact.polycore import pretty
from .wiggle import assoc_polys, eval_direct, eval_normal_form, gamma_of, trace_poly, verify_identities
from .words import EXPANSION_CAP, Word, parse_word

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_TRIVIAL = 2
EXIT_INPUT = 3


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _integers(parts: list[str], expected: str, text: str) -> list[int]:
    """The parts as ints, or an ArgumentTypeError saying what was expected."""
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, not {text.strip()!r}") from None


def _exponents(text: str) -> DCParams:
    expected = "four comma-separated integers k,l,m,n"
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected {expected}, not {text.strip()!r}")
    return DCParams(*_integers(parts, expected, text))


def _grid(text: str) -> list[DCParams]:
    expected = "four integer colon ranges, e.g. 1:2,1:2,1:3,1:3"
    ranges = []
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected {expected}")
    for part in parts:
        lo, _, hi = part.partition(":")
        lo, hi = _integers([lo, hi or lo], expected, text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {part.strip()}")
        ranges.append(range(lo, hi + 1))
    size = prod(map(len, ranges))  # counted before any tuple is built
    if size > EXPANSION_CAP:
        raise argparse.ArgumentTypeError(
            f"grid of {size} tuples exceeds the cap of {EXPANSION_CAP}"
        )
    return [DCParams(*e) for e in product(*ranges)]


def _fraction(text: str, message: str = "") -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text.strip()}") from None
    except ValueError:
        message = message or f"expected a rational p/q, not {text.strip()!r}"
        raise argparse.ArgumentTypeError(message) from None


def _nonzero(text: str) -> Fraction:
    value = _fraction(text)
    if not value:
        raise argparse.ArgumentTypeError("must be nonzero")
    return value


def _positive(text: str) -> int:
    (value,) = _integers([text], "a positive integer", text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _matrix(text: str) -> Mat2[Fraction]:
    message = f"expected four rationals a,b,c,d, not {text.strip()!r}"
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(message)
    return mat2_q(*[_fraction(v, message) for v in parts])


def _resolve_word(args: argparse.Namespace) -> Word:
    if args.word is not None:
        return parse_word(args.word)
    return args.dc.word()


def _status_exit(status: CertStatus) -> int:
    if status in (CertStatus.CERTIFIED, CertStatus.SWAPPED_CERTIFIED):
        return EXIT_OK
    if status is CertStatus.TRIVIAL_WORD:
        return EXIT_TRIVIAL
    return EXIT_INCONCLUSIVE


def _cmd_polys(args: argparse.Namespace) -> int:
    ap = assoc_polys(_resolve_word(args))
    gamma = gamma_of(ap)
    trace = trace_poly(ap)
    if args.json:
        _emit(
            {
                "alpha": ap.alpha.to_json(),
                "beta": ap.beta.to_json(),
                "gamma": gamma.to_json(),
                "trace": trace.to_json(),
            }
        )
    else:
        print(f"alpha = {ap.alpha.pretty()}")
        print(f"beta  = {ap.beta.pretty()}")
        print(f"gamma = {gamma.pretty()}")
        print(f"trace = {trace.pretty()}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_identities(assoc_polys(_resolve_word(args)))
    if args.json:
        _emit(
            {
                "det_identity_ok": report.det_identity_ok,
                "sigma_symmetry_ok": report.sigma_symmetry_ok,
                "bezout_ok": report.bezout_ok,
                "ok": report.ok,
            }
        )
    else:
        for name in report.failures:
            print(f"FAILED: {name}")
        print("all identities hold" if report.ok else "identity check failed")
    return EXIT_OK if report.ok else EXIT_INCONCLUSIVE


def _run_certify(args: argparse.Namespace, params: DCParams, seed: int) -> Certificate:
    initial = None if args.lam0 is None else (args.lam0, args.mu0)
    cert = certify(params, seed=seed, max_attempts=args.max_attempts, initial=initial)
    outcome = check_certificate(cert)
    if not outcome.valid:
        raise AssertionError(
            f"emitted certificate failed independent checking: {outcome.reason}"
        )
    return cert


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.grid is not None:
        max_abs = max(abs(v) for params in args.grid for v in params.as_list())  # as sweep_box
        certs = [_run_certify(args, p, _tuple_seed(args.seed, p, max_abs)) for p in args.grid]
        if args.json:
            _emit([c.to_json() for c in certs])
        else:
            for c in certs:
                print(f"{c.params.as_list()}: {c.status.value} (attempts={c.attempts})")
        if any(c.status is CertStatus.INCONCLUSIVE for c in certs):
            return EXIT_INCONCLUSIVE
        return EXIT_OK
    cert = _run_certify(args, args.dc, args.seed)
    if args.json:
        _emit(cert.to_json())
    else:
        print(f"status: {cert.status.value} (attempts={cert.attempts})")
        if cert.certified:
            print(f"lambda = {cert.lam0}, mu = {cert.mu0}")
            print(f"h(t) = {pretty(cert.hpoly)}")
    return _status_exit(cert.status)


def _matrix_text(m) -> str:
    """The rows of m with each entry in str form, as --json writes them."""
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in m.rows()) + "]"


def _cmd_witness(args: argparse.Namespace) -> int:
    cert = _run_certify(args, args.dc, args.seed)
    if not cert.certified:
        if args.json:
            _emit(cert.to_json())
        else:
            print(f"status: {cert.status.value}")
        return _status_exit(cert.status)
    witness = build_witness(cert, precision_digits=args.precision)
    if args.json:
        payload = cert.to_json()
        payload["witness"] = witness.to_json()
        _emit(payload)
    else:
        print(f"status: {cert.status.value}")
        if witness.exact:
            print(f"exact witness at t0 = {witness.t0}")
            print(f"g = {_matrix_text(witness.g)}")
            print(f"u = {_matrix_text(witness.u)}")
        else:
            print(f"numeric witness near t0 = {witness.t0_approx[0]}")
            print(f"residual bound {witness.residual}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    word = _resolve_word(args)
    rng = random.Random(args.seed or 0)
    cases = []
    if args.g is not None:
        cases.append((args.lam0, args.mu0, args.g))
    else:
        for _ in range(20 if args.count is None else args.count):
            lam0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            mu0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            g = mat2_q(1, rng.randint(-5, 5), 0, 1) * mat2_q(
                1, 0, rng.randint(-5, 5), 1
            )
            cases.append((lam0, mu0, g))
    ap = assoc_polys(word)
    mismatches = 0
    for lam0, mu0, g in cases:
        nf = eval_normal_form(ap, lam0, mu0, g)
        direct = eval_direct(word, lam0, mu0, g)
        if nf != direct:
            mismatches += 1
    if args.json:
        _emit({"cases": len(cases), "mismatches": mismatches})
    else:
        print(f"{len(cases)} cases, {mismatches} mismatches")
    return EXIT_OK if mismatches == 0 else EXIT_INCONCLUSIVE


_COMMANDS = {
    "polys": _cmd_polys,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "witness": _cmd_witness,
    "oracle": _cmd_oracle,
}


class _NumericParser(argparse.ArgumentParser):
    """Reads an argument that starts with "-" and a digit, such as -2/3 or
    -1,1,2,3, as a value rather than an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


class _Parser(_NumericParser):
    """Reports usage errors as input errors instead of exiting with code 2."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sl2wiggle",
        description="Exact wiggle normal forms and unipotent certificates on SL2",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "witness":
            p.add_argument("--dc", type=_exponents, required=True, help="k,l,m,n")
        else:
            src = p.add_mutually_exclusive_group(required=True)
            if name == "certify":
                src.add_argument("--dc", type=_exponents, help="k,l,m,n")
                src.add_argument(
                    "--grid", type=_grid, help="ranges kmin:kmax,lmin:lmax,mmin:mmax,nmin:nmax"
                )
            else:
                src.add_argument("--word", help="word text, e.g. '[x,y]' or 'x^2 y^-1'")
                src.add_argument(
                    "--dc", type=_exponents, help="double commutator exponents k,l,m,n"
                )
        if name in ("certify", "witness", "oracle"):
            p.add_argument("--lambda", dest="lam0", type=_nonzero, help="rational p/q")
            p.add_argument("--mu", dest="mu0", type=_nonzero, help="rational p/q")
            # oracle reads --seed only for random cases: None is 0 there
            p.add_argument("--seed", type=int, default=None if name == "oracle" else 0)
        if name in ("certify", "witness"):
            p.add_argument("--max-attempts", type=_positive, default=5)
        if name == "witness":
            p.add_argument("--precision", type=_positive, default=64)
        if name == "oracle":
            p.add_argument("--g", type=_matrix, help="entries a,b,c,d of a det-1 matrix")
            p.add_argument("--count", type=_positive, help="random cases (default 20)")
        p.add_argument("--json", action="store_true")
    return parser


def _check_options(args: argparse.Namespace) -> None:
    """The checks that involve more than one option."""
    lam0, mu0 = getattr(args, "lam0", None), getattr(args, "mu0", None)
    if (lam0 is None) != (mu0 is None):
        raise ValueError("--lambda and --mu must be given together")
    # lambda = +-1 makes every double commutator's prefactor vanish
    if args.command in ("certify", "witness") and lam0 is not None:
        if abs(lam0) == 1 or abs(mu0) == 1:
            raise ValueError("--lambda and --mu must not be 1 or -1 for " + args.command)
    if args.command == "oracle" and (lam0 is None) != (args.g is None):
        raise ValueError("oracle needs --lambda, --mu and --g together, or none of them")
    if args.command == "oracle" and args.g is not None:
        if args.count is not None or args.seed is not None:
            raise ValueError("--count and --seed choose random cases; --g gives the one case")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        return _COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PrecisionExhaustedError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
