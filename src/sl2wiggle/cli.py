"""Command-line surface: polys, verify, certify, witness, oracle.

JSON output (--json) is deterministic for a fixed invocation including the
seed.  Exit codes: 0 success or Certified, 1 Inconclusive or a failed
check, 2 TrivialWord, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
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
from .errors import ParseError, PrecisionExhaustedError
from .exact.mat2 import mat2_q
from .wiggle import assoc_polys, eval_direct, eval_normal_form, gamma_of, trace_poly, verify_identities
from .words import Word, parse_word

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_TRIVIAL = 2
EXIT_INPUT = 3


@dataclass
class RunConfig:
    command: str
    word_text: Optional[str] = None
    dc_params: Optional[DCParams] = None
    lam0: Optional[Fraction] = None
    mu0: Optional[Fraction] = None
    seed: int = 0
    precision_digits: int = 64
    max_attempts: int = 5
    json_output: bool = False
    grid: Optional[str] = None
    g_entries: Optional[tuple[Fraction, Fraction, Fraction, Fraction]] = None
    count: int = 20


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_dc(text: str) -> DCParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected four comma-separated integers")
    return DCParams(*[int(p.strip()) for p in parts])


def _parse_grid(text: str) -> list[DCParams]:
    ranges = []
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected four colon ranges, e.g. 1:2,1:2,1:3,1:3")
    for part in parts:
        lo, _, hi = part.partition(":")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"empty range {part.strip()} in --grid")
        ranges.append(range(lo, hi + 1))
    out = []
    for k in ranges[0]:
        for l in ranges[1]:
            for m in ranges[2]:
                for n in ranges[3]:
                    out.append(DCParams(k, l, m, n))
    return out


def _resolve_word(config: RunConfig) -> Word:
    if config.word_text is not None:
        return parse_word(config.word_text)
    return config.dc_params.word()


def _status_exit(status: CertStatus) -> int:
    if status in (CertStatus.CERTIFIED, CertStatus.SWAPPED_CERTIFIED):
        return EXIT_OK
    if status is CertStatus.TRIVIAL_WORD:
        return EXIT_TRIVIAL
    return EXIT_INCONCLUSIVE


def _cmd_polys(config: RunConfig) -> int:
    ap = assoc_polys(_resolve_word(config))
    gamma = gamma_of(ap)
    trace = trace_poly(ap)
    if config.json_output:
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


def _cmd_verify(config: RunConfig) -> int:
    report = verify_identities(assoc_polys(_resolve_word(config)))
    if config.json_output:
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


def _run_certify(config: RunConfig, params: DCParams, seed: int) -> Certificate:
    initial = None
    if config.lam0 is not None and config.mu0 is not None:
        initial = (config.lam0, config.mu0)
    cert = certify(
        params, seed=seed, max_attempts=config.max_attempts, initial=initial
    )
    outcome = check_certificate(cert)
    if not outcome.valid:
        raise AssertionError(
            f"emitted certificate failed independent checking: {outcome.reason}"
        )
    return cert


def _cmd_certify(config: RunConfig) -> int:
    if config.grid is not None:
        grid = _parse_grid(config.grid)
        max_abs = max(abs(v) for params in grid for v in params.as_list())  # as sweep_box
        certs = [_run_certify(config, p, _tuple_seed(config.seed, p, max_abs)) for p in grid]
        if config.json_output:
            _emit([c.to_json() for c in certs])
        else:
            for c in certs:
                print(f"{c.params.as_list()}: {c.status.value} (attempts={c.attempts})")
        if any(c.status is CertStatus.INCONCLUSIVE for c in certs):
            return EXIT_INCONCLUSIVE
        return EXIT_OK
    cert = _run_certify(config, config.dc_params, config.seed)
    if config.json_output:
        _emit(cert.to_json())
    else:
        print(f"status: {cert.status.value} (attempts={cert.attempts})")
        if cert.certified:
            print(f"lambda = {cert.lam0}, mu = {cert.mu0}")
            print(f"h(t) = {cert.hpoly.pretty()}")
    return _status_exit(cert.status)


def _cmd_witness(config: RunConfig) -> int:
    cert = _run_certify(config, config.dc_params, config.seed)
    if not cert.certified:
        if config.json_output:
            _emit(cert.to_json())
        else:
            print(f"status: {cert.status.value}")
        return _status_exit(cert.status)
    witness = build_witness(cert, precision_digits=config.precision_digits)
    if config.json_output:
        payload = cert.to_json()
        payload["witness"] = witness.to_json()
        _emit(payload)
    else:
        print(f"status: {cert.status.value}")
        if witness.exact:
            print(f"exact witness at t0 = {witness.t0}")
            print(f"g = {witness.g.rows()}")
            print(f"u = {witness.u.rows()}")
        else:
            print(f"numeric witness near t0 = {witness.t0_approx[0]}")
            print(f"residual bound {witness.residual}")
    return EXIT_OK


def _cmd_oracle(config: RunConfig) -> int:
    word = _resolve_word(config)
    rng = random.Random(config.seed)
    cases = []
    if config.g_entries is not None:
        cases.append((config.lam0, config.mu0, mat2_q(*config.g_entries)))
    else:
        for _ in range(config.count):
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
        if nf.matrix != direct:
            mismatches += 1
    if config.json_output:
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


class _Parser(argparse.ArgumentParser):
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
            p.add_argument("--dc", required=True, help="k,l,m,n")
        else:
            src = p.add_mutually_exclusive_group(required=True)
            if name == "certify":
                src.add_argument("--dc", help="k,l,m,n")
                src.add_argument(
                    "--grid", help="ranges kmin:kmax,lmin:lmax,mmin:mmax,nmin:nmax"
                )
            else:
                src.add_argument("--word", help="word text, e.g. '[x,y]' or 'x^2 y^-1'")
                src.add_argument("--dc", help="double commutator exponents k,l,m,n")
        if name in ("certify", "witness", "oracle"):
            p.add_argument("--lambda", dest="lam0", help="rational p/q")
            p.add_argument("--mu", dest="mu0", help="rational p/q")
            p.add_argument("--seed", type=int, default=0)
        if name in ("certify", "witness"):
            p.add_argument("--max-attempts", type=int, default=5)
        if name == "witness":
            p.add_argument("--precision", type=int, default=64)
        if name == "oracle":
            p.add_argument("--g", help="entries a,b,c,d of a det-1 matrix")
            p.add_argument("--count", type=int, default=20)
        p.add_argument("--json", action="store_true")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command, json_output=args.json)
    config.word_text = getattr(args, "word", None)
    if getattr(args, "dc", None) is not None:
        config.dc_params = _parse_dc(args.dc)
    config.grid = getattr(args, "grid", None)
    if getattr(args, "lam0", None) is not None:
        config.lam0 = Fraction(args.lam0)
    if getattr(args, "mu0", None) is not None:
        config.mu0 = Fraction(args.mu0)
    if (config.lam0 is None) != (config.mu0 is None):
        raise ValueError("--lambda and --mu must be given together")
    if config.lam0 == 0 or config.mu0 == 0:
        raise ValueError("--lambda and --mu must be nonzero")
    # lambda = +-1 makes every double commutator's prefactor vanish
    if args.command in ("certify", "witness") and config.lam0 is not None:
        if abs(config.lam0) == 1 or abs(config.mu0) == 1:
            raise ValueError("--lambda and --mu must not be 1 or -1 for " + args.command)
    config.seed = getattr(args, "seed", config.seed)
    config.precision_digits = getattr(args, "precision", config.precision_digits)
    if config.precision_digits < 1:
        raise ValueError("--precision must be at least 1 digit")
    config.max_attempts = getattr(args, "max_attempts", config.max_attempts)
    if config.max_attempts < 1:
        raise ValueError("--max-attempts must be at least 1")
    if getattr(args, "g", None) is not None:
        entries = [Fraction(v.strip()) for v in args.g.split(",")]
        if len(entries) != 4:
            raise ValueError("--g needs four entries a,b,c,d")
        config.g_entries = tuple(entries)
    if args.command == "oracle" and (config.lam0 is None) != (config.g_entries is None):
        raise ValueError("oracle needs --lambda, --mu and --g together, or none of them")
    config.count = getattr(args, "count", config.count)
    if config.count < 1:
        raise ValueError("--count must be at least 1")
    return config


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command](config)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
        return run(config)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PrecisionExhaustedError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
