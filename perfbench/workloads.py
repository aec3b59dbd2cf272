"""The four workloads: seeded inputs, one item, and an oracle per item.

Inputs are grouped into blocks of a fixed composition (see
`stratified_blocks`), so the seed changes which inputs run and in what
order but not the mix of cheap and expensive ones.  A run processes whole
blocks, cycling through them, and items repeat only after every block has
run once.

`run` calls the package through module attributes, so the tracing
wrappers see every call.  `check` runs after the timed phase and returns
None for a correct output or the reason it is wrong.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import reference
import validator

# module objects, not names: sl2wiggle re-exports a function called certify
C = importlib.import_module("sl2wiggle.certify")
T = importlib.import_module("sl2wiggle.exact.tpoly")
W = importlib.import_module("sl2wiggle.wiggle")

ROOT = Path(__file__).resolve().parent.parent
WITNESS_DIGITS = 64
TAMPER_KINDS = ("h_times_t_minus_2", "mu_plus_1", "status_flip")


def stratified_blocks(strata, rng: random.Random, n_blocks: int) -> list[list]:
    """Blocks that each take `per_block` items from every (pool, per_block)
    stratum; pools are shuffled once and consumed in order, cycling."""
    pools = [rng.sample(pool, len(pool)) for pool, _ in strata]
    blocks = []
    for b in range(n_blocks):
        block = []
        for pool, (_, per) in zip(pools, strata):
            block.extend(pool[(b * per + j) % len(pool)] for j in range(per))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _reference_entries() -> list[tuple[str, dict]]:
    return [(line, json.loads(line)) for line in reference.load_lines()]


def is_generic(params) -> bool:
    k, l, m, n = params
    return k != m and l != n


def tamper(entry: dict, kind: str) -> dict:
    """A copy of a certified entry with one recorded fact changed."""
    out = dict(entry)
    if kind == "h_times_t_minus_2":
        h = [Fraction(c) for c in entry["h"]] + [Fraction(0)]
        out["h"] = [str((h[i - 1] if i else 0) - 2 * h[i]) for i in range(len(h))]
    elif kind == "mu_plus_1":
        out["mu"] = str(Fraction(entry["mu"]) + 1)
    elif kind == "status_flip":
        flip = {"Certified": "SwappedCertified", "SwappedCertified": "Certified"}
        out["status"] = flip[entry["status"]]
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return out


def tamper_bases(entries: list[dict]) -> dict[str, list[dict]]:
    """Certified entries each tamper kind starts from, chosen so that the
    tampered copy makes a false claim.  On the k = m and l = n families h
    need not depend on mu, so mu + 1 starts from generic tuples only; a
    Certified tuple can be conjugate to its own swap (k = l, m = n, say),
    so status flips start from SwappedCertified entries only."""
    return {
        "h_times_t_minus_2": entries,
        "mu_plus_1": [e for e in entries if is_generic(e["params"])],
        "status_flip": [e for e in entries if e["status"] == "SwappedCertified"],
    }


class Workload:
    name: str
    blocks: list[list]
    # blocks run by the traced phase; fixed so per-layer counts repeat exactly
    traced_blocks: int
    # highest tail percentile reported, fixed so the choice does not flip
    # between runs whose item counts differ
    tail_percentile: float

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        raise NotImplementedError


class DcSearch(Workload):
    """certify() over the |e| <= 3 box with the per-tuple seeds of sweep_box."""

    name = "dc-search"
    traced_blocks = 12
    tail_percentile = 95.0

    def __init__(self, seed: int):
        self.expected: dict[tuple, str] = {}
        strata: dict[str, list] = {s: [] for s in ("Certified", "SwappedCertified", "TrivialWord")}
        for line, entry in _reference_entries():
            params = tuple(entry["params"])
            self.expected[params] = line
            strata[entry["status"]].append((C.DCParams(*params), reference.tuple_seed(params)))
        # 1080 : 180 : 36 is 30 : 5 : 1, so 36 blocks hold the box exactly once
        self.blocks = stratified_blocks(
            [(strata["Certified"], 30), (strata["SwappedCertified"], 5), (strata["TrivialWord"], 1)],
            random.Random(f"{self.name}:{seed}"),
            36,
        )

    def run(self, item) -> str:
        params, tuple_seed = item
        return reference.compact(C.certify(params, seed=tuple_seed, max_attempts=5).to_json())

    def check(self, item, output: str) -> str | None:
        if output != self.expected[tuple(item[0].as_list())]:
            return "certificate JSON differs from the reference"
        return None


class DcRecheck(Workload):
    """check_certificate() over stored certificates plus tampered copies."""

    name = "dc-recheck"
    traced_blocks = 24
    tail_percentile = 95.0

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        entries = [e for _, e in _reference_entries() if e["status"] in validator.CERTIFIED]
        pools = {s: [] for s in validator.CERTIFIED}
        for entry in entries:
            pools[entry["status"]].append(("genuine", C.Certificate.from_json(entry), entry))
        bases = tamper_bases(entries)
        self.blocks = stratified_blocks(
            [(pools["Certified"], 12), (pools["SwappedCertified"], 2)], rng, 90
        )
        for block in self.blocks:
            for kind in TAMPER_KINDS:
                bad = tamper(rng.choice(bases[kind]), kind)
                block.insert(rng.randrange(len(block) + 1), (kind, C.Certificate.from_json(bad), bad))
        self._verdicts: dict[str, bool] = {}

    def run(self, item) -> bool:
        return C.check_certificate(item[1]).valid

    def check(self, item, valid: bool) -> str | None:
        kind, _, entry = item
        if kind == "genuine":
            expected = True
        else:
            key = reference.compact(entry)
            if key not in self._verdicts:
                self._verdicts[key] = validator.validate_certificate(entry)[0]
            expected = self._verdicts[key]
        if valid != expected:
            return f"{kind} certificate judged {'valid' if valid else 'invalid'}"
        return None


class DcWitness(Workload):
    """build_witness(cert, 64) over stored certificates."""

    name = "dc-witness"
    traced_blocks = 12
    tail_percentile = 90.0

    def __init__(self, seed: int):
        by_degree: dict[int, list] = {1: [], 2: [], 3: []}
        for _, entry in _reference_entries():
            if entry["status"] in validator.CERTIFIED:
                by_degree[len(entry["h"]) - 1].append((C.Certificate.from_json(entry), entry))
        # 36 : 360 : 864 is 1 : 10 : 24, so 36 blocks hold every certificate once
        self.blocks = stratified_blocks(
            [(by_degree[1], 1), (by_degree[2], 10), (by_degree[3], 24)],
            random.Random(f"{self.name}:{seed}"),
            36,
        )
        # serialised witnesses already validated; a repeat must match exactly
        self._checked: dict[tuple, str] = {}

    def run(self, item) -> dict:
        return C.build_witness(item[0], precision_digits=WITNESS_DIGITS).to_json()

    def check(self, item, output: dict) -> str | None:
        entry = item[1]
        key, text = tuple(entry["params"]), reference.compact(output)
        if key in self._checked:
            return None if text == self._checked[key] else "witness differs between runs"
        ok, reason = validator.validate_witness(entry, output, WITNESS_DIGITS)
        if not ok:
            return reason
        self._checked[key] = text
        return None


def _orbit(params) -> list[tuple]:
    """The tuple under lambda -> 1/lambda and mu -> 1/mu, which negate the
    x- and y-exponents and so mirror every table term for term."""
    k, l, m, n = params
    return sorted({(a * k, b * l, a * m, b * n) for a in (1, -1) for b in (1, -1)})


class SymbolicTables(Workload):
    """core_polys, resultant(tau, gamma_inner), verify_identities for |e| <= 2.

    A block is one tuple from each of 27 sign orbits: all 24 orbits of the
    k = m or l = n families (about 0.1 to 0.3 s each on the reference
    machine) and three generic orbits, one whose resultant vanishes and the
    two with the smallest non-zero resultant (about 1 to 1.5 s each).  The
    other generic orbits take up to 11 s a tuple; with them a run would
    hold too few items to give a median or a tail.
    """

    name = "symbolic-tables"
    traced_blocks = 1
    tail_percentile = 75.0
    GENERIC_ORBITS = ((-1, -1, 1, 1), (-1, -1, -2, 1), (-1, -2, -2, 2))
    POINT = (Fraction(2, 3), Fraction(5, 7))

    def __init__(self, seed: int):
        values = (-2, -1, 1, 2)
        orbits = {
            tuple(_orbit((k, l, m, n)))
            for k in values for l in values for m in values for n in values
            if (k, l) != (m, n) and not is_generic((k, l, m, n))
        }
        orbits = sorted(orbits) + [tuple(_orbit(p)) for p in self.GENERIC_ORBITS]
        rng = random.Random(f"{self.name}:{seed}")
        self.blocks = []
        for _ in range(8):
            block = [C.DCParams(*rng.choice(orbit)) for orbit in orbits]
            rng.shuffle(block)
            self.blocks.append(block)
        # hashes of outputs already checked; a repeat must match
        self._checked: dict[tuple, int] = {}
        self._tables = None

    def run(self, params):
        cp = C.core_polys(params)
        res = T.resultant(cp.tau, cp.gamma_inner)
        return cp.tau, cp.gamma_inner, cp.alpha_core, res, W.verify_identities(cp.assoc).ok

    def check(self, params, output) -> str | None:
        key = tuple(params.as_list())
        if key in self._checked:
            return None if hash(output) == self._checked[key] else "tables differ between runs"
        reason = self._check_tables(key, output)
        if reason is None:
            self._checked[key] = hash(output)
        return reason

    def _check_tables(self, key, output) -> str | None:
        tau, gamma_inner, alpha_core, res, identities_ok = output
        if not identities_ok:
            return "verify_identities reported a failure"
        tables = self._reference_tables()
        if [tau.coeff(i) for i in range(4)] != tables.tau_coeffs(*key):
            return "tau differs from the coefficient table"
        if [alpha_core.coeff(i) for i in range(5)] != tables.alpha_core_coeffs(*key):
            return "alpha cofactor differs from the coefficient table"
        # the closed form holds only for k != m
        if key[0] != key[2] and res != tables.resultant_closed_form(*key):
            return "resultant differs from the closed form"
        lam, mu = self.POINT
        at = lambda c: sum(v * lam**a * mu**b for (a, b), v in c.terms().items())
        return validator.check_tables_at_point(
            key,
            [at(c) for c in tau.coeffs],
            [at(c) for c in gamma_inner.coeffs],
            [at(c) for c in alpha_core.coeffs],
            at(res),
            lam,
            mu,
        )

    def _reference_tables(self):
        if self._tables is None:
            path = ROOT / "tests" / "dc_reference.py"
            spec = importlib.util.spec_from_file_location("dc_reference", path)
            self._tables = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self._tables)
        return self._tables


WORKLOADS = {w.name: w for w in (DcSearch, DcRecheck, DcWitness, SymbolicTables)}
