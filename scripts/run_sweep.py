#!/usr/bin/env python3
"""Sweep all double-commutator exponent tuples in a box and certify each.

Writes one certificate per tuple as JSON and prints a summary and the
sha256 of the written file, so sweeps can be compared by digest.  Every
certificate is re-verified by the independent checker before it is
written; the exit code is nonzero if any nontrivial tuple stays
inconclusive, any check fails, or the digest differs from --expect-sha256.
"""

import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

from sl2wiggle.certify import check_certificate, sweep_box
from sl2wiggle.cli import _NumericParser, _positive


def main() -> int:
    parser = _NumericParser(description=__doc__)
    parser.add_argument("--max-abs", type=_positive, default=3, help="exponent bound")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-attempts", type=_positive, default=5)
    parser.add_argument("--out", type=Path, default=Path("sweep.json"))
    parser.add_argument(
        "--expect-sha256", metavar="HEX", help="exit 1 if the written file has another sha256"
    )
    args = parser.parse_args()

    start = time.perf_counter()
    certs = sweep_box(max_abs=args.max_abs, seed=args.seed, max_attempts=args.max_attempts)
    elapsed = time.perf_counter() - start

    failures = []
    for cert in certs:
        outcome = check_certificate(cert)
        if not outcome.valid:
            failures.append((cert.params.as_list(), outcome.reason))

    counts = Counter(cert.status.value for cert in certs)
    print(f"{len(certs)} tuples in {elapsed:.1f}s: {dict(counts)}")
    if failures:
        for params, reason in failures:
            print(f"CHECK FAILED for {params}: {reason}", file=sys.stderr)

    data = json.dumps([c.to_json() for c in certs], indent=2, sort_keys=True).encode()
    args.out.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    print(f"wrote {args.out} (sha256 {digest})")
    mismatch = args.expect_sha256 is not None and digest != args.expect_sha256.lower()
    if mismatch:
        print(f"DIGEST MISMATCH: expected {args.expect_sha256}, got {digest}", file=sys.stderr)

    inconclusive = counts.get("Inconclusive", 0)
    return 1 if (failures or inconclusive or mismatch) else 0


if __name__ == "__main__":
    raise SystemExit(main())
