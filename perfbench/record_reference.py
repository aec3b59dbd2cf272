#!/usr/bin/env python3
"""Re-record the reference certificates from scripts/run_sweep.py.

Run from the repository root:

    python3 perfbench/record_reference.py

It runs `scripts/run_sweep.py --max-abs 3 --seed 0` (about 30 s), checks
the digest of its output against reference.REFERENCE_SHA256, validates
every certificate with the independent validator, and rewrites
perfbench/data/box3_seed0.jsonl.gz.  Any mismatch exits nonzero and
leaves the stored reference untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import reference
import validator

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep_box3_seed0.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweep.py"), "--max-abs", "3",
         "--seed", "0", "--out", str(sweep_path)],
        check=True, env=env,
    )
    raw = sweep_path.read_bytes()
    entries = json.loads(raw)
    if reference.sweep_bytes(entries) != raw:
        print("re-serialising the sweep does not reproduce its bytes", file=sys.stderr)
        return 1
    digest = reference.sweep_digest(entries)
    if digest != reference.REFERENCE_SHA256:
        print(f"sweep digest {digest} != {reference.REFERENCE_SHA256}", file=sys.stderr)
        return 1
    bad = []
    for entry in entries:
        ok, reason = validator.validate_certificate(entry)
        if not ok:
            bad.append((entry["params"], reason))
    if bad:
        for params, reason in bad:
            print(f"validator rejects {params}: {reason}", file=sys.stderr)
        return 1
    reference.write_lines(entries)
    print(f"{len(entries)} certificates validated; wrote {reference.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
