"""The stored reference certificates for the |e| <= 3 box.

The reference is the output of `scripts/run_sweep.py --max-abs 3 --seed 0`,
stored as gzipped JSON lines: one certificate per line, keys sorted,
no whitespace.  Those compact lines are what `dc-search` output must equal
byte for byte.  Re-serialising the lines the way run_sweep.py does gives
back its exact file, whose digest is REFERENCE_SHA256.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "box3_seed0.jsonl.gz"
REFERENCE_SHA256 = "8e2e725233d1364d32bad6fbbae32ab2a639b5e5f226cbb0f513a041a6298a09"
MAX_ABS = 3


def compact(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def sweep_bytes(entries: list[dict]) -> bytes:
    """The bytes run_sweep.py writes for these certificates."""
    return json.dumps(entries, indent=2, sort_keys=True).encode()


def sweep_digest(entries: list[dict]) -> str:
    return hashlib.sha256(sweep_bytes(entries)).hexdigest()


def load_lines(path: Path = REFERENCE_PATH) -> list[str]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return fh.read().splitlines()


def write_lines(entries: list[dict], path: Path = REFERENCE_PATH) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = "".join(compact(e) + "\n" for e in entries).encode()
    # mtime=0 keeps the archive byte-identical across recordings
    with open(path, "wb") as raw, gzip.GzipFile(
        filename="", mode="wb", fileobj=raw, mtime=0
    ) as fh:
        fh.write(data)


def tuple_seed(params, seed: int = 0, max_abs: int = MAX_ABS) -> int:
    """The per-tuple seed sweep_box(max_abs, seed) hands to certify."""
    code = 0
    for v in params:
        code = code * (2 * max_abs + 1) + (v + max_abs)
    return seed * 1_000_003 + code
