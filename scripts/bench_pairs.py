#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

Runs the unmodified perfbench/run.py of each side, one process at a
time: the parent in a `git archive` export unpacked in a temporary
directory (and removed afterwards), the change in this working tree,
committed or not.
Each pair runs both sides on one seed for BENCHMARK.json's run_seconds
and alternates which side runs first.  The claimed workload gets 10 pairs (seeds 11-20), every other
workload of BENCHMARK.json 5 (seeds 21-25).  The sweep digest of
scripts/run_sweep.py --max-abs 3 --seed 0 is taken on both sides.

Writes BENCH_<tag>.json at the root of the working tree: per pair the
end-to-end metrics and failed counts of both sides, per workload and
metric the medians, quartiles (statistics.quantiles, n=4, inclusive) and
interquartile ranges of both sides, the change's wins and the change of
the median, plus a note on the machine.  Each metric also gets two
verdicts (see summary):

    gain        true when the change wins at least 9/10 of the pairs and
                its median is better than the parent's by more than the
                parent's interquartile range;
    regression  "worse" when the change's median is worse than the
                parent's by more than the metric's bound in BENCHMARK.json
                (a fraction of the parent's median); else "unresolved"
                when either side's interquartile range is wider than that
                bound and not every change run reads better than every
                parent run; else "within bound".

Standard library only.

    python3 scripts/bench_pairs.py --tag exact_division --change "what changed"
"""

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIMED_SEEDS = range(11, 21)
OTHER_SEEDS = range(21, 26)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def perfbench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's last line: {"correct", "attempted", "failed", "metrics"}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {side} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def sweep_digest(side: Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.json"
        subprocess.run(
            [sys.executable, "scripts/run_sweep.py", "--max-abs", "3", "--seed", "0",
             "--out", str(out)],
            cwd=side, check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(side / "src")},
        )
        return hashlib.sha256(out.read_bytes()).hexdigest()


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric, given as its BENCHMARK.json end_to_end entry (with
    "better" and "bound") by name: both sides' quartiles, the change's
    wins, the change of the median and the verdicts gain and regression
    of the module docstring."""
    out = {}
    for name, spec in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        before, after = statistics.median(parent), statistics.median(change)
        q_parent, q_change = quartiles(parent), quartiles(change)
        allowed = spec["bound"] * abs(before)
        separated = min(sign * c for c in change) > max(sign * p for p in parent)
        if sign * (after - before) < -allowed:
            regression = "worse"
        elif max(q_parent["iqr"], q_change["iqr"]) > allowed and not separated:
            regression = "unresolved"
        else:
            regression = "within bound"
        out[name] = {
            "better": spec["better"],
            "parent": q_parent,
            "change": q_change,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change": f"{(after / before - 1) * 100:+.1f}%",
            "gain": wins >= 0.9 * len(pairs) and sign * (after - before) > q_parent["iqr"],
            "regression": regression,
        }
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1] for line in fh if line.startswith("model name")]
        cpu = names[0].strip()
    except (OSError, IndexError):
        pass
    cores = os.cpu_count()
    return {
        "note": f"{cores}-core machine; perfbench scales times by its calibration kernel",
        "python": platform.python_version(),
        "cpu": cpu,
        "cores": cores,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--claimed", default="symbolic-tables", help="workload given 10 pairs")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.claimed not in workloads:
        parser.error(f"--claimed must be one of {', '.join(workloads)}")
    parent_rev = git("rev-parse", args.parent)

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    parent_dir = tmp / "parent"
    archive = subprocess.run(
        ["git", "archive", parent_rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(parent_dir)
    try:
        sides = {"parent": parent_dir, "change": ROOT}
        digests = {side: sweep_digest(path) for side, path in sides.items()}
        results = {}
        order = [args.claimed] + [w for w in workloads if w != args.claimed]
        for workload in order:
            seeds = CLAIMED_SEEDS if workload == args.claimed else OTHER_SEEDS
            pairs = []
            for i, seed in enumerate(seeds):
                first = ("parent", "change")[i % 2]
                pair = {"seed": seed, "first": first, "failed": {}}
                for side in (first, "change" if first == "parent" else "parent"):
                    run = perfbench(sides[side], workload, seed, seconds)
                    pair["failed"][side] = f"{run['failed']}/{run['attempted']}"
                    pair[side] = {name: round(run["metrics"][name]["value"], 4) for name in metrics}
                print(f"{workload} seed {seed}: items_per_s {pair['parent']['items_per_s']}"
                      f" -> {pair['change']['items_per_s']}", file=sys.stderr, flush=True)
                pairs.append(pair)
            results[workload] = {
                "seeds": list(seeds), "pairs": pairs, "summary": summary(pairs, metrics)
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "tag": args.tag,
        "change": args.change,
        "parent": parent_rev,
        "procedure": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
            " in a git archive of the parent and in the working tree of the change, one process"
            " at a time; pairs alternate which side runs first. Quartiles are"
            " statistics.quantiles(n=4, method='inclusive') of the per-run values; a win is a"
            " pair where the change is better. Written by scripts/bench_pairs.py."
        ),
        "machine": machine(),
        "workloads": results,
        "sweep_sha256": {
            "command": "PYTHONPATH=src python3 scripts/run_sweep.py --max-abs 3 --seed 0",
            "value": digests["change"],
            "parent": digests["parent"],
        },
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0 if digests["parent"] == digests["change"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
