#!/usr/bin/env python3
"""sl2wiggle benchmark: one closed-loop caller, one process, no threads.

    python3 perfbench/run.py --workload dc-search --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs the same untraced phase, then a fixed number of blocks again with
span wrappers installed, and prints the per-layer metrics.  Every output
is checked by an oracle right after its block, outside the block's timing.
Times are reported at a reference speed, set by a calibration kernel timed
throughout the run (calibration.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_latency(latencies: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    not above `cap` with at least 10 samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if p <= cap and n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def run_item(workload, item, sampler=None) -> tuple:
    """(item, output, error, (start, end, net seconds)); an item that raises
    counts as failed.  The net time leaves out what the sampler's handler
    took inside the item."""
    busy = sampler.busy if sampler is not None else 0.0
    start = time.perf_counter()
    try:
        output, error = workload.run(item), None
    except Exception as exc:
        output, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    handler = sampler.busy - busy if sampler is not None else 0.0
    return item, output, error, (start, end, end - start - handler)


def count_failures(workload, records) -> list[str]:
    reasons = []
    for item, output, error, _ in records:
        reason = error if error is not None else workload.check(item, output)
        if reason is not None:
            reasons.append(reason)
    return reasons


class Phase:
    """The items of one timed phase, each with its (start, end, net seconds),
    and the calibration samples taken while they ran."""

    def __init__(self):
        self.sampler = calibration.Sampler()
        self.sizes: list[int] = []  # items per block
        self.times: list[tuple[float, float, float]] = []

    def measured(self) -> list[float]:
        return [net for _, _, net in self.times]

    def scaled(self) -> list[float]:
        """Item times at the reference speed."""
        return [net * self.sampler.scale(start, end) for start, end, net in self.times]


def timed_phase(workload, seconds: float, max_blocks: int | None = None, tracer=None):
    """Run whole blocks until their items have taken `seconds` (or
    `max_blocks` ran), with the calibration kernel sampled throughout.

    Each block's outputs are checked right after the block, outside its
    timing, and then dropped, so memory holds one block of outputs at a
    time.  Returns the Phase and the failure reasons.
    """
    phase, failures = Phase(), []
    with phase.sampler:
        while True:
            records = []
            for item in workload.blocks[len(phase.sizes) % len(workload.blocks)]:
                if tracer is not None:
                    tracer.item = len(phase.times)
                records.append(run_item(workload, item, phase.sampler))
            failures += count_failures(workload, records)
            phase.sizes.append(len(records))
            phase.times += [r[3] for r in records]
            if max_blocks is not None:
                done = len(phase.sizes) >= max_blocks
            else:
                done = sum(phase.measured()) >= seconds
            if done:
                return phase, failures


def measure_setup(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times, spawn until the workload's inputs are
    ready: as measured, and at the reference speed.  Each probe times the
    calibration kernel itself right after its set-up, on its own CPU."""
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        ready, kernel = (float(x) for x in proc.stdout.split()[-2:])
        measured.append(ready - start)
        scaled.append((ready - start) * calibration.REFERENCE_S / kernel)
    return measured, scaled


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase, workload, setup_samples, peak_rss_kb) -> tuple[dict, list[str]]:
    latencies = phase.scaled()
    p, tail, beyond = tail_latency(latencies, workload.tail_percentile)
    raw_setup, scaled_setup = setup_samples
    metrics = {
        "items_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "setup_s": metric(statistics.median(scaled_setup), "s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
    }
    raw = phase.measured()
    notes = {
        "items_per_s": f"as measured {len(raw) / sum(raw):.4g}/s",
        "latency_p50_ms": f"as measured {statistics.median(raw) * 1e3:.4g} ms",
        "latency_tail_ms": f"p{p:g} of {len(latencies)} items, {beyond} beyond it;"
                           f" as measured {tail_latency(raw, workload.tail_percentile)[1] * 1e3:.4g} ms",
        "setup_s": f"median of {len(scaled_setup)} fresh-process set-ups;"
                   f" as measured {statistics.median(raw_setup):.4g} s",
    }
    kernel = phase.sampler.seconds
    return metrics, [
        f"times at the reference speed: kernel {calibration.REFERENCE_S * 1e3:g} ms,"
        f" here {statistics.median(kernel) * 1e3:.4g} ms (median of {len(kernel)} samples)"
    ] + [
        f"{name:<16} {m['value']:.6g} {m['unit']}" + (f"  ({notes[name]})" if name in notes else "")
        for name, m in metrics.items()
    ]


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics, and the traced rate against the untraced one over
    the same blocks."""
    metrics = {name: metric(value, unit) for name, (value, unit) in tracer.layer_metrics().items()}
    traced_latencies = traced.scaled()
    untraced_latencies = untraced.scaled()[: len(traced_latencies)]
    rate, rate_untraced = (len(x) / sum(x) for x in (traced_latencies, untraced_latencies))
    metrics["trace.items_per_s"] = metric(rate, "1/s")
    metrics["trace.overhead_ratio"] = metric(1 - rate / rate_untraced, "ratio")
    return metrics


def write_spans(tracer, workload_name: str, seed: int) -> Path:
    out = HERE / "out" / f"spans-{workload_name}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        for name, start, end, parent, item in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, item]) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["dc-search", "dc-recheck", "dc-witness", "symbolic-tables"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "sl2wiggle" / "__init__.py").is_file():
        print(f"perfbench: no sl2wiggle package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sl2wiggle
    import workloads

    if not Path(sl2wiggle.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: sl2wiggle imported from {sl2wiggle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        ready = time.perf_counter()
        print(repr(ready), repr(calibration.kernel_seconds(repeat=5)))
        return 0

    entries = [json.loads(line) for line in reference.load_lines()]
    if reference.sweep_digest(entries) != reference.REFERENCE_SHA256:
        print("perfbench: stored reference does not match its digest", file=sys.stderr)
        return 1
    setup_samples = None if args.trace else measure_setup(args.workload, args.seed)

    # warm-up: lazy imports and module-level caches fill outside the timed phase
    failures = count_failures(workload, [run_item(workload, workload.blocks[0][0])])
    phase, block_failures = timed_phase(workload, args.seconds)
    failures += block_failures
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = Phase()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, block_failures = timed_phase(
                workload, args.seconds, max_blocks=workload.traced_blocks, tracer=tracer
            )
        finally:
            tracer.uninstall()
        failures += block_failures
        spans_path = write_spans(tracer, args.workload, args.seed)

    attempted = 1 + len(phase.times) + len(traced.times)
    print(f"workload {args.workload} seed {args.seed}: {len(phase.times)} items in "
          f"{len(phase.sizes)} blocks, closed loop, 1 caller")
    for reason in sorted(set(failures)):
        print(f"FAILED ({failures.count(reason)}x): {reason}")
    print(f"{'failed_ratio':<16} {len(failures) / attempted:.6g} ratio  ({len(failures)}/{attempted})")
    if args.trace:
        metrics = per_layer(tracer, traced, phase)
        print(f"traced {len(traced.times)} items in {len(traced.sizes)} blocks; "
              f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics, lines = end_to_end(phase, workload, setup_samples, peak_rss_kb)
        print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
