"""Tests of the benchmark itself: its oracles, its failure accounting, its
span arithmetic and its calibration.

    python3 -m unittest discover -s perfbench/tests -v

(pytest also collects this file when pointed at it.)  The full validator
pass over the 1296 reference certificates takes about 10 s.
"""

from __future__ import annotations

import json
import signal
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import validator  # noqa: E402
import workloads  # noqa: E402


def _entries() -> list[dict]:
    return [json.loads(line) for line in reference.load_lines()]


class ReferenceTest(unittest.TestCase):
    def test_digest_matches_run_sweep_output(self):
        self.assertEqual(reference.sweep_digest(_entries()), reference.REFERENCE_SHA256)

    def test_digest_is_recorded_in_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        whys = " ".join(w["why"] for w in spec["workloads"])
        self.assertIn(reference.REFERENCE_SHA256, whys)

    def test_tuple_seed_reproduces_reference_certificates(self):
        lines = {tuple(json.loads(line)["params"]): line for line in reference.load_lines()}
        for params in [(-3, -3, -3, -2), (1, 2, -3, 1), (1, 2, 3, 2)]:
            cert = workloads.C.certify(
                workloads.C.DCParams(*params), seed=reference.tuple_seed(params), max_attempts=5
            )
            self.assertEqual(reference.compact(cert.to_json()), lines[params])


class ValidatorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.entries = _entries()
        cls.generic = [
            e for e in cls.entries
            if e["status"] in validator.CERTIFIED and workloads.is_generic(e["params"])
        ]

    def test_accepts_every_reference_certificate(self):
        rejected = [
            (e["params"], reason)
            for e in self.entries
            for ok, reason in [validator.validate_certificate(e)]
            if not ok
        ]
        self.assertEqual(rejected, [])

    def test_rejects_tampered_certificates(self):
        certified = [e for e in self.entries if e["status"] in validator.CERTIFIED]
        for kind, bases in workloads.tamper_bases(certified).items():
            for entry in bases[::5]:
                with self.subTest(kind=kind, params=entry["params"]):
                    ok, _ = validator.validate_certificate(workloads.tamper(entry, kind))
                    self.assertFalse(ok)

    def test_rejects_a_certified_to_swapped_flip(self):
        entry = next(e for e in self.generic if e["params"] == [1, 2, -3, 1])
        self.assertEqual(entry["status"], "Certified")
        flipped = workloads.tamper(entry, "status_flip")
        self.assertEqual(flipped["status"], "SwappedCertified")
        self.assertFalse(validator.validate_certificate(flipped)[0])

    def test_rejects_false_checks_and_trivial_claims(self):
        entry = self.generic[0]
        bad_checks = dict(entry, checks=dict(entry["checks"], coprime_t_t1=False))
        self.assertFalse(validator.validate_certificate(bad_checks)[0])
        trivial = next(e for e in self.entries if e["status"] == "TrivialWord")
        self.assertFalse(validator.validate_certificate(dict(entry, params=trivial["params"]))[0])
        self.assertFalse(validator.validate_certificate(dict(trivial, params=entry["params"]))[0])

    def test_witness_oracle_rejects_a_changed_entry(self):
        Certificate, build_witness = workloads.C.Certificate, workloads.C.build_witness
        for degree in (1, 3):
            entry = next(e for e in self.generic if len(e["h"]) - 1 == degree)
            witness = build_witness(Certificate.from_json(entry), 64).to_json()
            self.assertEqual(validator.validate_witness(entry, witness, 64), (True, ""))
            bad = json.loads(json.dumps(witness))
            if witness["exact"]:
                bad["u"][0][1] = str(Fraction(bad["u"][0][1]) + 1)
            else:
                bad["u"][0][0]["re"] = str(mpf_shift(bad["u"][0][0]["re"]))
            self.assertFalse(validator.validate_witness(entry, bad, 64)[0])


def mpf_shift(text: str) -> str:
    import mpmath

    with mpmath.workdps(80):
        return mpmath.nstr(mpmath.mpf(text) * (1 + mpmath.mpf(10) ** -20), 64)


class FailureAccountingTest(unittest.TestCase):
    def test_one_byte_change_in_a_search_output_counts_as_failed(self):
        workload = workloads.DcSearch(seed=0)
        item = next(i for i in workload.blocks[0] if i[0].k != i[0].m)
        record = run.run_item(workload, item)
        self.assertEqual(run.count_failures(workload, [record]), [])
        text = record[1]
        pos = text.index('"h":[') + 7
        changed = text[:pos] + ("1" if text[pos] != "1" else "2") + text[pos + 1:]
        failures = run.count_failures(workload, [record, (item, changed, None, 0.0)])
        self.assertEqual(len(failures), 1)

    def test_raised_exception_counts_as_failed(self):
        workload = workloads.DcSearch(seed=0)
        failures = run.count_failures(workload, [(workload.blocks[0][0], None, "ValueError: x", 0.0)])
        self.assertEqual(failures, ["ValueError: x"])

    def test_recheck_expects_tampered_copies_invalid(self):
        workload = workloads.DcRecheck(seed=0)
        tampered = [i for i in workload.blocks[0] if i[0] != "genuine"]
        self.assertEqual(len(tampered), len(workloads.TAMPER_KINDS))
        for item in tampered:
            self.assertIsNone(workload.check(item, False))
            self.assertIsNotNone(workload.check(item, True))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_and_busy_time_on_a_hand_built_nest(self):
        # a [0, 10] holds b [1, 4] and b [5, 9]; the second b holds c [6, 8],
        # which holds a nested b [6.5, 7.5]
        spans = [
            ["a", 0.0, 10.0, -1, 0],
            ["b", 1.0, 4.0, 0, 0],
            ["b", 5.0, 9.0, 0, 0],
            ["c", 6.0, 8.0, 2, 0],
            ["b", 6.5, 7.5, 3, 0],
        ]
        stats = tracing.summarize(spans)
        self.assertEqual(stats["a"], {"calls": 1, "busy_s": 10.0, "self_s": 3.0})
        self.assertEqual(stats["b"], {"calls": 3, "busy_s": 7.0, "self_s": 6.0})
        self.assertEqual(stats["c"], {"calls": 1, "busy_s": 2.0, "self_s": 1.0})

    def test_wrappers_record_nesting_and_restore_originals(self):
        C, W = workloads.C, workloads.W
        original = W.specialized_assoc
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(C.specialized_assoc, original)
            self.assertIs(C.specialized_assoc, W.specialized_assoc)
            C.check_certificate(C.certify(C.DCParams(1, 1, 2, 3), seed=7))
        finally:
            tracer.uninstall()
        self.assertIs(C.specialized_assoc, original)
        names = [s[0] for s in tracer.spans]
        check = names.index("certify.check_certificate")
        child = next(i for i, s in enumerate(tracer.spans) if s[3] == check)
        self.assertEqual(names[child], "certify.prefactor_num")
        self.assertIn("wiggle.specialized_assoc", names[check:])
        self.assertEqual(tracer.counts["certify.attempts"], 1)


class CalibrationTest(unittest.TestCase):
    def test_scale_uses_the_mean_of_the_samples_in_the_window(self):
        w = calibration.WINDOW_S
        sampler = calibration.Sampler()
        sampler.starts = [0.5 - w, 1.0 - w / 2, 1.05, 1.1 + w / 2, 1.6 + w]
        sampler.seconds = [9.0, 0.001, 0.002, 0.003, 9.0]
        self.assertAlmostEqual(sampler.scale(1.0, 1.1), calibration.REFERENCE_S / 0.002)

    def test_scale_falls_back_to_three_nearby_samples(self):
        sampler = calibration.Sampler()
        sampler.starts = [0.0, 10.0, 20.0, 30.0]
        sampler.seconds = [0.001, 0.002, 0.003, 0.004]
        self.assertAlmostEqual(sampler.scale(100.0, 101.0), calibration.REFERENCE_S / 0.003)

    def test_sampler_samples_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with calibration.Sampler() as sampler:
            time.sleep(4 * calibration.SAMPLE_EVERY_S)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreaterEqual(len(sampler.seconds), 3)
        self.assertAlmostEqual(sampler.busy, sum(sampler.seconds), delta=0.01)

    def test_item_time_leaves_out_the_handler(self):
        sampler = calibration.Sampler()

        class Sleeper:
            def run(self, item):
                time.sleep(0.05)
                sampler.busy += 0.02  # as if the handler had run for 20 ms

        _, _, error, (start, end, net) = run.run_item(Sleeper(), None, sampler)
        self.assertIsNone(error)
        self.assertAlmostEqual(net, end - start - 0.02)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        latencies = [float(i) for i in range(1, 1001)]
        self.assertEqual(run.tail_latency(latencies, 99.9), (99.0, 990.0, 10))
        self.assertEqual(run.tail_latency(latencies, 98.0), (98.0, 980.0, 20))
        self.assertEqual(run.tail_latency(latencies[:15], 99.0)[0], 100.0)


if __name__ == "__main__":
    unittest.main()
