"""scripts/bench_pairs.py's verdicts on hand-built pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"ms": {"name": "ms", "better": "lower", "bound": 0.2}}
HIGHER = {"per_s": {"name": "per_s", "better": "higher", "bound": 0.2}}


def pairs(name, parent, change):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def verdicts(metrics, parent, change):
    (name,) = metrics
    row = bench_pairs.summary(pairs(name, parent, change), metrics)[name]
    return row["change_wins"], row["gain"], row["regression"]


@pytest.mark.parametrize(
    "metrics, parent, change, expected",
    [
        # 10/10 wins, medians 10 and 8 apart by more than the parent's IQR
        (LOWER, [10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [8] * 10,
         ("10/10", True, "within bound")),
        (HIGHER, [10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [12] * 10,
         ("10/10", True, "within bound")),
        # 9/10 wins is enough
        (LOWER, [10] * 10, [8] * 9 + [11], ("9/10", True, "within bound")),
        # 8/10 wins is not, though the medians differ
        (LOWER, [10] * 10, [8] * 8 + [11] * 2, ("8/10", False, "within bound")),
        # every pair won, but by less than the parent's IQR of 4, which is
        # also wider than the bound allows (2), with the runs overlapping
        (LOWER, [8, 12] * 5, [7.5, 11.5] * 5, ("10/10", False, "unresolved")),
        # worse by 10% against a 20% bound, then by 30%
        (LOWER, [10] * 5, [11] * 5, ("0/5", False, "within bound")),
        (LOWER, [10] * 5, [13] * 5, ("0/5", False, "worse")),
        (HIGHER, [10] * 5, [7] * 5, ("0/5", False, "worse")),
        # an IQR of 4 against an allowed 2, the runs overlapping
        (LOWER, [6, 8, 10, 12, 14], [10] * 5, ("2/5", False, "unresolved")),
        (HIGHER, [10] * 5, [6, 8, 10, 12, 14], ("2/5", False, "unresolved")),
        # as wide, but every change run reads better than every parent run
        (LOWER, [30, 35, 40, 45, 50], [6, 8, 10, 12, 14], ("5/5", True, "within bound")),
        (HIGHER, [6, 8, 10, 12, 14], [20, 22, 24, 26, 28], ("5/5", True, "within bound")),
    ],
)
def test_summary_verdicts(metrics, parent, change, expected):
    assert verdicts(metrics, parent, change) == expected
