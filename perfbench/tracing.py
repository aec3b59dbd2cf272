"""Span tracing from outside the package.

The tracer replaces public functions with wrappers that record one span
per call: name, start, end, parent span and the item being processed.
A function is replaced under every name a module binds it to, because
`from .wiggle import specialized_assoc` gives certify its own binding.
Spans stay in memory; `summarize` turns them into per-layer totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Modules whose public functions are wrapped, and the layer prefix their
# spans carry.  mpmath contributes only its root finder.
TRACED_MODULES = {
    "sl2wiggle.words": "words",
    "sl2wiggle.wiggle": "wiggle",
    "sl2wiggle.certify": "certify",
    "sl2wiggle.exact.qpoly": "exact.qpoly",
    "sl2wiggle.exact.tpoly": "exact.tpoly",
}
MPMATH_FUNCTIONS = ("polyroots",)

# (span name, span statistics) reported as per-layer metrics
REPORTED_STATS = {
    "wiggle.specialized_assoc": ("calls", "busy_s"),
    "exact.qpoly.gcd_q": ("calls", "busy_s"),
    "exact.qpoly.squarefree_without": ("calls", "busy_s"),
    "certify.specialized_core": ("self_s",),
    "certify.certify": ("self_s",),
    "certify.check_certificate": ("self_s",),
    "certify.build_witness": ("calls", "self_s"),
    "mpmath.polyroots": ("calls", "busy_s"),
    "exact.qpoly.factor_cubic_or_less": ("calls", "busy_s"),
    "exact.tpoly.resultant": ("calls", "busy_s"),
    "wiggle.verify_identities": ("busy_s",),
    "wiggle.transfer_matrix": ("busy_s",),
    "wiggle.assoc_polys": ("busy_s",),
    "certify.core_polys": ("self_s",),
    "words.double_commutator_cyclic": ("calls", "self_s"),
}
# counters the hooks below fill in, reported as they are
REPORTED_COUNTS = (
    "wiggle.specialized_assoc.runs",
    "certify.attempts",
    "certify.swapped",
    "certify.build_witness.exact",
    "exact.tpoly.resultant.terms",
)


def _count_certify(counts, args, kwargs, result):
    counts["certify.attempts"] += result.attempts
    counts["certify.certified"] += result.certified
    counts["certify.swapped"] += result.status.value == "SwappedCertified"


def _count_witness(counts, args, kwargs, result):
    counts["certify.build_witness.exact"] += result.exact


def _count_resultant(counts, args, kwargs, result):
    counts["exact.tpoly.resultant.terms"] += len(result.terms())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.stack: list[int] = []
        self.item = None
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions under every module binding."""
        import mpmath

        as_pairs = sys.modules["sl2wiggle.wiggle"].as_pairs

        def count_runs(counts, args, kwargs, result):
            # one step per (x-run, y-run) pair, for the word and its sigma run
            counts["wiggle.specialized_assoc.runs"] += 2 * len(as_pairs(args[0]))

        hooks = {
            "certify.certify": _count_certify,
            "certify.build_witness": _count_witness,
            "exact.tpoly.resultant": _count_resultant,
            "wiggle.specialized_assoc": count_runs,
        }
        replacements = {}
        for module_name, layer in TRACED_MODULES.items():
            module = sys.modules[module_name]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module_name
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    replacements[fn] = self.wrap(name, fn, hooks.get(name))
        namespaces = [
            m for n, m in list(sys.modules.items())
            if n == "sl2wiggle" or n.startswith("sl2wiggle.")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(module, attr, replacements[value])
        for attr in MPMATH_FUNCTIONS:
            self._patch(mpmath, attr, self.wrap(f"mpmath.{attr}", getattr(mpmath, attr)))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The reported per-layer metrics as name -> (value, unit); a layer
        the traced items never reached reads 0."""
        stats = summarize(self.spans)
        out = {}
        for span, fields in REPORTED_STATS.items():
            for field in fields:
                value = stats.get(span, {}).get(field, 0)
                out[f"{span}.{field}"] = (value, "count" if field == "calls" else "s")
        for name in REPORTED_COUNTS:
            out[name] = (self.counts[name], "count")
        attempts = self.counts["certify.attempts"]
        useful = self.counts["certify.certified"] / attempts if attempts else 0.0
        out["certify.useful_ratio"] = (useful, "ratio")
        return out

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (inclusive, outermost spans of the name
    only, so recursion is not counted twice) and self_s (duration minus the
    durations of direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return dict(stats)
