"""The public API: the names `sl2wiggle` and `sl2wiggle.exact` export.

Any name added to or dropped from either list changes this file, so the
size of the API is visible in review.  The package also imports nothing
outside the standard library."""

import os
import subprocess
import sys
import types
from pathlib import Path

import sl2wiggle
import sl2wiggle.exact

PACKAGE_NAMES = [
    "AssocPolys", "CertStatus", "Certificate", "CorePolys", "CyclicForm", "DCParams",
    "Gen", "GeneratorPower", "IdentityReport", "LaurentPoly", "Mat2", "ReducedCyclic",
    "Syllable", "TPoly", "Trivial", "WiggleValue", "Witness", "Word", "assoc_polys",
    "build_witness", "certify", "check_certificate", "commutator", "core_polys",
    "cyclic_reduce", "double_commutator", "double_commutator_cyclic", "eval_direct",
    "eval_normal_form", "gamma_of", "parse_word", "resultant", "specialized_assoc",
    "swap_generators", "sweep_box", "trace_poly", "verify_identities", "xi_of",
]

EXACT_NAMES = [
    "LaurentPoly",
    "Mat2",
    "TPoly",
    "rational_roots",
    "real_roots",
    "resultant",
    "xi_of",
]


def test_package_names():
    names = sorted(
        name
        for name, value in vars(sl2wiggle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PACKAGE_NAMES


def test_exact_names():
    assert sorted(sl2wiggle.exact.__all__) == EXACT_NAMES


def test_no_runtime_dependency():
    # a fresh interpreter: the test session itself has imported hypothesis
    code = (
        "import sys, sl2wiggle, sl2wiggle.cli, sl2wiggle.certify\n"
        "names = ['mpmath', 'hypothesis', 'sympy', 'numpy', 'gmpy2']\n"
        "print(sorted(n for n in names if n in sys.modules))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"
