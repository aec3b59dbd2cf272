"""The public API: the names `sl2wiggle` and `sl2wiggle.exact` export.

Any name added to or dropped from either list changes this file, so the
size of the API is visible in review.  The package also imports nothing
outside the standard library, and keeps no helper that only tests use."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import sl2wiggle
import sl2wiggle.exact

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGE_NAMES = [
    "AssocPolys", "CertStatus", "Certificate", "CorePolys", "DCParams", "Gen",
    "IdentityReport", "LaurentPoly", "Mat2", "Syllable", "TPoly", "Witness", "Word",
    "assoc_polys", "build_witness", "certify", "check_certificate", "commutator", "core_polys",
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
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"


def test_helpers_have_callers_in_src():
    # a private module-level function, or any function of the kernel
    # modules polycore and qpoly, is named somewhere in src/ outside its own
    # body; a cross-check that only tests call belongs in tests/
    trees = {path: ast.parse(path.read_text()) for path in SRC.rglob("*.py")}
    kernels = {SRC / "sl2wiggle" / "exact" / name for name in ("polycore.py", "qpoly.py")}
    checked = [
        (path, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("_") or path in kernels)
    ]
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    unused = []
    for path, fn in checked:
        inside = {id(node) for node in ast.walk(fn)}
        if not any(id(node) not in inside for node in uses.get(fn.name, [])):
            unused.append(f"{path.relative_to(SRC)}::{fn.name}")
    assert unused == []
