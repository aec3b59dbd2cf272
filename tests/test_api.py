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
    "AssocPolys", "CertStatus", "Certificate", "CorePolys", "DCParams",
    "IdentityReport", "LaurentPoly", "Mat2", "TPoly", "Witness", "Word",
    "assoc_polys", "build_witness", "certify", "check_certificate", "commutator", "core_polys",
    "cyclic_reduce", "double_commutator", "double_commutator_cyclic", "eval_direct",
    "eval_normal_form", "gamma_of", "parse_word", "resultant", "specialized_assoc",
    "sweep_box", "trace_poly", "verify_identities", "xi_of",
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


def _modules() -> tuple[dict[str, ast.Module], set[str]]:
    """The parsed modules of src/ by dotted name, and the packages among them."""
    modules, packages = {}, set()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        modules[".".join(parts)] = ast.parse(path.read_text())
    return modules, packages


def test_helpers_have_callers_in_src():
    # a private module-level function, or any function of the kernel
    # modules polycore and qpoly, is used somewhere in src/ outside its own
    # body: by name in its own module, as `module.name` through a module
    # alias, or by a name imported from its module (through re-exports);
    # a cross-check that only tests call belongs in tests/
    modules, packages = _modules()
    imported: dict[tuple[str, str], tuple[str, str]] = {}  # (module, local) -> (source, name)
    aliases: dict[tuple[str, str], str] = {}  # (module, local) -> aliased module
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = module if module in packages else module.rpartition(".")[0]
                    base = base.rsplit(".", node.level - 1)[0]
                    source = f"{base}.{source}" if source else base
                for alias in node.names:
                    local = (module, alias.asname or alias.name)
                    if f"{source}.{alias.name}" in modules:
                        aliases[local] = f"{source}.{alias.name}"
                    else:
                        imported[local] = (source, alias.name)

    def origin(module: str, name: str) -> tuple[str, str]:
        while (module, name) in imported:
            module, name = imported[(module, name)]
        return module, name

    uses: dict[tuple[str, str], list[ast.AST]] = {}
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(origin(module, node.id), []).append(node)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (module, node.value.id) in aliases
            ):
                target = origin(aliases[(module, node.value.id)], node.attr)
                uses.setdefault(target, []).append(node)

    kernels = {"sl2wiggle.exact.polycore", "sl2wiggle.exact.qpoly"}
    unused = []
    for module, tree in modules.items():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and (fn.name.startswith("_") or module in kernels):
                inside = {id(node) for node in ast.walk(fn)}
                if not any(id(node) not in inside for node in uses.get((module, fn.name), [])):
                    unused.append(f"{module}::{fn.name}")
    assert unused == []
