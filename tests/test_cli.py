import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sl2wiggle.certify import sweep_box
from sl2wiggle.cli import main
from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.tpoly import TPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_json(capsys):
    code, out, _ = run_cli(capsys, "certify", "--dc", "1,1,2,3", "--seed", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Certified"
    assert data["params"] == [1, 1, 2, 3]
    assert all(data["checks"].values())
    assert len(data["h"]) == 4


OPPOSITE = ("--dc", "1,1,-1,-1", "--lambda", "2", "--mu", "3", "--seed", "1")


def test_h_is_printed_as_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "certify", *OPPOSITE)
    assert code == 0
    assert "h(t) = 48·t + 49" in out.splitlines()
    _, out, _ = run_cli(capsys, "certify", *OPPOSITE, "--json")
    assert json.loads(out)["h"] == ["49", "48"]
    _, out, _ = run_cli(capsys, "witness", *OPPOSITE, "--json")
    assert json.loads(out)["witness"]["minimal_poly"] == ["49", "48"]
    _, out, _ = run_cli(capsys, "certify", "--dc", "1,1,2,3", "--seed", "7")
    assert out.splitlines()[-1] == (
        "h(t) = 94827342831545872390095·t^3 + 295628527481521773963699·t^2"
        " + 225908871840285019682724·t - 222696577733128453696"
    )


def test_certify_trivial_exit_code(capsys):
    code, out, _ = run_cli(capsys, "certify", "--dc", "1,1,1,1")
    assert code == 2
    assert "TrivialWord" in out


def test_polys_commutator_trace(capsys):
    code, out, _ = run_cli(capsys, "polys", "--word", "[x,y]", "--json")
    assert code == 0
    data = json.loads(out)
    xbar = LaurentPoly.lam(1) - LaurentPoly.lam(-1)
    ybar = LaurentPoly.mu(1) - LaurentPoly.mu(-1)
    t, one = TPoly.t(), TPoly.one()
    trace = TPoly.const(xbar * xbar * ybar * ybar) * t * (t + one) + one * 2
    assert data["trace"] == trace.to_json()


def test_json_determinism(capsys):
    _, out1, _ = run_cli(capsys, "certify", "--dc", "2,1,1,3", "--seed", "5", "--json")
    _, out2, _ = run_cli(capsys, "certify", "--dc", "2,1,1,3", "--seed", "5", "--json")
    assert out1 == out2


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "polys", "--word", "x^")
    assert code == 3
    assert "position" in err


def test_bad_dc_exit_code(capsys):
    code, _, err = run_cli(capsys, "certify", "--dc", "1,2,3")
    assert code == 3


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--word", "x^2 y^-1 x y", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_dc_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dc", "3,-2,-3,3", "--json")
    assert code == 0
    assert json.loads(out) == dict.fromkeys(
        ("det_identity_ok", "sigma_symmetry_ok", "bezout_ok", "ok"), True
    )


def test_verify_word_with_one_large_exponent():
    # a packed box for x^20000 would be mostly empty slots; the check
    # declines to the TPoly path, which takes well under a second
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "sl2wiggle", "verify", "--word", "x^20000 y x y^-3 x^7 y^2"]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert result.returncode == 0
    assert result.stdout == "all identities hold\n"


def test_oracle_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--word", "x y^-2 x^3 y", "--seed", "4", "--count", "15", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"cases": 15, "mismatches": 0}


def test_oracle_defaults_to_20_random_cases(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--word", "x y^-2", "--json")
    assert (code, json.loads(out)) == (0, {"cases": 20, "mismatches": 0})


def test_oracle_explicit_inputs(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--word",
        "[x,y]",
        "--lambda",
        "2",
        "--mu",
        "2",
        "--g",
        "0,1,-1,1",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["mismatches"] == 0


def test_witness_exact(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness",
        "--dc",
        "1,1,-1,-1",
        "--lambda",
        "2",
        "--mu",
        "3",
        "--seed",
        "1",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["witness"]["exact"] is True
    assert data["witness"]["t0"] == "-49/48"


def test_witness_text_prints_matrices_as_json_does(capsys):
    code, out, _ = run_cli(capsys, "witness", *OPPOSITE)
    assert code == 0
    lines = out.splitlines()
    assert lines[1:] == [
        "exact witness at t0 = -49/48",
        "g = [[1, 1], [-49/48, -1/48]]",
        "u = [[153467/110592, 6125/110592], [-300125/110592, 67717/110592]]",
    ]
    _, out, _ = run_cli(capsys, "witness", *OPPOSITE, "--json")
    data = json.loads(out)["witness"]
    for name in ("g", "u"):
        text = "[" + ", ".join("[" + ", ".join(row) + "]" for row in data[name]) + "]"
        assert f"{name} = {text}" in lines


def test_grid(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--grid", "1:1,1:1,1:2,1:2", "--seed", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 4
    statuses = {tuple(d["params"]): d["status"] for d in data}
    assert statuses[(1, 1, 1, 1)] == "TrivialWord"
    assert statuses[(1, 1, 2, 2)] in ("Certified", "SwappedCertified")


def test_grid_seeds_match_sweep_box(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--grid=-2:2,-2:2,-2:2,-2:2", "--seed", "0", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5**4
    nontrivial = [d for d in data if 0 not in d["params"]]
    assert nontrivial == [c.to_json() for c in sweep_box(2, seed=0)]


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (
            ("--dc", "1,1,2,3", "--lambda", "-2/3", "--mu", "3"),
            ("--dc", "1,1,2,3", "--lambda=-2/3", "--mu", "3"),
        ),
        (("--dc", "-1,1,2,3"), ("--dc=-1,1,2,3",)),
        (("--grid", "-1:1,-1:1,-1:1,-1:1"), ("--grid=-1:1,-1:1,-1:1,-1:1",)),
    ],
)
def test_negative_values_parse_as_values(capsys, spaced, joined):
    code, out, err = run_cli(capsys, "certify", *spaced, "--seed", "2", "--json")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, "certify", *joined, "--seed", "2", "--json")


def test_word_and_dc_mutually_exclusive(capsys):
    code, out, err = run_cli(capsys, "polys", "--word", "x", "--dc", "1,1,2,3")
    assert code == 3
    assert out == ""
    assert err.startswith("input error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "--dc", "1,1,2,3", "--precision", "-5"),
        ("witness", "--dc", "1,1,2,3", "--precision", "0"),
        ("certify", "--grid", "3:1,1:1,1:2,1:2"),
        ("certify", "--dc", "1,1,2,3", "--max-attempts", "0"),
        ("certify", "--dc", "1,1,2,3", "--max-attempts", "-3"),
        ("oracle", "--word", "[x,y]", "--count", "-1"),
        ("certify", "--dc", "1,1,2,3", "--lambda", "1", "--mu", "2"),
        ("certify", "--dc", "1,1,2,3", "--lambda", "2", "--mu", "-1"),
        ("witness", "--dc", "1,1,2,3", "--lambda", "-1", "--mu", "3"),
        ("witness", "--dc", "1,1,2,3", "--lambda", "2", "--mu", "1"),
        ("oracle", "--word", "[x,y]", "--lambda", "1", "--mu", "-1", "--count", "3"),
        ("oracle", "--word", "[x,y]", "--g", "1,1,0,1"),
        ("oracle", "--word", "[x,y]", "--lambda", "2", "--g", "1,1,0,1"),
        ("oracle", "--word", "[x,y]", "--lambda", "2", "--mu", "3", "--g", ""),
        # malformed, missing or conflicting arguments
        ("certify", "--dc", "1,1,2,3", "--seed", "abc"),
        ("certify", "--dc", "1,1,2,3", "--no-such-flag"),
        ("certify", "--dc", "1,1,2,3", "--grid", "1:1,1:1,1:1,1:2"),
        ("certify",),
        ("certify", "--grid", ""),
        ("polys", "--dc", ""),
        ("frobnicate",),
        # options the subcommand does not read
        ("polys", "--word", "x", "--lambda", "2", "--mu", "3"),
        ("polys", "--word", "x", "--seed", "1"),
        ("polys", "--word", "x", "--precision", "64"),
        ("polys", "--word", "x", "--max-attempts", "5"),
        ("verify", "--word", "x", "--lambda", "2", "--mu", "3"),
        ("verify", "--word", "x", "--seed", "1"),
        ("verify", "--word", "x", "--precision", "64"),
        ("verify", "--word", "x", "--precision", "0"),
        ("verify", "--word", "x", "--max-attempts", "5"),
        ("certify", "--dc", "1,1,2,3", "--precision", "64"),
        ("witness", "--dc", "1,1,2,3", "--grid", "1:1,1:1,1:1,1:2"),
        ("oracle", "--word", "[x,y]", "--precision", "64"),
        ("oracle", "--word", "[x,y]", "--max-attempts", "5"),
        # --count and --seed choose random cases, which --g replaces
        ("oracle", "--word", "[x,y]", "--lambda", "2", "--mu", "3", "--g", "1,1,0,1",
         "--count", "2"),
        ("oracle", "--word", "[x,y]", "--lambda", "2", "--mu", "3", "--g", "1,1,0,1",
         "--seed", "7"),
    ],
)
def test_input_errors_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: ")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("certify", "--dc", "1,1,2,3", "--lambda", "1/0", "--mu", "2"), "--lambda"),
        (("oracle", "--word", "x", "--lambda", "2", "--mu", "3", "--g", "1/0,0,0,1"), "--g"),
    ],
)
def test_zero_denominator_names_the_option(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"argument {option}: zero denominator in 1/0" in err


def test_oracle_accepts_unit_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--word", "[x,y^2]", "--lambda", "-1", "--mu", "1",
        "--g", "0,1,-1,1", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"cases": 1, "mismatches": 0}


def run_script(name, *argv, timeout=None):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, str(root / "scripts" / name), *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)


def test_run_sweep_expect_sha256(tmp_path):
    text = json.dumps([c.to_json() for c in sweep_box(1)], indent=2, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()

    def sweep(expected):
        out = str(tmp_path / "sweep.json")
        return run_script("run_sweep.py", "--max-abs", "1", "--out", out, "--expect-sha256", expected)

    assert sweep(digest).returncode == 0
    wrong = sweep("0" * 64)
    assert wrong.returncode == 1
    assert "0" * 64 in wrong.stderr and digest in wrong.stderr


@pytest.mark.parametrize(
    "argv", [("--max-abs", "0"), ("--max-abs", "-2"), ("--max-abs", "1", "--max-attempts", "0")]
)
def test_run_sweep_rejects_bounds_below_1(tmp_path, argv):
    out = tmp_path / "sweep.json"
    result = run_script("run_sweep.py", *argv, "--out", str(out))
    assert result.returncode == 2 and "must be at least 1" in result.stderr
    assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize("dc", ["1,2,3", "1,1,2,x", "1,1,1,1"])
def test_show_tables_rejects_bad_dc(dc):
    result = run_script("show_tables.py", "--dc", dc)
    assert result.returncode != 0 and result.stdout == ""
    assert "argument --dc" in result.stderr or "trivial word" in result.stderr
    assert "Traceback" not in result.stderr


def test_show_tables_reads_negative_exponents():
    result = run_script("show_tables.py", "--dc", "-1,-2,-2,2")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("parameters (k, l, m, n) = (-1, -2, -2, 2)\n")


def test_show_tables_with_a_sparse_mu_prefactor():
    # mu^2000 - 1 divides the coefficients of trace - 2
    result = run_script("show_tables.py", "--dc", "1,1000,1,2", timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("parameters (k, l, m, n) = (1, 1000, 1, 2)\n")


def test_show_tables_with_exponents_of_a_trillion():
    # the tables are substituted into, so their cost does not grow with
    # the exponents
    result = run_script("show_tables.py", "--dc", "1000000000000,3,-7,1000000000000000", timeout=30)
    assert result.returncode == 0, result.stderr
    assert "\ntau (degree 3):\n" in result.stdout


@pytest.mark.parametrize(
    "dc, digest",
    [
        ("2,3,-1,2", "7f17209d2565e974d911000d8e7662ba8dde4ca244e0d66e7c1654d9c43a0a70"),
        ("-1,-1,-2,1", "27c51c944a3a4a6cbc3e9e4918b47190c62bfd44ee6ec88007191e4c53c23e48"),
        ("1,1,1,-2", "d51e8e7034703c85b553db537f84c1590f5e19239fce7555b065f970b7e1a0d7"),
        ("2,1,-1,1", "a749b35f13339838d5adc5e13119f5a0a6e1c7686b9b51eb98cf2e358e20709f"),
        ("-1,1,1,-1", "6c37f6c92e25725ce9c3177addb92e76a990719a59a019047acf13b1f147ef4b"),
    ],
    ids=["generic-box3", "generic", "k=m", "l=n", "anti-zero"],
)
def test_show_tables_resultant_output_is_pinned(dc, digest):
    # sha256 of the tables and res(tau, gamma_inner) as printed while the
    # resultant still ran over the Laurent ring, without the timing line
    result = run_script("show_tables.py", "--dc", dc, "--resultant")
    assert result.returncode == 0, result.stderr
    *lines, timing = result.stdout.splitlines(keepends=True)
    assert re.fullmatch(r"\(\d+\.\d\ds\)\n", timing)
    assert lines[-1].startswith("res(tau, gamma_inner) = ")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("polys", "--dc", "1,1,2,x"), "argument --dc: expected four comma-separated integers"),
        (("witness", "--dc", "1,1,2,3", "--precision", "x"),
         "argument --precision: expected a positive integer, not 'x'"),
        (("certify", "--dc", "1,1,2,3", "--max-attempts", "2.5"),
         "argument --max-attempts: expected a positive integer, not '2.5'"),
        (("certify", "--grid", "1:x,1:1,1:1,1:2"),
         "argument --grid: expected four integer colon ranges"),
        (("certify", "--dc", "1,1,2,3", "--lambda", "abc", "--mu", "2"),
         "argument --lambda: expected a rational p/q, not 'abc'"),
        (("certify", "--dc", "1,1,2,3", "--lambda", "2", "--mu", ""),
         "argument --mu: expected a rational p/q, not ''"),
        (("oracle", "--word", "x", "--lambda", "2", "--mu", "3", "--g", "1,a,0,1"),
         "argument --g: expected four rationals a,b,c,d, not '1,a,0,1'"),
        (("oracle", "--word", "x", "--lambda", "2", "--mu", "3", "--g", "1,0,1"),
         "argument --g: expected four rationals a,b,c,d, not '1,0,1'"),
        # one tuple over the cap, refused before any tuple is built
        (("certify", "--grid", "1:1001,1:1000,1:1,1:1"),
         "argument --grid: grid of 1001000 tuples exceeds the cap of 1000000"),
    ],
)
def test_non_integer_values_name_the_option(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert message in err
    assert "invalid" not in err


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("show_tables.py", ("--dc", "1,1,2,x"),
         "argument --dc: expected four comma-separated integers k,l,m,n, not '1,1,2,x'"),
        ("run_sweep.py", ("--max-abs", "x"),
         "argument --max-abs: expected a positive integer, not 'x'"),
    ],
)
def test_scripts_name_the_option_of_a_non_integer(tmp_path, script, argv, message):
    out = tmp_path / "sweep.json"
    result = run_script(script, *argv, *(("--out", str(out)) if script == "run_sweep.py" else ()))
    assert result.returncode == 2 and result.stdout == ""
    assert message in result.stderr
    assert not out.exists()
