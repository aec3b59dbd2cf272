import hashlib
import json
import os
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


def test_certify_trivial_exit_code(capsys):
    code, out, _ = run_cli(capsys, "certify", "--dc", "1,1,1,1")
    assert code == 2
    assert "TrivialWord" in out


def test_polys_commutator_trace(capsys):
    code, out, _ = run_cli(capsys, "polys", "--word", "[x,y]", "--json")
    assert code == 0
    data = json.loads(out)
    trace = TPoly.from_json(data["trace"])
    xbar = LaurentPoly.lam(1) - LaurentPoly.lam(-1)
    ybar = LaurentPoly.mu(1) - LaurentPoly.mu(-1)
    t, one = TPoly.t(), TPoly.one()
    assert trace == TPoly.const(xbar * xbar * ybar * ybar) * t * (t + one) + one * 2


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


def test_oracle_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--word", "x y^-2 x^3 y", "--seed", "4", "--count", "15", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"cases": 15, "mismatches": 0}


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
    ],
)
def test_input_errors_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: ")


def test_oracle_accepts_unit_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--word", "[x,y^2]", "--lambda", "-1", "--mu", "1",
        "--g", "0,1,-1,1", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"cases": 1, "mismatches": 0}


def test_run_sweep_expect_sha256(tmp_path):
    root = Path(__file__).resolve().parents[1]
    text = json.dumps([c.to_json() for c in sweep_box(1)], indent=2, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def sweep(expected):
        argv = [sys.executable, str(root / "scripts" / "run_sweep.py"), "--max-abs", "1"]
        argv += ["--out", str(tmp_path / "sweep.json"), "--expect-sha256", expected]
        return subprocess.run(argv, capture_output=True, text=True, env=env)

    assert sweep(digest).returncode == 0
    wrong = sweep("0" * 64)
    assert wrong.returncode == 1
    assert "0" * 64 in wrong.stderr and digest in wrong.stderr
