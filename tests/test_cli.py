"""Command-line interface: output formats, exit codes, environment cap.

Everything runs in-process through main(argv) for speed; one subprocess
test at the bottom proves the installed entry point works end to end.
"""

import json
import math
import subprocess
import sys

import pytest

from telesum.cli import build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- formats


def test_poly_plain_and_json(capsys):
    code, out, _ = run_cli(capsys, ["poly", "bernoulli", "4"])
    assert code == 0
    assert out.strip() == "-1/30 0 1 -2 1"
    code, out, _ = run_cli(capsys, ["poly", "euler", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "euler_poly"
    assert data["params"] == {"k": 3}
    assert data["coeffs"] == ["1/4", "0", "-3/2", "1"]


def test_json_output_is_canonical(capsys):
    # keys sorted, no whitespace dependence on dict construction order
    _, out, _ = run_cli(capsys, ["eval", "zeta", "--k", "2", "--format", "json"])
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_eval_plain_exact_and_latex(capsys):
    code, out, _ = run_cli(capsys, ["eval", "zeta", "--k", "1"])
    assert code == 0
    assert out.startswith("1/6 * pi^2 = 1.6449340668")
    code, out, _ = run_cli(capsys, ["eval", "zeta", "--k", "2", "--format", "latex"])
    assert code == 0
    assert out.strip() == r"\frac{1}{90}\pi^{4}"
    code, out, _ = run_cli(capsys, ["eval", "beta", "--k", "0"])
    assert out.startswith("1/4 * pi^1 = 0.785398163")


def test_eval_lattice_routes(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "Z", "--k", "1", "--mu", "1.5707963", "--method", "taylor"]
    )
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(0.3535534, abs=1e-6)
    code, out, _ = run_cli(
        capsys, ["eval", "Ztilde0", "--mu", str(math.pi / 2)]
    )
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(-0.5, abs=1e-12)


def test_eval_digits_control(capsys):
    _, out5, _ = run_cli(capsys, ["eval", "zeta", "--k", "1", "--digits", "5"])
    assert out5.strip().endswith("= 1.6449")


def test_series_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, ["series", "zeta", "--s", "2", "--tol", "1e-8", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"kind", "params", "value", "error_bound", "terms_used"}
    assert data["kind"] == "zeta"
    assert abs(data["value"] - math.pi**2 / 6) <= data["error_bound"]
    assert data["error_bound"] <= 1e-8


def test_series_lattice_and_theta(capsys):
    code, out, _ = run_cli(
        capsys,
        ["series", "Z", "--k", "1", "--mu", "0.7", "--terms", "2000", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"N": 2000, "k": 1, "mu": 0.7}
    assert data["terms_used"] == 4000
    code, out, _ = run_cli(
        capsys, ["series", "theta2", "--theta", "0.25", "--terms", "20000"]
    )
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(2 * math.pi**2, rel=1e-9)


def test_integrals_outputs(capsys):
    code, out, _ = run_cli(capsys, ["integrals", "poly-cos", "--k", "2", "--m", "2"])
    assert code == 0
    assert out.startswith("-3/2 * pi^-4 =")
    code, out, _ = run_cli(
        capsys, ["integrals", "beta-even", "--k", "0", "--tol", "1e-8"]
    )
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(0.9159656, abs=1e-6)
    code, out, _ = run_cli(
        capsys,
        ["integrals", "apostol", "--k", "1", "--m", "0", "--mu", "0.0", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "apostol_exp_integral"
    assert data["value"][1] == pytest.approx(0.0, abs=1e-12)
    assert data["value"][0] == pytest.approx(-2 / math.pi**2, rel=1e-10)


def test_table_formats(capsys):
    code, out, _ = run_cli(capsys, ["table", "zeta", "--max-k", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("k=1  1/6 * pi^2")
    code, out, _ = run_cli(capsys, ["table", "beta", "--max-k", "2", "--format", "csv"])
    rows = out.strip().splitlines()
    assert rows[0] == "k,exact,approx"
    assert len(rows) == 4  # header + k = 0, 1, 2
    code, out, _ = run_cli(
        capsys, ["table", "euler", "--max-k", "2", "--format", "json"]
    )
    data = json.loads(out)
    assert [r["k"] for r in data["rows"]] == [0, 1, 2]
    code, out, _ = run_cli(
        capsys, ["table", "bernoulli", "--max-k", "2", "--format", "latex"]
    )
    assert out.startswith(r"\begin{tabular}")
    assert r"\end{tabular}" in out


def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "identities"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert "0 failed" in lines[-1]


def test_verify_impossible_tolerance_fails_cleanly(capsys):
    # numerics cannot hit 1e-30; must report failure, not crash
    code, out, _ = run_cli(capsys, ["verify", "closed-vs-oracle", "--tol", "1e-30"])
    assert code == 1
    assert "FAIL" in out


# --------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, ["eval", "zeta", "--k", "0"])[0] == 2
    assert run_cli(capsys, ["eval", "Z", "--k", "1"])[0] == 2  # missing --mu
    assert (
        run_cli(capsys, ["eval", "Z", "--k", "1", "--mu", "0.5", "--method", "bogus"])[0]
        == 2
    )
    assert run_cli(capsys, ["nonsense"])[0] == 2
    assert run_cli(capsys, ["series", "Ztilde", "--k", "1", "--mu", "1e6", "--terms", "10"])[0] == 2
    # every family's missing or out-of-range argument, message word for word
    for argv, message in [
        ("eval zeta", "zeta needs --k >= 1 (value is zeta(2k))"),
        ("eval beta --k -1", "beta needs --k >= 0 (value is beta(2k+1))"),
        ("eval eta", "eta needs --k >= 1 (value is eta(2k))"),
        ("eval lambda --k 0", "lambda needs --k >= 1 (value is lambda(2k))"),
        ("eval Z --mu 0.5", "Z needs --k"),
        ("eval Z --k 1", "Z needs --mu"),
        ("eval Ztilde --mu 0.5", "Ztilde needs --k"),
        ("eval Ztilde --k 1", "Ztilde needs --mu"),
        ("eval Ztilde0", "Ztilde0 needs --mu"),
        ("eval Ztilde0 --mu 1 --k 2", "Ztilde0 takes no --k (or --k 0)"),
        ("series zeta", "series zeta needs --s"),
        ("series beta", "series beta needs --s"),
        ("series Z --k 1", "series Z needs --k and --mu"),
        ("series Ztilde --mu 0.5", "series Ztilde needs --k and --mu"),
        ("series theta2", "series theta2 needs --theta"),
        ("series cot", "series cot needs --theta"),
        ("integrals poly-cos --k 0 --m 1", "poly-cos needs --k >= 1"),
        ("integrals poly-cos --k 1", "poly-cos needs --m >= 1"),
        ("integrals poly-sin --k -1 --m 1", "poly-sin needs --k >= 0"),
        ("integrals poly-sin --k 0 --m 0", "poly-sin needs --m >= 1"),
        ("integrals apostol --k -1 --m 0", "apostol needs --k >= 0"),
        ("integrals apostol --k 0", "apostol needs --m"),
        ("integrals zeta-odd --k 0", "zeta-odd needs --k >= 1"),
        ("integrals beta-even --k -1", "beta-even needs --k >= 0"),
    ]:
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out, err) == (2, "", "error: %s\n" % message), argv


def test_overflowing_series_exits_1(capsys):
    # the terms exceed the double range: an unreachable certificate, not inf
    code, out, err = run_cli(capsys, ["series", "Z", "--k", "70", "--mu", "3.14159"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_table_cap_from_environment(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["table", "zeta", "--max-k", "31"])
    assert code == 2
    assert "TELESUM_MAX_K" in err
    monkeypatch.setenv("TELESUM_MAX_K", "40")
    assert run_cli(capsys, ["table", "zeta", "--max-k", "31"])[0] == 0
    monkeypatch.setenv("TELESUM_MAX_K", "5")
    assert run_cli(capsys, ["table", "zeta", "--max-k", "6"])[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["eval", "--help"])[0] == 0


def test_parser_covers_all_subcommands():
    parser = build_parser()
    subactions = [
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    ]
    names = set(subactions[0].choices)
    assert names == {
        "poly",
        "apostol",
        "coeffs",
        "eval",
        "series",
        "integrals",
        "table",
        "verify",
    }


def test_installed_entry_point_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "telesum.cli", "eval", "zeta", "--k", "1", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["exact"] == {"num": 1, "den": 6, "pi_power": 2}
