"""Command-line interface: output formats, exit codes, environment cap.

Everything runs in-process through main(argv) for speed; one subprocess
test at the bottom proves the installed entry point works end to end.
"""

import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

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


def test_usage_errors_exit_2(capsys, monkeypatch):
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
        ("integrals zeta-odd --k 85", "k must be <= 84, where (2k+1)! leaves the double range"),
        ("integrals beta-even --k 85", "k must be <= 84, where (2k+1)! leaves the double range"),
        ("eval Z --k 1 --mu 0.5 --method complex_route",
         "unknown method 'complex_route'; expected auto, complex, taylor, or table"),
        ("eval zeta --k 2 --digits 0", "--digits must be >= 1"),
        ("eval zeta --k 2 --digits -3", "--digits must be >= 1"),
        ("poly euler 3 --digits 0", "--digits must be >= 1"),
        ("verify identities --tol -1", "tol must be a positive finite real, got -1.0"),
        ("verify all --tol inf", "tol must be a positive finite real, got inf"),
        ("apostol euler 3 --lambda-re 0.5 --dps -5", "dps must be an integer >= 1, got -5"),
        ("apostol bernoulli 2 --lambda-re 0.5 --dps 0", "dps must be an integer >= 1, got 0"),
    ]:
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out, err) == (2, "", "error: %s\n" % message), argv
    # a malformed cap is named, not reported as a bare int() failure
    monkeypatch.setenv("TELESUM_MAX_K", "abc")
    code, out, err = run_cli(capsys, ["table", "zeta", "--max-k", "3"])
    assert (code, out, err) == (2, "", "error: TELESUM_MAX_K must be an integer, not 'abc'\n")


def test_negative_option_values_in_exponent_form(capsys):
    # argparse's own pattern has no exponent, so -1e-10 was read as a flag
    for argv, option, value in (
        (["series", "Z", "--k", "1"], "--mu", "-1e-10"),
        (["series", "Z", "--k", "1"], "--mu", "-2.5e-1"),
        (["apostol", "euler", "3", "--lambda-im", "0.5"], "--lambda-re", "-1e0"),
    ):
        joined = run_cli(capsys, argv + ["%s=%s" % (option, value)])
        assert joined[0] == 0 and joined[1], (option, value)
        assert run_cli(capsys, argv + [option, value]) == joined, (option, value)


def test_eval_far_past_the_pi_power_overflow(capsys):
    # pi**800 overflows a double, zeta(800) rounds to 1
    code, out, err = run_cli(capsys, ["eval", "zeta", "--k", "400"])
    assert (code, err) == (0, "")
    assert out.endswith(" * pi^800 = 1\n")
    code, out, _ = run_cli(capsys, ["eval", "beta", "--k", "200"])
    assert code == 0
    assert out.endswith(" * pi^401 = 1\n")


def test_overflowing_series_exits_1(capsys):
    # the terms exceed the double range: an unreachable certificate, not inf
    code, out, err = run_cli(capsys, ["series", "Z", "--k", "70", "--mu", "3.14159"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_taylor_coefficients_past_the_double_range_exit_1(capsys):
    # derivative 72 of sec(mu/2) at mu = 3.14 is 2.15e308: a typed error, not inf
    for family, mu in (("sec", "3.14"), ("cot", "6.28")):
        code, out, err = run_cli(capsys, ["coeffs", family, "--mu", mu, "--order", "150"])
        assert (code, out) == (1, "")
        assert err.startswith("error: derivative ") and "beyond the double-precision range" in err


def test_apostol_values_past_the_double_range_exit_1(capsys):
    # the mpc values are finite, their doubles are not: a typed error, never
    # inf in the text or Infinity in the JSON
    for argv, what in (
        ("apostol euler 400 --lambda-re 0.5", "the real part of coefficient 0"),
        ("integrals apostol --k 500 --m 0 --mu 0.1 --format json",
         "the imaginary part of the Apostol integral"),
    ):
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: %s, " % what), argv
        assert err.endswith(" lies beyond the double-precision range\n"), argv


def test_eval_lattice_sums_past_170_factorial(capsys):
    # 2 * 171! is past the double range, but the sum is not
    code, out, err = run_cli(capsys, ["eval", "Z", "--k", "171", "--mu", "0.7"])
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(2.0902968118812e-67, rel=1e-12)
    code, out, _ = run_cli(capsys, ["eval", "Ztilde", "--k", "171", "--mu", "1.0"])
    assert code == 0
    assert float(out) == pytest.approx(1.0, rel=1e-12)


def test_eval_beyond_the_double_range_exits_1(capsys):
    # Z(150, 3.14) is about 1e422: a typed error, not inf
    for method in ("auto", "complex", "taylor"):
        code, out, err = run_cli(
            capsys, ["eval", "Z", "--k", "150", "--mu", "3.14", "--method", method]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: Z(150, 3.14) lies beyond the double-precision range")


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


def test_readme_command_block_runs(capsys):
    # every `telesum ...` line of the README's "Command line" block exits 0,
    # and a comment that quotes output is found in that command's stdout
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    quoted = {"1/90 * pi^4 = 1.08232323371114", r"\frac{1}{90}\pi^{4}", "-3/2 * pi^-4"}
    seen, commands = set(), set()
    for line in block.splitlines():
        if not line.startswith("telesum "):
            continue
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), line
        commands.add(argv[0])
        for text in quoted:
            if text in comment:
                assert text in out, (line, out)
                seen.add(text)
    assert seen == quoted
    assert commands == {"poly", "apostol", "coeffs", "eval", "series", "integrals", "table", "verify"}


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
