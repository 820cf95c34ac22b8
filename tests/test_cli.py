"""Command-line interface: output formats, exit codes, the table cap.

Everything runs in-process through main(argv) for speed; one subprocess
test at the bottom proves the installed entry point works end to end.
"""

import json
import math
import re
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


def test_digits_past_767_print_what_767_prints(capsys):
    # 767 is the most significant digits of any double's exact decimal
    # expansion (the largest subnormal has them), so the CLI prints no more;
    # a --digits past the C int range was an OverflowError, exit 1
    for x in (5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, 1 / 3):
        assert "%.*g" % (767, x) == "%.*g" % (100000, x), x
    assert len("%.*g" % (767, 2.2250738585072009e-308)) > len("%.*g" % (766, 2.2250738585072009e-308))
    for argv in ("eval zeta --k 2", "table beta --max-k 2 --format csv",
                 "coeffs sec --mu 0.5 --order 3", "apostol euler 2 --lambda-re 0.3"):
        want = run_cli(capsys, argv.split() + ["--digits", "767"])
        assert want[0] == 0 and want[2] == "", argv
        assert run_cli(capsys, argv.split() + ["--digits", "3000000000"]) == want, argv


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


def test_a_huge_integral_tolerance_over_a_tiny_scale_is_accepted(capsys):
    # tol / |scale| once overflowed to inf (|scale| is 9.1e-171 for zeta and
    # 1.9e-221 for beta at k = 84) and a valid tol was rejected as invalid
    for family, tol in (("zeta-odd", "1e140"), ("beta-even", "1e100")):
        code, out, err = run_cli(capsys, ["integrals", family, "--k", "84", "--tol", tol])
        assert (code, err) == (0, ""), family
        _, want, _ = run_cli(capsys, ["integrals", family, "--k", "84", "--tol", "1e-8"])
        assert out.split()[0] == want.split()[0], family
    # a tol beneath the least double over a large scale is unreachable, not invalid
    code, out, err = run_cli(capsys, ["integrals", "zeta-odd", "--k", "1", "--tol", "1e-323"])
    assert (code, out) == (1, "") and err.startswith("error: the rule on [0, 1]")


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


def test_verify_impossible_tolerance_fails_cleanly(capsys, monkeypatch):
    # one row's defect past its own tolerance (1e-3 against 1e-4) fails that
    # row and the suite, with exit 1, not a crash
    from telesum import oracles

    monkeypatch.setattr(oracles, "herglotz_limit", lambda theta, N: math.pi ** 2 / 3.0 + 1e-3)
    code, out, _ = run_cli(capsys, ["verify", "closed-vs-oracle"])
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and "pole-subtracted limit at small argument" in failed[0]
    assert "tol 1.000e-04" in failed[0]


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
        ("integrals zeta-odd --k 85", "k must be <= 84, where (2k+1)! leaves the double range"),
        ("integrals beta-even --k 85", "k must be <= 84, where (2k+1)! leaves the double range"),
        ("eval Z --k 1 --mu 0.5 --method complex_route",
         "unknown method 'complex_route'; expected auto, complex, taylor, or table"),
        ("eval zeta --k 2 --digits 0", "--digits must be >= 1"),
        ("eval zeta --k 2 --digits -3", "--digits must be >= 1"),
        ("poly euler 3 --digits 0", "--digits must be >= 1"),
        ("apostol euler 3 --lambda-re 0.5 --dps -5", "dps must be an integer >= 1, got -5"),
        ("apostol bernoulli 2 --lambda-re 0.5 --dps 0", "dps must be an integer >= 1, got 0"),
    ]:
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out, err) == (2, "", "error: %s\n" % message), argv
    # verify takes no tolerance: each row keeps its own
    code, out, err = run_cli(capsys, ["verify", "all", "--tol", "1"])
    assert (code, out) == (2, "") and "unrecognized arguments: --tol 1" in err


def test_flags_a_family_does_not_read_exit_2(capsys):
    # every option that defaults to None, and a --method other than auto,
    # is a usage error where the family would ignore it
    for argv, message in [
        ("eval zeta --k 2 --method bogus", "zeta takes no --method"),
        ("eval beta --k 2 --method taylor", "beta takes no --method"),
        ("eval zeta --k 2 --mu 0.5", "zeta takes no --mu"),
        ("eval Ztilde0 --mu 1 --method taylor", "Ztilde0 takes no --method"),
        ("series zeta --s 2 --terms 5", "zeta takes no --terms"),
        ("series beta --s 3 --k 1", "beta takes no --k"),
        ("series Z --k 1 --mu 0.5 --theta 0.1", "Z takes no --theta"),
        ("series Ztilde --k 1 --mu 0.5 --s 2", "Ztilde takes no --s"),
        ("series theta2 --theta 0.3 --mu 1", "theta2 takes no --mu"),
        ("series cot --theta 0.3 --k 1", "cot takes no --k"),
        ("integrals zeta-odd --k 1 --m 3", "zeta-odd takes no --m"),
        ("integrals beta-even --k 0 --m 3", "beta-even takes no --m"),
        ("series Z --k 3 --mu 0.3 --tol 1e-3", "Z takes no --tol"),
        ("series cot --theta 0.3 --tol 1e-3", "cot takes no --tol"),
        ("integrals zeta-odd --k 3 --mu 1", "zeta-odd takes no --mu"),
        ("integrals beta-even --k 0 --mu 0", "beta-even takes no --mu"),
        ("integrals apostol --k 3 --m 0 --tol 5", "apostol takes no --tol"),
        ("integrals poly-cos --k 2 --m 2 --mu 1", "poly-cos takes no --mu"),
        ("integrals poly-sin --k 2 --m 2 --tol 1e-3", "poly-sin takes no --tol"),
    ]:
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out, err) == (2, "", "error: %s\n" % message), argv
    # the flags each family does read, and --method auto anywhere, still run
    for argv in [
        "eval zeta --k 2 --method auto",
        "eval Ztilde0 --mu 1 --k 0",
        "eval Z --k 1 --mu 0.5 --method taylor",
        "series Z --k 1 --mu 0.5 --terms 50",
        "series zeta --s 2 --tol 1e-6",
        "integrals apostol --k 1 --m 3 --mu 0.5",
        "integrals zeta-odd --k 1 --tol 1e-6",
    ]:
        assert run_cli(capsys, argv.split())[0] == 0, argv
    # a family's default is what its option set to that value prints
    for argv, default in [
        ("series zeta --s 3", "--tol 1e-10"),
        ("series Z --k 1 --mu 0.5", "--terms 10000"),
        ("integrals apostol --k 2 --m 1", "--mu 0.0"),
        ("integrals beta-even --k 1", "--tol 1e-8"),
    ]:
        for fmt in ("plain", "json"):
            tail = ["--format", fmt]
            want = run_cli(capsys, (argv + " " + default).split() + tail)
            assert run_cli(capsys, argv.split() + tail) == want, (argv, fmt)


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


def _read_int(digits):
    # the integer of a decimal string, read 500 digits at a time, so that no
    # limit on int-from-str conversion applies
    sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_exact_constants_past_the_int_digit_limit(capsys):
    # CPython refuses str() of an int past 4300 digits by default; every
    # format prints all of the coefficient's digits, and they read back to it
    import telesum

    for argv, name, k in (
        (["eval", "zeta", "--k", "1200"], "zeta_even", 1200),
        (["eval", "lambda", "--k", "1000", "--format", "json"], "lambda_even", 1000),
        (["eval", "beta", "--k", "900", "--format", "latex"], "beta_odd", 900),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
        if "json" in argv:
            exact = json.loads(out, parse_int=_read_int)["exact"]
            got = [exact["num"], exact["den"], exact["pi_power"]]
        else:
            pattern = (r"\\frac\{(\d+)\}\{(\d+)\}\\pi\^\{(\d+)\}\n" if "latex" in argv
                       else r"(\d+)/(\d+) \* pi\^(\d+) = 1\n")
            digits = re.fullmatch(pattern, out).groups()
            assert len(digits[1]) > 4300, argv
            got = [_read_int(part) for part in digits]
        want = getattr(telesum, name)(k)
        assert got == [want.coeff.numerator, want.coeff.denominator, want.pi_power], argv


def test_a_tolerance_below_the_roundoff_floor_exits_1_after_one_sum(capsys):
    code, out, err = run_cli(capsys, ["series", "beta", "--s", "1", "--tol", "1e-14"])
    assert (code, out) == (1, "")
    assert err == ("error: tolerance 1.000e-14 unreachable at the roundoff floor 3.159e-14"
                   " (achieved 3.659e-14)\n")
    code, out, err = run_cli(capsys, ["integrals", "zeta-odd", "--k", "2", "--tol", "1e-16"])
    assert (code, out) == (1, "") and err.startswith("error: the rule on [0, 1]")


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
    # the cap is the constant 30: TELESUM_MAX_K, which once set it, is not read
    for value in (None, "40", "abc"):
        if value is None:
            monkeypatch.delenv("TELESUM_MAX_K", raising=False)
        else:
            monkeypatch.setenv("TELESUM_MAX_K", value)
        assert run_cli(capsys, ["table", "zeta", "--max-k", "30"])[0] == 0, value
        assert run_cli(capsys, ["table", "zeta", "--max-k", "31"]) == (
            2, "", "error: --max-k 31 exceeds the cap 30\n"), value


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


def test_readme_library_example_runs():
    # the README's "Library example" block runs as written and its asserts hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert block.count("assert ") == 2
    exec(compile(block, "README.md", "exec"), {})


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
