"""The verify layer: one ordered table of checks per suite, one runner.

The suites run in-process; a full suite takes well under a second.
"""

import math

import pytest

from telesum import cli, oracles, verify
from telesum.classical_polys import bernoulli_poly
from telesum.exact_core import Poly, ToleranceUnreachable

EXACT_ROWS = {
    "derivative ladders, both classical families, n <= 30",
    "reflection symmetry about 1/2, n <= 24",
    "odd/even vanishing points of the classical families",
    "unit-interval mean zero and equal endpoints",
    "scaled midpoint values are integers, k <= 20",
    "table denominator structure",
    "exact summation kernel against math.fsum",
    "even-degree polynomial vs cosine kernel, exact table",
    "even-degree polynomial vs sine kernel, exact table",
    "odd-degree integral tables, both families",
    "two-step reduction recurrence of the exact ladder",
}


def test_exact_checks_ignore_an_explicit_tolerance(monkeypatch):
    # no runner takes a tolerance: every row is held to its own table entry,
    # and an exact row to 0, which B_n + 1 fails on four identities
    for run in (verify.run_identities, verify.run_closed_vs_oracle, verify.run_integrals,
                verify.run_hurwitz, verify.run_all):
        with pytest.raises(TypeError, match="'tol'"):
            run(tol=1.0)
    monkeypatch.setattr(verify, "bernoulli_poly", lambda n: bernoulli_poly(n) + Poly([1]))
    rows = verify.run_identities() + verify.run_integrals()
    checks = verify._TABLES["identities"] + verify._TABLES["integrals"]
    assert [r.tol for r in rows] == [0.0 if c.tol is verify._EXACT else c.tol for c in checks]
    exact = {r.name: r for r in rows if r.tol == 0.0}
    assert set(exact) == EXACT_ROWS
    failed = {name: r.defect for name, r in exact.items() if not r.passed}
    assert failed == {
        "derivative ladders, both classical families, n <= 30": 1.0,
        "reflection symmetry about 1/2, n <= 24": 1.0,
        "odd/even vanishing points of the classical families": 1.0,
        "unit-interval mean zero and equal endpoints": 1.0,
    }


def test_the_bernoulli_lift_at_one_is_checked_against_its_difference_equation(monkeypatch):
    # the lift of B_n at parameter 1 must satisfy B_n(x + 1) - B_n(x) =
    # n x^(n-1).  A B_3 with an x**2 term added, in the lift and in verify
    # alike, breaks that and fails the row, where comparing the lift with
    # bernoulli_poly would compare the broken polynomial with itself
    from telesum import apostol_polys

    row = "bernoulli-type lift at deformation parameter 1"
    check = next(c for c in verify._TABLES["identities"] if c.name == row)
    assert check.fn(None) <= 1e-30
    broken = lambda n: bernoulli_poly(n) + Poly([0, 0, 1]) if n == 3 else bernoulli_poly(n)
    for module in (apostol_polys, verify):
        monkeypatch.setattr(module, "bernoulli_poly", broken)
    assert apostol_polys.apostol_bernoulli_poly(3, 1).coeffs[2] == -0.5
    assert check.fn(None) > check.tol


def test_an_arithmetic_failure_fails_its_row_and_the_suite_goes_on(monkeypatch):
    def unreachable(s, tol):
        raise ToleranceUnreachable("no certificate for s = %d" % s, achieved=math.inf)

    monkeypatch.setattr(oracles, "sum_zeta", unreachable)
    rows = verify.run_closed_vs_oracle()
    assert [r.name for r in rows] == [c.name for c in verify._TABLES["closed-vs-oracle"]]
    failed = {r.name: (r.defect, r.note) for r in rows if not r.passed}
    assert failed == {
        "even zeta closed forms vs series oracle, k <= 10": (math.inf, "no certificate for s = 2"),
        "eta and lambda closed forms vs scaled zeta oracle": (math.inf, "no certificate for s = 2"),
    }


def test_run_all_is_the_four_suites_in_order(verify_all_rows):
    suites = (verify.run_identities, verify.run_closed_vs_oracle, verify.run_integrals,
              verify.run_hurwitz)
    assert verify_all_rows == [r for run in suites for r in run(seed=42)]


def test_forty_one_checks_with_unique_names():
    names = [c.name for table in verify._TABLES.values() for c in table]
    assert len(names) == len(set(names)) == 41


def test_the_cli_suites_are_the_verify_tables(monkeypatch):
    assert set(cli._SUITES) == set(verify._TABLES) | {"all"}
    monkeypatch.setattr(verify, "_run", lambda table, seed: list(table))
    for suite, table in verify._TABLES.items():
        assert getattr(verify, cli._SUITES[suite])() == table, suite
    everything = [c for table in verify._TABLES.values() for c in table]
    assert getattr(verify, cli._SUITES["all"])() == everything


def test_a_nan_defect_fails_its_check(monkeypatch):
    # a NaN must not vanish in a running maximum, wherever it comes
    ek_mu = verify.ek_mu

    def nan_at_three(k, mu, *args, **kwargs):
        return math.nan if k == 3 else ek_mu(k, mu, *args, **kwargs)

    monkeypatch.setattr(verify, "ek_mu", nan_at_three)
    failed = {r.name for r in verify.run_identities() if not r.passed}
    assert failed == {
        "secant/cotangent carrier dual routes",
        "finite-difference consistency of carrier ladder",
    }
    for defects in ([math.nan, 1.0], [1.0, math.nan, 2.0], [2.0, math.nan]):
        assert math.isnan(verify._worst(defects))
    assert verify._worst([0.5, 2.0, 1.0]) == 2.0
