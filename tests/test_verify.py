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


def _plus_power(p, i):
    # p + x**i, for i <= deg p
    return Poly(c + (j == i) for j, c in enumerate(p.coeffs))


def test_exact_checks_ignore_an_explicit_tolerance(monkeypatch):
    # no runner takes a tolerance: every row is held to its own table entry,
    # and an exact row to 0, which B_n + 1 fails on four identities
    for run in (verify.run_identities, verify.run_closed_vs_oracle, verify.run_integrals,
                verify.run_hurwitz, verify.run_all):
        with pytest.raises(TypeError, match="'tol'"):
            run(tol=1.0)
    monkeypatch.setattr(verify, "bernoulli_poly", lambda n: _plus_power(bernoulli_poly(n), 0))
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
    broken = lambda n: _plus_power(bernoulli_poly(n), 2) if n == 3 else bernoulli_poly(n)
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
    # each family record of the verify command calls the runner of its suite
    suites = cli._FAMILIES["verify"]
    assert set(suites) == set(verify._TABLES) | {"all"}
    monkeypatch.setattr(verify, "_run", lambda table, seed: list(table))
    for suite, table in verify._TABLES.items():
        assert getattr(verify, suites[suite].call)() == table, suite
    everything = [c for table in verify._TABLES.values() for c in table]
    assert getattr(verify, suites["all"].call)() == everything


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


def _failed(rows, table):
    # every row of the table ran, in order; the failing ones, name -> defect
    assert [r.name for r in rows] == [c.name for c in verify._TABLES[table]]
    return {r.name: r.defect for r in rows if not r.passed}


def test_a_kernel_sum_one_ulp_off_fails_its_row(monkeypatch):
    exact_sum = oracles._exact_sum

    def one_ulp_off(values):
        value, magnitude = exact_sum(values)
        return math.nextafter(value, math.inf), magnitude

    monkeypatch.setattr(oracles, "_exact_sum", one_ulp_off)
    failed = _failed(verify.run_identities(), "identities")
    assert failed == {"exact summation kernel against math.fsum": 1.0}


def test_a_truncated_sum_residual_that_does_not_decay_fails_its_row(monkeypatch):
    monkeypatch.setattr(oracles, "herglotz_residual", lambda theta, N=10000: (0.0, 1e-3))
    failed = _failed(verify.run_closed_vs_oracle(), "closed-vs-oracle")
    assert failed == {"functional-equation residual of the truncated sum decays": math.inf}


@pytest.mark.parametrize("row", ["sine expansion of odd-degree polynomials",
                                 "odd-harmonic sine expansion, even degree",
                                 "odd-harmonic cosine expansion, odd degree"])
def test_an_expansion_that_misses_an_exact_zero_fails_its_row(monkeypatch, row):
    # each of these polynomials vanishes at a lattice point of the grid,
    # where the expansion must give an exact zero, not a tiny value
    hurwitz_partial = oracles.hurwitz_partial
    broken = verify._EXPANSIONS[row][0]

    def tiny_for_zero(kind, k, x, M=100000):
        value = hurwitz_partial(kind, k, x, M)
        return 1e-300 if kind == broken and value == 0.0 else value

    monkeypatch.setattr(oracles, "hurwitz_partial", tiny_for_zero)
    assert _failed(verify.run_hurwitz(), "hurwitz") == {row: math.inf}
