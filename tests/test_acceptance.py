"""Acceptance gate: nine criteria, one test and one report line each.

Each test prints exactly one "criterion N: PASS/FAIL" line (visible with
pytest -s and in the captured output of any failure) and asserts the same
condition, so the pytest -v report carries one pass/fail line per
criterion as well.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import telesum

from telesum import (
    OscKernel,
    PiScalar,
    Z,
    Z_table,
    Ztilde,
    Ztilde0,
    Ztilde_table,
    bernoulli_poly,
    beta_even_integral,
    beta_odd,
    euler_poly,
    exact_apostol_integral,
    exact_poly_trig_integral,
    herglotz_limit,
    herglotz_residual,
    hurwitz_partial,
    j_integral,
    poly_eval,
    poly_integral_01,
    sum_Z,
    sum_Ztilde,
    sum_beta,
    sum_cotangent,
    sum_inverse_square,
    sum_zeta,
    zeta_even,
    zeta_odd_integral,
)
from telesum.cli import main
from telesum.verify import run_identities

F = Fraction

Z_MU_GRID = (-2.8, -1.5, -0.3, 0.0, 0.7, 1.9, 3.0)
ZTILDE_MU_GRID = (0.4, 1.0, math.pi / 2, 2.0, math.pi, 4.0)
THETA_GRID = (0.1, 0.25, 0.5, 0.9)


def _report(criterion, ok, detail):
    print("criterion %d: %s  [%s]" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (criterion, detail)


def _as_float(x):
    return float(x.coeff) * math.pi**x.pi_power


def test_criterion_1_closed_forms_within_certified_oracle_bounds():
    t0 = time.monotonic()
    ok = zeta_even(1) == PiScalar(F(1, 6), 2) and beta_odd(0) == PiScalar(F(1, 4), 1)
    worst = 0.0
    for k in range(1, 11):
        r = sum_zeta(2 * k, 1e-10)
        ok = ok and r.error_bound <= 1e-10
        diff = abs(_as_float(zeta_even(k)) - r.value)
        ok = ok and diff <= r.error_bound
        worst = max(worst, diff)
    for k in range(0, 9):
        r = sum_beta(2 * k + 1, 1e-10)
        ok = ok and r.error_bound <= 1e-10
        diff = abs(_as_float(beta_odd(k)) - r.value)
        ok = ok and diff <= r.error_bound
        worst = max(worst, diff)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(1, ok, "worst |closed-oracle| %.2e, %.1fs" % (worst, elapsed))


def test_criterion_2_exact_kernel_integral_identities():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 9):
        sign = 1 if k % 2 == 1 else -1
        for m in range(1, 13):
            got = exact_poly_trig_integral(bernoulli_poly(2 * k), OscKernel.cos(m))
            want = (
                PiScalar(0, 0)
                if m % 2 == 1
                else PiScalar(F(sign * math.factorial(2 * k), m ** (2 * k)), -2 * k)
            )
            ok = ok and got == want
    for k in range(0, 9):
        sign = 1 if k % 2 == 0 else -1
        for m in range(1, 13):
            got = exact_poly_trig_integral(euler_poly(2 * k), OscKernel.sin(m))
            want = (
                PiScalar(0, 0)
                if m % 2 == 0
                else PiScalar(
                    F(2 * sign * math.factorial(2 * k), m ** (2 * k + 1)),
                    -(2 * k + 1),
                )
            )
            ok = ok and got == want
    for k in range(0, 9):
        sign = 1 if k % 2 == 1 else -1
        for m in range(1, 13):
            got = j_integral(k, m, "bernoulli_odd")
            want = (
                PiScalar(0, 0)
                if m % 2 == 1
                else PiScalar(
                    F(sign * math.factorial(2 * k + 1), m ** (2 * k + 1)),
                    -(2 * k + 1),
                )
            )
            ok = ok and got == want
        got = j_integral(k, 0, "euler_odd")
        ok = ok and got == PiScalar(poly_integral_01(euler_poly(2 * k + 1)), 0)
        for m in range(1, 13):
            got = j_integral(k, m, "euler_odd")
            want = (
                PiScalar(0, 0)
                if m % 2 == 0
                else PiScalar(
                    F(2 * sign * math.factorial(2 * k + 1), m ** (2 * k + 2)),
                    -(2 * k + 2),
                )
            )
            ok = ok and got == want
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(2, ok, "exact identities k<=8, m<=12, %.1fs" % elapsed)


def test_criterion_3_alternating_lattice_four_route_agreement():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(0, 9):
        for mu in Z_MU_GRID:
            routes = [
                Z(k, mu, method="complex"),
                Z(k, mu, method="taylor"),
                sum_Z(k, mu, N=10**4).value,
            ]
            if k <= 6:
                routes.append(Z_table(k, mu))
            worst = max(worst, max(routes) - min(routes))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    _report(3, ok, "worst route spread %.2e (tol 1e-7), %.1fs" % (worst, elapsed))


def test_criterion_4_even_lattice_route_agreement():
    worst = 0.0
    for k in range(1, 9):
        for mu in ZTILDE_MU_GRID:
            routes = [
                Ztilde(k, mu, method="complex"),
                Ztilde(k, mu, method="taylor"),
                sum_Ztilde(k, mu, N=10**4).value,
            ]
            if k <= 7:
                routes.append(Ztilde_table(k, mu))
            worst = max(worst, max(routes) - min(routes))
    ok = worst <= 1e-7
    worst0 = 0.0
    for mu in ZTILDE_MU_GRID:
        worst0 = max(
            worst0, abs(sum_Ztilde(0, mu, N=10**4).value - Ztilde0(mu))
        )
    ok = ok and worst0 <= 1e-6
    _report(
        4,
        ok,
        "worst spread %.2e (tol 1e-7), k=0 defect %.2e (tol 1e-6)" % (worst, worst0),
    )


def test_criterion_5_exponential_kernel_integral_closed_form():
    worst = 0.0
    for k in range(0, 9):
        for m in range(-8, 9):
            for mu in (0.0, 0.7, -0.7, 2.0, -2.0):
                got = exact_apostol_integral(k, m, mu)
                a = complex(0.0, mu - (2 * m + 1) * math.pi)
                want = 2 * math.factorial(k) / (-a) ** (k + 1)
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    _report(5, ok, "worst relative defect %.2e (tol 1e-10)" % worst)


def test_criterion_6_theta_sums_and_functional_equation():
    ok = True
    worst = 0.0
    for theta in THETA_GRID:
        r = sum_inverse_square(theta, N=10**5)
        diff = abs(r.value - math.pi**2 / math.sin(math.pi * theta) ** 2)
        ok = ok and diff <= r.error_bound
        worst = max(worst, diff)
        r = sum_cotangent(theta, N=10**5)
        diff = abs(r.value - math.pi / math.tan(math.pi * theta))
        ok = ok and diff <= r.error_bound
        worst = max(worst, diff)
    f_res, g_res = herglotz_residual(0.3, N=10**4)
    ok = ok and abs(f_res) <= 1e-12
    _, g_more = herglotz_residual(0.3, N=10**5)
    ok = ok and abs(g_more) <= max(abs(g_res), 2e-12)  # decay to roundoff floor
    limit = herglotz_limit(1e-3, N=10**6)
    ok = ok and abs(limit - math.pi**2 / 3) <= 1e-4
    _report(
        6,
        ok,
        "worst bound defect %.2e, f-res %.1e, g-res %.1e -> %.1e, limit defect %.1e"
        % (worst, abs(f_res), abs(g_res), abs(g_more), abs(limit - math.pi**2 / 3)),
    )


def test_criterion_7_quadrature_routes_match_series_oracles():
    ok = True
    worst = 0.0
    for k in (1, 2, 3):
        t0 = time.monotonic()
        got = zeta_odd_integral(k, tol=1e-8)
        elapsed = time.monotonic() - t0
        diff = abs(got - sum_zeta(2 * k + 1, 1e-10).value)
        ok = ok and diff <= 1e-7 and elapsed < 5.0
        worst = max(worst, diff)
    for k in (0, 1, 2):
        t0 = time.monotonic()
        got = beta_even_integral(k, tol=1e-8)
        elapsed = time.monotonic() - t0
        diff = abs(got - sum_beta(2 * k + 2, 1e-10).value)
        ok = ok and diff <= 1e-7 and elapsed < 5.0
        worst = max(worst, diff)
    _report(7, ok, "worst |integral-series| %.2e (tol 1e-7), each < 5s" % worst)


def test_criterion_8_trigonometric_expansions_of_polynomials():
    targets = {
        "B_even": lambda k: bernoulli_poly(2 * k),
        "B_odd": lambda k: bernoulli_poly(2 * k + 1),
        "E_even": lambda k: euler_poly(2 * k),
        "E_odd": lambda k: euler_poly(2 * k - 1),
    }
    structural_zeros = {
        "B_even": (),
        "B_odd": (F(0), F(1, 2), F(1)),
        "E_even": (F(0), F(1)),
        "E_odd": (F(1, 2),),
    }
    ok = True
    worst = 0.0
    zeros_exact = True
    for kind, target in targets.items():
        for k in (1, 2, 3):
            for x in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
                got = hurwitz_partial(kind, k, float(x), M=10**5)
                want = float(poly_eval(target(k), x))
                if x in structural_zeros[kind]:
                    zeros_exact = zeros_exact and got == 0.0 and want == 0.0
                else:
                    diff = abs(got - want)
                    ok = ok and diff <= 1e-4
                    worst = max(worst, diff)
    ok = ok and zeros_exact
    _report(
        8,
        ok,
        "worst defect %.2e (tol 1e-4), degenerate rows exact: %s"
        % (worst, zeros_exact),
    )


def test_criterion_9_identity_suite_and_full_verify(capsys, monkeypatch, verify_all_rows):
    rows = run_identities(seed=42)
    ok = all(r.passed for r in rows)
    # `verify all` reports the rows of the one run_all() the tests share,
    # which is the call the CLI makes
    calls = []

    def shared_run_all(seed):
        calls.append(seed)
        return verify_all_rows

    monkeypatch.setattr(telesum, "run_all", shared_run_all)
    exit_code = main(["verify", "all"])
    assert calls == [42]
    capsys.readouterr()  # swallow the verify report; one line below
    ok = ok and exit_code == 0
    _report(
        9,
        ok,
        "%d/%d identity checks, verify-all exit %d"
        % (sum(r.passed for r in rows), len(rows), exit_code),
    )
