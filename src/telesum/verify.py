"""Seeded self-verification suites: identities, closed-vs-oracle agreement,
exact and numeric integrals, and truncated trigonometric expansions.

Each check reports the measured defect against its tolerance.  Defaults are
the tolerances the package commits to; passing an explicit tolerance
replaces the default on every numeric check (exact checks report defect 0
and are immune).  All random sampling is driven by one seed so runs are
reproducible, and any arithmetic failure inside a check is converted into
a failing result rather than a crash.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import mpmath
import numpy as np

from . import closed_forms, oracles, quadrature
from .apostol_polys import (
    DEFAULT_DPS,
    apostol_bernoulli_poly,
    apostol_euler_poly,
    cot_taylor_coeffs,
    ek_mu,
    ek_mu_imag_residue,
    ektilde_mu,
    ektilde_mu_imag_residue,
    sec_taylor_coeffs,
)
from .classical_polys import bernoulli_poly, euler_number, euler_poly
from .exact_core import PiScalar, Poly, poly_derivative, poly_eval, poly_integral_01, poly_reflect

__all__ = [
    "CheckResult",
    "run_identities",
    "run_closed_vs_oracle",
    "run_integrals",
    "run_hurwitz",
    "run_all",
    "format_report",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    defect: float
    tol: float
    passed: bool
    note: str = ""


def _add(
    results: List[CheckResult],
    name: str,
    tol: float,
    fn: Callable[[], float],
    note: str = "",
) -> None:
    try:
        defect = float(fn())
    except ArithmeticError as exc:
        results.append(CheckResult(name, math.inf, float(tol), False, str(exc)))
        return
    results.append(CheckResult(name, defect, float(tol), defect <= tol, note))


def _pick(default: float, override: Optional[float]) -> float:
    return default if override is None else float(override)


def _exact01(ok: bool) -> float:
    return 0.0 if ok else 1.0


_Z_MU_GRID = (-2.8, -1.5, -0.3, 0.0, 0.7, 1.9, 3.0)
_ZTILDE_MU_GRID = (0.4, 1.0, math.pi / 2, 2.0, math.pi, 4.0)
_THETA_GRID = (0.1, 0.25, 0.5, 0.9)


def run_identities(tol: Optional[float] = None, seed: int = 42) -> List[CheckResult]:
    rng = random.Random(seed)
    out: List[CheckResult] = []

    def deriv_ladders() -> float:
        ok = all(
            poly_derivative(bernoulli_poly(n)) == bernoulli_poly(n - 1) * n
            for n in range(1, 31)
        ) and all(
            poly_derivative(euler_poly(n)) == euler_poly(n - 1) * n
            for n in range(1, 31)
        )
        return _exact01(ok)

    _add(out, "derivative ladders, both classical families, n <= 30", _pick(0.0, tol), deriv_ladders)

    def reflection() -> float:
        ok = True
        for n in range(0, 25):
            sign = 1 if n % 2 == 0 else -1
            ok = ok and poly_reflect(bernoulli_poly(n)) == bernoulli_poly(n) * sign
            ok = ok and poly_reflect(euler_poly(n)) == euler_poly(n) * sign
        return _exact01(ok)

    _add(out, "reflection symmetry about 1/2, n <= 24", _pick(0.0, tol), reflection)

    def vanishing() -> float:
        ok = True
        for k in range(1, 13):
            b = bernoulli_poly(2 * k + 1)
            ok = ok and poly_eval(b, 0) == 0
            ok = ok and poly_eval(b, Fraction(1, 2)) == 0
            ok = ok and poly_eval(b, 1) == 0
            e = euler_poly(2 * k)
            ok = ok and poly_eval(e, 0) == 0 and poly_eval(e, 1) == 0
            ok = ok and poly_eval(euler_poly(2 * k - 1), Fraction(1, 2)) == 0
        return _exact01(ok)

    _add(out, "odd/even vanishing points of the classical families", _pick(0.0, tol), vanishing)

    def integral_and_ends() -> float:
        ok = all(poly_integral_01(bernoulli_poly(n)) == 0 for n in range(1, 31))
        ok = ok and all(
            poly_eval(bernoulli_poly(2 * k), 0) == poly_eval(bernoulli_poly(2 * k), 1)
            for k in range(1, 16)
        )
        return _exact01(ok)

    _add(out, "unit-interval mean zero and equal endpoints", _pick(0.0, tol), integral_and_ends)

    def euler_integrality() -> float:
        ok = all(
            (2 ** (2 * k) * poly_eval(euler_poly(2 * k), Fraction(1, 2))).denominator == 1
            for k in range(0, 21)
        )
        ok = ok and euler_number(2) == -1 and euler_number(4) == 5
        return _exact01(ok)

    _add(out, "scaled midpoint values are integers, k <= 20", _pick(0.0, tol), euler_integrality)

    def boundary_identity() -> float:
        worst = 0.0
        with mpmath.workdps(DEFAULT_DPS):
            for _ in range(12):
                phi = rng.uniform(-3.0, 3.0)
                lam = mpmath.exp(1j * mpmath.mpf(phi))
                for k in range(0, 13):
                    p = apostol_euler_poly(k, lam)
                    got = lam * p(mpmath.mpf(1)) + p(mpmath.mpf(0))
                    want = 2 if k == 0 else 0
                    worst = max(worst, float(abs(got - want)))
        return worst

    _add(out, "deformed boundary identity on the unit circle", _pick(1e-12, tol), boundary_identity)

    def apostol_deriv_ladder() -> float:
        worst = 0.0
        with mpmath.workdps(DEFAULT_DPS):
            for _ in range(6):
                phi = rng.uniform(-3.0, 3.0)
                lam = mpmath.exp(1j * mpmath.mpf(phi))
                for k in range(1, 11):
                    d = apostol_euler_poly(k, lam).derivative()
                    ref = apostol_euler_poly(k - 1, lam)
                    for i, c in enumerate(d.coeffs):
                        worst = max(worst, float(abs(c - k * ref.coeffs[i])))
        return worst

    _add(out, "derivative ladder of the deformed family", _pick(1e-20, tol), apostol_deriv_ladder)

    def lam_one_reduction() -> float:
        worst = 0.0
        with mpmath.workdps(DEFAULT_DPS):
            one = mpmath.mpf(1)
            for k in range(0, 13):
                p = apostol_euler_poly(k, one)
                q = euler_poly(k)
                for i, c in enumerate(p.coeffs):
                    want = float(q.coeffs[i]) if i < len(q.coeffs) else 0.0
                    worst = max(worst, abs(float(abs(c - want))))
        return worst

    _add(out, "deformation parameter 1 recovers the classical family", _pick(1e-14, tol), lam_one_reduction)

    def family_relation() -> float:
        # degree-k deformed-Euler poly vs -(2/(k+1)) times the degree-(k+1)
        # deformed-Bernoulli poly at the negated parameter
        worst = 0.0
        with mpmath.workdps(DEFAULT_DPS):
            for _ in range(6):
                phi = rng.uniform(-3.0, 3.0)
                lam = mpmath.exp(1j * mpmath.mpf(phi))
                for k in range(0, 13):
                    e = apostol_euler_poly(k, lam)
                    b = apostol_bernoulli_poly(k + 1, -lam)
                    scale = mpmath.mpf(-2) / (k + 1)
                    for i, c in enumerate(e.coeffs):
                        bc = b.coeffs[i] if i < len(b.coeffs) else mpmath.mpc(0)
                        worst = max(worst, float(abs(c - scale * bc)))
        return worst

    _add(out, "euler-type vs bernoulli-type deformation relation", _pick(1e-20, tol), family_relation)

    def difference_equations() -> float:
        # lam*E_k(x+1) + E_k(x) = 2 x^k  and  lam*B_k(x+1) - B_k(x) = k x^(k-1);
        # independent functional equations, evaluated off [0, 1] on purpose.
        # |phi| kept in (0.3, 3.0): both deformed families blow up as the
        # parameter approaches its excluded point, which costs precision.
        worst = 0.0
        with mpmath.workdps(DEFAULT_DPS):
            for _ in range(8):
                phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
                lam = mpmath.exp(1j * mpmath.mpf(phi))
                x = mpmath.mpf(rng.uniform(-2.0, 2.0))
                for k in range(0, 11):
                    p = apostol_euler_poly(k, lam)
                    got = lam * p(x + 1) + p(x)
                    worst = max(worst, float(abs(got - 2 * x ** k)))
                for k in range(1, 11):
                    q = apostol_bernoulli_poly(k, lam)
                    got = lam * q(x + 1) - q(x)
                    want = k * x ** (k - 1)
                    scale = max(1.0, float(abs(want)))
                    worst = max(worst, float(abs(got - want)) / scale)
        return worst

    _add(out, "difference equations of both deformed families", _pick(1e-12, tol), difference_equations)

    def classical_lift() -> float:
        worst = 0.0
        with mpmath.workdps(DEFAULT_DPS):
            for k in range(1, 13):
                p = apostol_bernoulli_poly(k, mpmath.mpf(1))
                q = bernoulli_poly(k)
                for i, c in enumerate(p.coeffs):
                    want = float(q.coeffs[i]) if i < len(q.coeffs) else 0.0
                    worst = max(worst, float(abs(c - want)))
        return worst

    _add(out, "bernoulli-type lift at deformation parameter 1", _pick(1e-14, tol), classical_lift)

    def telescoping_trig() -> float:
        worst = 0.0
        for _ in range(100):
            m = rng.randrange(0, 13)
            t = rng.uniform(0.05, 6.2)
            x = rng.uniform(0.0, 1.0)
            lhs = math.cos(m * t) * 2.0 * math.sin(0.5 * t)
            rhs = math.sin((2 * m + 1) * 0.5 * t) - math.sin((2 * m - 1) * 0.5 * t)
            worst = max(worst, abs(lhs - rhs))
            lhs = math.sin((2 * m + 1) * t) * 2.0 * math.cos(t)
            rhs = math.sin((2 * m + 2) * t) + math.sin(2 * m * t)
            worst = max(worst, abs(lhs - rhs))
            e = lambda n: complex(oracles.cospi(n * x), -oracles.sinpi(n * x))
            lhs_c = e(2 * m + 2) + e(2 * m)
            rhs_c = e(2 * m + 1) * 2.0 * oracles.cospi(x)
            worst = max(worst, abs(lhs_c - rhs_c))
            lhs_c = 2.0 * oracles.sinpi(x) * e(2 * m + 1)
            rhs_c = 1j * (e(2 * m + 2) - e(2 * m))
            worst = max(worst, abs(lhs_c - rhs_c))
        return worst

    _add(out, "telescoping trigonometric identities, 100 samples", _pick(1e-13, tol), telescoping_trig)

    def residues() -> float:
        worst = 0.0
        for _ in range(10):
            mu = rng.uniform(-3.0, 3.0)
            for k in range(0, 17):
                worst = max(worst, ek_mu_imag_residue(k, mu))
        for _ in range(10):
            mu = rng.choice([rng.uniform(0.3, 2.9), rng.uniform(3.5, 6.0)])
            for k in range(1, 17):
                worst = max(worst, ektilde_mu_imag_residue(k, mu))
        return worst

    _add(out, "imaginary residue of the complex-route carriers", _pick(1e-10, tol), residues)

    def dual_routes() -> float:
        worst = 0.0
        for _ in range(8):
            mu = rng.uniform(-2.9, 2.9)
            sec = sec_taylor_coeffs(mu, 10)
            for k in range(0, 11):
                # both routes return derivatives, not raw Taylor coefficients
                a = ek_mu(k, mu)
                b = sec[k]
                worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        for _ in range(8):
            mu = rng.choice([rng.uniform(0.3, 2.9), rng.uniform(3.5, 6.0)])
            cot = cot_taylor_coeffs(mu, 10)
            for k in range(1, 11):
                a = ektilde_mu(k, mu)
                b = cot[k]
                worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        return worst

    _add(out, "secant/cotangent carrier dual routes", _pick(1e-9, tol), dual_routes)

    def carrier_derivative() -> float:
        # the degree-k carrier is the mu-derivative of the degree-(k-1) one
        worst = 0.0
        h = 1e-5
        for _ in range(8):
            mu = rng.uniform(-2.5, 2.5)
            for k in range(1, 9):
                diff = (ek_mu(k - 1, mu + h) - ek_mu(k - 1, mu - h)) / (2.0 * h)
                val = ek_mu(k, mu)
                worst = max(worst, abs(diff - val) / max(1.0, abs(val)))
        return worst

    _add(out, "finite-difference consistency of carrier ladder", _pick(1e-6, tol), carrier_derivative)

    def table_antiperiodicity() -> float:
        worst = 0.0
        for _ in range(20):
            mu = rng.uniform(-3.0, 3.0)
            if abs(abs(mu) - math.pi) < 1e-6:
                continue
            for k in range(0, 7):
                a = closed_forms.Z_table(k, mu + 2.0 * math.pi)
                b = -closed_forms.Z_table(k, mu)
                worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        return worst

    _add(out, "closed-form table antiperiodicity", _pick(1e-12, tol), table_antiperiodicity)

    def table_denominators() -> float:
        ok = closed_forms.Z_TABLE[0].denominator_constant == 2
        for k in range(1, 7):
            ok = ok and closed_forms.Z_TABLE[k].denominator_constant == 2 ** (2 * k) * math.factorial(k)
        ok = ok and closed_forms.ZTILDE_TABLE[1].denominator_constant == 4
        for k in range(2, 8):
            ok = ok and closed_forms.ZTILDE_TABLE[k].denominator_constant == 2 ** k * math.factorial(k)
        return _exact01(ok)

    _add(out, "table denominator structure", _pick(0.0, tol), table_denominators)

    def kernel_vs_fsum() -> float:
        # math.fsum is an independent exactly rounded sum, so the two must
        # agree bit for bit; the single-exponent run is longer than a kernel
        # block, so it crosses a block boundary and fills every lane slot
        gen = np.random.default_rng(rng.getrandbits(64))
        n = 5000
        mixed = np.ldexp(gen.standard_normal(n), gen.integers(-80, 80, n))
        run = gen.uniform(1.0, 2.0, oracles._BLOCK + 17)
        xs = np.concatenate([mixed, run, -run[: n // 2], mixed[::3]])
        value, magnitude = oracles._exact_sum(xs)
        return _exact01(
            value == math.fsum(xs.tolist()) and magnitude == math.fsum(np.abs(xs).tolist())
        )

    _add(out, "exact summation kernel against math.fsum", _pick(0.0, tol), kernel_vs_fsum,
         note="mixed signs and exponents, one run longer than a kernel block")

    return out


def run_closed_vs_oracle(tol: Optional[float] = None, seed: int = 42) -> List[CheckResult]:
    out: List[CheckResult] = []

    def zeta_agreement() -> float:
        worst = 0.0
        for k in range(1, 11):
            r = oracles.sum_zeta(2 * k, 1e-10)
            worst = max(worst, abs(float(closed_forms.zeta_even(k)) - r.value) / r.error_bound)
        return worst

    _add(out, "even zeta closed forms vs series oracle, k <= 10", _pick(1.0, tol),
         zeta_agreement, note="defect is |closed - oracle| / certified bound")

    def beta_agreement() -> float:
        worst = 0.0
        for k in range(0, 9):
            r = oracles.sum_beta(2 * k + 1, 1e-10)
            worst = max(worst, abs(float(closed_forms.beta_odd(k)) - r.value) / r.error_bound)
        return worst

    _add(out, "odd beta closed forms vs series oracle, k <= 8", _pick(1.0, tol),
         beta_agreement, note="defect is |closed - oracle| / certified bound")

    def eta_lambda_agreement() -> float:
        worst = 0.0
        for k in range(1, 9):
            z = oracles.sum_zeta(2 * k, 1e-12).value
            worst = max(worst, abs(float(closed_forms.eta_even(k)) - (1.0 - 2.0 ** (1 - 2 * k)) * z))
            worst = max(worst, abs(float(closed_forms.lambda_even(k)) - (1.0 - 2.0 ** (-2 * k)) * z))
        return worst

    _add(out, "eta and lambda closed forms vs scaled zeta oracle", _pick(1e-12, tol), eta_lambda_agreement)

    def z_routes() -> float:
        worst = 0.0
        for mu in _Z_MU_GRID:
            for k in range(0, 9):
                vals = [
                    closed_forms.Z(k, mu, method="complex"),
                    closed_forms.Z(k, mu, method="taylor"),
                    oracles.sum_Z(k, mu, N=10000).value,
                ]
                if k <= 6:
                    vals.append(closed_forms.Z_table(k, mu))
                worst = max(worst, max(vals) - min(vals))
        return worst

    _add(out, "alternating lattice sum, four routes on the acceptance grid",
         _pick(1e-7, tol), z_routes)

    def ztilde_routes() -> float:
        worst = 0.0
        for mu in _ZTILDE_MU_GRID:
            for k in range(1, 9):
                vals = [
                    closed_forms.Ztilde(k, mu, method="complex"),
                    closed_forms.Ztilde(k, mu, method="taylor"),
                    oracles.sum_Ztilde(k, mu, N=10000).value,
                ]
                if k <= 7:
                    vals.append(closed_forms.Ztilde_table(k, mu))
                worst = max(worst, max(vals) - min(vals))
        return worst

    _add(out, "even lattice sum, four routes on the acceptance grid",
         _pick(1e-7, tol), ztilde_routes)

    def ztilde0_vs_oracle() -> float:
        worst = 0.0
        for mu in _ZTILDE_MU_GRID:
            a = closed_forms.Ztilde0(mu)
            b = oracles.sum_Ztilde(0, mu, N=10000).value
            worst = max(worst, abs(a - b))
        return worst

    _add(out, "degenerate even lattice sum vs paired oracle", _pick(1e-6, tol), ztilde0_vs_oracle)

    def theta_sums() -> float:
        worst = 0.0
        for theta in _THETA_GRID:
            r = oracles.sum_inverse_square(theta, 100000)
            sp = oracles.sinpi(theta)
            worst = max(worst, abs(r.value - math.pi ** 2 / (sp * sp)) / r.error_bound)
            c = oracles.sum_cotangent(theta, 100000)
            target = 0.0 if theta == 0.5 else math.pi * oracles.cospi(theta) / sp
            worst = max(worst, abs(c.value - target) / c.error_bound)
        return worst

    _add(out, "inverse-square and cotangent sums vs closed forms", _pick(1.0, tol),
         theta_sums, note="defect is |sum - closed| / certified bound")

    def herglotz_f() -> float:
        worst = 0.0
        for theta in _THETA_GRID:
            f_res, _ = oracles.herglotz_residual(theta, 1000)
            worst = max(worst, f_res)
        return worst

    _add(out, "functional-equation residual of the closed form", _pick(1e-12, tol), herglotz_f)

    def herglotz_g_decay() -> float:
        _, g1 = oracles.herglotz_residual(0.3, 10000)
        _, g2 = oracles.herglotz_residual(0.3, 100000)
        if g1 > 1e-6:
            return math.inf
        # decay under a 10x rerun, with a roundoff floor allowance
        return 0.0 if g2 <= max(g1, 2e-12) else g2

    _add(out, "functional-equation residual of the truncated sum decays", _pick(1e-6, tol),
         herglotz_g_decay)

    def herglotz_small_theta() -> float:
        return abs(oracles.herglotz_limit(1e-3, 1000000) - math.pi ** 2 / 3.0)

    _add(out, "pole-subtracted limit at small argument", _pick(1e-4, tol), herglotz_small_theta)

    def bound_honesty() -> float:
        worst = 0.0
        cases = [
            (oracles.sum_Z, (2, 0.7), 2000),
            (oracles.sum_Z, (5, -1.5), 2000),
            (oracles.sum_Ztilde, (1, math.pi), 2000),
            (oracles.sum_Ztilde, (4, 0.4), 2000),
        ]
        for fn, args, n in cases:
            small = fn(*args, N=n)
            big = fn(*args, N=10 * n)
            worst = max(worst, abs(small.value - big.value) / small.error_bound)
        t_small = oracles.sum_inverse_square(0.25, 2000)
        t_big = oracles.sum_inverse_square(0.25, 20000)
        worst = max(worst, abs(t_small.value - t_big.value) / t_small.error_bound)
        return worst

    _add(out, "certified bounds honored under tenfold rerun", _pick(1.0, tol),
         bound_honesty, note="defect is |value_N - value_10N| / bound_N")

    return out


def run_integrals(tol: Optional[float] = None, seed: int = 42) -> List[CheckResult]:
    rng = random.Random(seed)
    out: List[CheckResult] = []

    def cosine_kernel_table() -> float:
        ok = True
        for k in range(1, 9):
            for m in range(1, 13):
                got = quadrature.exact_poly_trig_integral(
                    bernoulli_poly(2 * k), quadrature.OscKernel.cos(m)
                )
                if m % 2 == 1:
                    want = PiScalar(0)
                else:
                    sign = 1 if k % 2 == 1 else -1
                    want = PiScalar(
                        Fraction(sign * math.factorial(2 * k), m ** (2 * k)), -2 * k
                    )
                ok = ok and got == want
        return _exact01(ok)

    _add(out, "even-degree polynomial vs cosine kernel, exact table", _pick(0.0, tol), cosine_kernel_table)

    def sine_kernel_table() -> float:
        ok = True
        for k in range(0, 9):
            for m in range(1, 13):
                got = quadrature.exact_poly_trig_integral(
                    euler_poly(2 * k), quadrature.OscKernel.sin(m)
                )
                if m % 2 == 0:
                    want = PiScalar(0)
                else:
                    sign = 1 if k % 2 == 0 else -1
                    want = PiScalar(
                        Fraction(2 * sign * math.factorial(2 * k), m ** (2 * k + 1)),
                        -(2 * k + 1),
                    )
                ok = ok and got == want
        return _exact01(ok)

    _add(out, "even-degree polynomial vs sine kernel, exact table", _pick(0.0, tol), sine_kernel_table)

    def j_tables() -> float:
        ok = True
        for k in range(0, 9):
            for m in range(1, 13):
                got = quadrature.j_integral(k, m, "bernoulli_odd")
                if m % 2 == 1:
                    want = PiScalar(0)
                else:
                    sign = 1 if k % 2 == 1 else -1
                    want = PiScalar(
                        Fraction(sign * math.factorial(2 * k + 1), m ** (2 * k + 1)),
                        -(2 * k + 1),
                    )
                ok = ok and got == want
            for m in range(0, 13):
                got = quadrature.j_integral(k, m, "euler_odd")
                if m % 2 == 0:
                    want = PiScalar(0)
                else:
                    sign = 1 if k % 2 == 1 else -1
                    want = PiScalar(
                        Fraction(2 * sign * math.factorial(2 * k + 1), m ** (2 * k + 2)),
                        -(2 * k + 2),
                    )
                ok = ok and got == want
        return _exact01(ok)

    _add(out, "odd-degree integral tables, both families", _pick(0.0, tol), j_tables)

    def ladder_recurrence() -> float:
        ok = True
        for k in range(2, 9):
            for m in range(1, 13):
                cur = quadrature.exact_poly_trig_integral(
                    bernoulli_poly(2 * k), quadrature.OscKernel.cos(m)
                )
                prev = quadrature.exact_poly_trig_integral(
                    bernoulli_poly(2 * k - 2), quadrature.OscKernel.cos(m)
                )
                scaled = prev * Fraction(-(2 * k) * (2 * k - 1), m * m)
                want = PiScalar(scaled.coeff, scaled.pi_power - 2)
                if cur.is_zero and want.is_zero:
                    continue
                ok = ok and cur == want
        return _exact01(ok)

    _add(out, "two-step reduction recurrence of the exact ladder", _pick(0.0, tol), ladder_recurrence)

    def exp_kernel_vs_formula() -> float:
        # E_k(x; e^(i mu)) integrated monomial by monomial, with
        # int_0^1 x**i e^(a x) dx = (e^a - i * [same for i - 1]) / a
        worst = 0.0
        with mpmath.workdps(DEFAULT_DPS):
            for mu in (0.0, 0.7, -0.7, 2.0, -2.0):
                for k in range(0, 9):
                    q = apostol_euler_poly(k, mpmath.expj(mpmath.mpf(mu)))
                    for m in range(-8, 9):
                        a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
                        ea = mpmath.exp(a)
                        moment = (ea - 1) / a
                        want = q.coeffs[0] * moment
                        for i, c in enumerate(q.coeffs[1:], 1):
                            moment = (ea - i * moment) / a
                            want += c * moment
                        got = quadrature.exact_apostol_integral(k, m, mu)
                        worst = max(worst, float(abs(got - want) / abs(want)))
        return worst

    _add(out, "exponential-kernel integral of E_k(x; lambda) vs closed form on the grid", _pick(1e-10, tol), exp_kernel_vs_formula)

    def quad_poly_exactness() -> float:
        worst = 0.0
        for _ in range(6):
            coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(11)]
            p = Poly(coeffs)
            fc = [float(c) for c in p.coeffs]

            def f(x: float, fc=fc) -> float:
                acc = 0.0
                for c in reversed(fc):
                    acc = acc * x + c
                return acc

            got = quadrature.adaptive_integrate(f, 1e-12)
            worst = max(worst, abs(got - float(poly_integral_01(p))))
        return worst

    _add(out, "adaptive panels reproduce polynomial integrals", _pick(1e-12, tol), quad_poly_exactness)

    def odd_zeta_integrals() -> float:
        worst = 0.0
        for k in range(1, 4):
            got = quadrature.zeta_odd_integral(k, 1e-8)
            ref = oracles.sum_zeta(2 * k + 1, 1e-10)
            worst = max(worst, abs(got - ref.value))
        return worst

    _add(out, "odd zeta values: quadrature route vs series oracle", _pick(1e-7, tol), odd_zeta_integrals)

    def even_beta_integrals() -> float:
        worst = 0.0
        for k in range(0, 3):
            got = quadrature.beta_even_integral(k, 1e-8)
            ref = oracles.sum_beta(2 * k + 2, 1e-10)
            worst = max(worst, abs(got - ref.value))
        return worst

    _add(out, "even beta values: quadrature route vs series oracle", _pick(1e-7, tol), even_beta_integrals)

    return out


def run_hurwitz(tol: Optional[float] = None, seed: int = 42) -> List[CheckResult]:
    out: List[CheckResult] = []
    xs = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

    def one_kind(kind: str) -> Callable[[], float]:
        def body() -> float:
            worst = 0.0
            for k in range(1, 4):
                if kind == "B_even":
                    target = bernoulli_poly(2 * k)
                elif kind == "B_odd":
                    target = bernoulli_poly(2 * k + 1)
                elif kind == "E_even":
                    target = euler_poly(2 * k)
                else:
                    target = euler_poly(2 * k - 1)
                for x in xs:
                    got = oracles.hurwitz_partial(kind, k, float(x), 100000)
                    want = float(poly_eval(target, x))
                    worst = max(worst, abs(got - want))
                    if want == 0.0 and float(x) in (0.0, 0.5, 1.0):
                        # degenerate rows must come out as exact zeros
                        if got != 0.0:
                            return math.inf
            return worst

        return body

    _add(out, "cosine expansion of even-degree polynomials", _pick(1e-4, tol), one_kind("B_even"))
    _add(out, "sine expansion of odd-degree polynomials", _pick(1e-4, tol), one_kind("B_odd"))
    _add(out, "odd-harmonic sine expansion, even degree", _pick(1e-4, tol), one_kind("E_even"))
    _add(out, "odd-harmonic cosine expansion, odd degree", _pick(1e-4, tol), one_kind("E_odd"))
    return out


def run_all(tol: Optional[float] = None, seed: int = 42) -> List[CheckResult]:
    out: List[CheckResult] = []
    out.extend(run_identities(tol=tol, seed=seed))
    out.extend(run_closed_vs_oracle(tol=tol, seed=seed))
    out.extend(run_integrals(tol=tol, seed=seed))
    out.extend(run_hurwitz(tol=tol, seed=seed))
    return out


def format_report(results: Sequence[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results) if results else 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = "%s  %-*s  defect %.3e  tol %.3e" % (status, width, r.name, r.defect, r.tol)
        if r.note:
            line += "  (%s)" % r.note
        lines.append(line)
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        "%d checks, %d passed, %d failed" % (len(results), len(results) - n_fail, n_fail)
    )
    return "\n".join(lines)
