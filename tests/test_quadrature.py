"""Exact oscillatory-kernel integrals and the adaptive numeric fallback.

Exact ladders are checked against independently derived closed forms and
against mpmath numeric quadrature; the adaptive integrator is checked on
integrals with known values, including removable singularities.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from telesum import (
    OscKernel,
    PiScalar,
    Poly,
    QuadratureError,
    adaptive_integrate,
    apostol_euler_poly,
    bernoulli_poly,
    beta_even_integral,
    euler_poly,
    exact_apostol_integral,
    exact_poly_trig_integral,
    j_integral,
    poly_integral_01,
    sum_beta,
    sum_zeta,
    zeta_odd_integral,
)

F = Fraction


# ------------------------------------------------------------- exact ladders


def test_even_polynomial_cosine_kernel_table():
    # int_0^1 B_2k(x) cos(m pi x) dx: zero at odd m, signed factorial law at even m
    for k in range(1, 9):
        sign = 1 if k % 2 == 1 else -1
        for m in range(1, 13):
            got = exact_poly_trig_integral(bernoulli_poly(2 * k), OscKernel.cos(m))
            if m % 2 == 1:
                assert got == PiScalar(0, 0), (k, m)
            else:
                want = PiScalar(
                    F(sign * math.factorial(2 * k), m ** (2 * k)), -2 * k
                )
                assert got == want, (k, m)


def test_even_polynomial_sine_kernel_table():
    # int_0^1 E_2k(x) sin(m pi x) dx: zero at even m
    for k in range(0, 9):
        sign = 1 if k % 2 == 0 else -1
        for m in range(1, 13):
            got = exact_poly_trig_integral(euler_poly(2 * k), OscKernel.sin(m))
            if m % 2 == 0:
                assert got == PiScalar(0, 0), (k, m)
            else:
                want = PiScalar(
                    F(2 * sign * math.factorial(2 * k), m ** (2 * k + 1)),
                    -(2 * k + 1),
                )
                assert got == want, (k, m)


def test_exact_ladder_against_mpmath_quadrature():
    """Independent numeric check of a few exact ladder outputs."""
    cases = [
        (bernoulli_poly(4), OscKernel.cos(2)),
        (bernoulli_poly(2), OscKernel.cos(4)),
        (euler_poly(2), OscKernel.sin(1)),
        (euler_poly(0), OscKernel.sin(3)),
        (Poly([F(1), F(0), F(-2), F(5, 3)]), OscKernel.cos(1)),
        (Poly([F(0), F(1, 7), F(2)]), OscKernel.sin(2)),
    ]
    with mpmath.workdps(30):
        for p, kernel in cases:
            got = exact_poly_trig_integral(p, kernel)
            if isinstance(got, PiScalar):
                got_f = float(got.coeff) * math.pi**got.pi_power
            else:
                got_f = sum(float(c) * math.pi**n for c, n in got)
            trig = mpmath.cos if kernel.kind == "cos" else mpmath.sin
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coeffs]
            want = float(
                mpmath.quad(
                    lambda x: mpmath.polyval(coeffs[::-1], x)
                    * trig(kernel.m * mpmath.pi * x),
                    [0, 1],
                )
            )
            assert got_f == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_exact_ladder_at_degree_1200():
    # one integration by parts per degree: a recursive ladder overflows the
    # default recursion limit here, so this runs without raising it
    terms = exact_poly_trig_integral(Poly.monomial(1200), OscKernel.cos(3))
    # terms up to ~1e2796 in size cancel to ~1e-3, hence 4000 digits
    with mpmath.workdps(4000):
        got = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.pi**n for c, n in terms)
    with mpmath.workdps(60):
        want = mpmath.quad(
            lambda x: x**1200 * mpmath.cos(3 * mpmath.pi * x), mpmath.linspace(0, 1, 21)
        )
        assert abs(got - want) <= mpmath.mpf(10) ** -20 * abs(want)


def test_j_integral_tables():
    # odd-degree first family against sine kernels
    for k in range(0, 5):
        for m in range(1, 9):
            got = j_integral(k, m, "bernoulli_odd")
            if m % 2 == 1:
                assert got == PiScalar(0, 0), (k, m)
            else:
                sign = 1 if k % 2 == 1 else -1
                want = PiScalar(
                    F(sign * math.factorial(2 * k + 1), m ** (2 * k + 1)),
                    -(2 * k + 1),
                )
                assert got == want, (k, m)
    # odd-degree second family against cosine kernels; m = 0 is the plain mean
    for k in range(0, 5):
        assert j_integral(k, 0, "euler_odd") == PiScalar(
            poly_integral_01(euler_poly(2 * k + 1)), 0
        )
        for m in range(1, 9):
            got = j_integral(k, m, "euler_odd")
            if m % 2 == 0:
                assert got == PiScalar(0, 0), (k, m)
            else:
                sign = 1 if k % 2 == 1 else -1
                want = PiScalar(
                    F(2 * sign * math.factorial(2 * k + 1), m ** (2 * k + 2)),
                    -(2 * k + 2),
                )
                assert got == want, (k, m)


def test_kernel_validation():
    with pytest.raises(ValueError):
        OscKernel("tan", 1)
    with pytest.raises(ValueError):
        OscKernel.complex_exp(0.0)
    with pytest.raises(ValueError):
        exact_poly_trig_integral(bernoulli_poly(2), OscKernel.cos(0))
    with pytest.raises(ValueError):
        exact_poly_trig_integral(
            bernoulli_poly(2), OscKernel.complex_exp(1.0 + 2.0j)
        )


def test_exponential_kernel_ladder_against_mpmath():
    """int_0^1 E_k(x; e^{i mu}) e^{i((mu - (2m+1) pi) x} dx, checked numerically."""
    with mpmath.workdps(30):
        for k in (0, 1, 3):
            for m in (0, 1, -2):
                for mu in (0.0, 0.7, -2.0):
                    got = exact_apostol_integral(k, m, mu)
                    lam = mpmath.e ** (1j * mpmath.mpf(mu))
                    q = apostol_euler_poly(k, lam)
                    a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
                    want = complex(
                        mpmath.quad(
                            lambda x: q(mpmath.mpc(x)) * mpmath.e ** (a * x),
                            [0, 1],
                        )
                    )
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (k, m, mu)
    # Near lambda = -1 the coefficients of E_k exceed the integral by up to
    # 1e108, so integrate them exactly at 160 digits instead, each monomial
    # by int_0^1 x**i e^(a x) dx = gammainc(i + 1, 0, -a) / (-a)**(i + 1).
    with mpmath.workdps(160):
        for k, m, mu in ((30, -6, 3.13), (20, -6, 3.0), (30, 6, -3.13)):
            q = apostol_euler_poly(k, mpmath.expj(mpmath.mpf(mu)), dps=160)
            a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
            want = complex(sum(
                c * mpmath.gammainc(i + 1, 0, -a) / (-a) ** (i + 1)
                for i, c in enumerate(q.coeffs)
            ))
            got = exact_apostol_integral(k, m, mu)
            assert abs(got - want) <= 1e-10 * abs(want), (k, m, mu)


def test_exponential_kernel_closed_form_grid():
    # reference law: 2 k! / (-a)^(k+1) with a = i (mu - (2m+1) pi)
    for k in range(0, 9):
        for m in range(-8, 9):
            for mu in (0.0, 0.7, -0.7, 2.0, -2.0):
                got = exact_apostol_integral(k, m, mu)
                a = complex(0.0, mu - (2 * m + 1) * math.pi)
                want = 2 * math.factorial(k) / (-a) ** (k + 1)
                assert abs(got - want) <= 1e-10 * abs(want), (k, m, mu)


# ------------------------------------------------------------------ adaptive


def test_adaptive_integrator_on_knowns():
    got = adaptive_integrate(lambda x: x * x, 1e-12, ())
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
    got = adaptive_integrate(lambda x: math.exp(x), 1e-12, ())
    assert got == pytest.approx(math.e - 1.0, abs=1e-11)


def test_adaptive_integrator_removable_singularity():
    # sin(pi x)/x -> pi at 0; integral over [0,1] is Si(pi)
    def f(x):
        return math.sin(math.pi * x) / x

    got = adaptive_integrate(f, 1e-10, singular_points=((0.0, math.pi),))
    want = float(mpmath.si(mpmath.pi))
    assert got == pytest.approx(want, abs=1e-9)


def test_adaptive_integrator_unreachable_tolerance():
    # an undeclared non-removable singularity keeps the leftmost panel's
    # defect width-independent, so the depth cap must trip and report
    def f(x):
        return 1.0 / x if x > 0.0 else 0.0

    with pytest.raises(QuadratureError) as exc:
        adaptive_integrate(f, 1e-6, ())
    assert exc.value.achieved > 0


def test_zeta_odd_integrals_match_series_oracle():
    for k in (1, 2, 3):
        want = sum_zeta(2 * k + 1, 1e-10).value
        got = zeta_odd_integral(k, tol=1e-8)
        assert got == pytest.approx(want, abs=1e-7), k


def test_beta_even_integrals_match_series_oracle():
    for k in (0, 1, 2):
        want = sum_beta(2 * k + 2, 1e-10).value
        got = beta_even_integral(k, tol=1e-8)
        assert got == pytest.approx(want, abs=1e-7), k
