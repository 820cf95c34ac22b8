"""Closed-form constants and the shifted lattice sums.

Ground truth for the constants comes from mpmath's independent zeta /
Dirichlet L-series implementations, plus a handful of hand-derivable
exact anchors (values at 0, pi/2, pi).
"""

import math
from fractions import Fraction

import mpmath
import pytest

from telesum import (
    PiScalar,
    Z,
    Z_table,
    Ztilde,
    Ztilde0,
    Ztilde_table,
    beta_odd,
    eta_even,
    lambda_even,
    zeta_even,
)

F = Fraction


def _dirichlet_beta(s):
    return mpmath.dirichlet(s, [0, 1, 0, -1])


def test_zeta_even_exact_forms():
    assert zeta_even(1) == PiScalar(F(1, 6), 2)
    assert zeta_even(2) == PiScalar(F(1, 90), 4)
    assert zeta_even(3) == PiScalar(F(1, 945), 6)
    assert zeta_even(4) == PiScalar(F(1, 9450), 8)
    assert zeta_even(5) == PiScalar(F(1, 93555), 10)


def test_beta_odd_exact_forms():
    assert beta_odd(0) == PiScalar(F(1, 4), 1)
    assert beta_odd(1) == PiScalar(F(1, 32), 3)
    assert beta_odd(2) == PiScalar(F(5, 1536), 5)
    assert beta_odd(3) == PiScalar(F(61, 184320), 7)


def test_eta_lambda_exact_forms():
    assert eta_even(1) == PiScalar(F(1, 12), 2)
    assert eta_even(2) == PiScalar(F(7, 720), 4)
    assert eta_even(3) == PiScalar(F(31, 30240), 6)
    assert lambda_even(1) == PiScalar(F(1, 8), 2)
    assert lambda_even(2) == PiScalar(F(1, 96), 4)
    assert lambda_even(3) == PiScalar(F(1, 960), 6)


def _as_float(x):
    return float(x.coeff) * math.pi ** x.pi_power


def test_zeta_even_against_mpmath():
    with mpmath.workdps(30):
        for k in range(1, 11):
            want = float(mpmath.zeta(2 * k))
            assert _as_float(zeta_even(k)) == pytest.approx(want, rel=1e-13)


def test_beta_odd_against_mpmath():
    with mpmath.workdps(30):
        for k in range(0, 9):
            want = float(_dirichlet_beta(2 * k + 1))
            assert _as_float(beta_odd(k)) == pytest.approx(want, rel=1e-13)


def test_eta_lambda_scalings_against_mpmath():
    with mpmath.workdps(30):
        for k in range(1, 9):
            z = mpmath.zeta(2 * k)
            assert _as_float(eta_even(k)) == pytest.approx(
                float((1 - 2 ** (1 - 2 * k)) * z), rel=1e-13
            )
            assert _as_float(lambda_even(k)) == pytest.approx(
                float((1 - 2 ** (-2 * k)) * z), rel=1e-13
            )


def test_constant_floats_are_correctly_rounded():
    # the double nearest to the true value, not float(coeff) * math.pi ** n
    with mpmath.workprec(400):
        for k in range(1, 101):
            z = mpmath.zeta(2 * k)
            assert float(zeta_even(k)) == float(z), k
            assert float(eta_even(k)) == float(mpmath.altzeta(2 * k)), k
            assert float(lambda_even(k)) == float((1 - mpmath.mpf(2) ** (-2 * k)) * z), k
        for k in range(0, 101):
            assert float(beta_odd(k)) == float(_dirichlet_beta(2 * k + 1)), k
    assert float(zeta_even(1)).hex() == "0x1.a51a6625307d3p+0"
    assert float(zeta_even(32)) == 1.0


# ------------------------------------------------------------- lattice sums


def test_alternating_lattice_anchors():
    assert Z(0, 0.0) == pytest.approx(0.5, rel=1e-13)
    assert Z(2, 0.0) == pytest.approx(1.0 / 16.0, rel=1e-13)
    assert Z(0, math.pi / 2) == pytest.approx(math.sqrt(2) / 2, rel=1e-13)
    assert Z(1, math.pi / 2) == pytest.approx(math.sqrt(2) / 4, rel=1e-13)


def test_even_lattice_anchors():
    assert Ztilde(1, math.pi) == pytest.approx(0.25, rel=1e-13)
    assert Ztilde(2, math.pi) == pytest.approx(0.0, abs=1e-15)
    assert Ztilde0(math.pi / 2) == pytest.approx(-0.5, rel=1e-13)
    assert Ztilde0(math.pi) == pytest.approx(0.0, abs=1e-15)


def test_lattice_sums_are_scaled_carrier_derivatives():
    """Independent oracle: mpmath numeric differentiation, scaled by 2 k!."""
    for mu in (-1.8, -0.4, 0.9, 2.3):
        for k in range(0, 6):
            want = float(
                mpmath.diff(lambda u: mpmath.sec(u / 2), mpmath.mpf(mu), k)
                / (2 * mpmath.factorial(k))
            )
            assert Z(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-12)
    for mu in (0.7, 1.9, 3.6, 5.1):
        for k in range(1, 6):
            want = float(
                mpmath.diff(lambda u: -mpmath.cot(u / 2), mpmath.mpf(mu), k)
                / (2 * mpmath.factorial(k))
            )
            assert Ztilde(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-12)
    # deep k, where numeric differentiation is out of reach: Hurwitz zeta
    with mpmath.workdps(50):
        for k in (40, 60):
            for mu in (-1.8, -0.4, 0.9, 2.3):
                want = float(_z_hurwitz(k, mpmath.mpf(mu)))
                assert Z(k, mu) == pytest.approx(want, rel=1e-12), (k, mu)
            for mu in (0.7, 1.9, 3.6, 5.1):
                want = float(_ztilde_hurwitz(k, mpmath.mpf(mu)))
                assert Ztilde(k, mu) == pytest.approx(want, rel=1e-12), (k, mu)


def _z_hurwitz(k, mu):
    # the m >= 0 half is alternating with step 2 pi, i.e. two Hurwitz zetas
    # of step 4 pi; the m < 0 half is the same at -mu, times (-1)**k
    s = k + 1

    def half(nu):
        a = (mpmath.pi - nu) / (4 * mpmath.pi)
        return (mpmath.zeta(s, a) - mpmath.zeta(s, a + 0.5)) / (4 * mpmath.pi) ** s

    return half(mu) + (-1) ** k * half(-mu)


def _ztilde_hurwitz(k, mu):
    # m >= 1 and m <= 0 halves, with b = mu / (2 pi) reduced into (0, 1)
    s = k + 1
    b = mu / (2 * mpmath.pi)
    b -= mpmath.floor(b)
    return (mpmath.zeta(s, 1 - b) + (-1) ** s * mpmath.zeta(s, b)) / (2 * mpmath.pi) ** s


def test_method_routes_agree():
    for mu in (-2.6, -1.1, 0.0, 0.6, 2.9):
        for k in range(0, 9):
            a = Z(k, mu, method="complex")
            b = Z(k, mu, method="taylor")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-11)
            if k <= 6:
                assert Z_table(k, mu) == pytest.approx(a, rel=1e-10, abs=1e-10)
    for mu in (0.4, 1.0, 2.0, math.pi, 4.0):
        for k in range(1, 9):
            a = Ztilde(k, mu, method="complex")
            b = Ztilde(k, mu, method="taylor")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-11)
            if k <= 7:
                assert Ztilde_table(k, mu) == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_table_periodicity_structure():
    # alternating lattice: antiperiodic under mu -> mu + 2 pi
    for k in range(0, 7):
        for mu in (0.3, -1.2, 2.0):
            assert Z_table(k, mu + 2 * math.pi) == pytest.approx(
                -Z_table(k, mu), rel=1e-11, abs=1e-12
            )
    # even lattice: periodic under mu -> mu + 2 pi
    for k in range(1, 8):
        for mu in (0.4, 2.0, math.pi):
            assert Ztilde_table(k, mu + 2 * math.pi) == pytest.approx(
                Ztilde_table(k, mu), rel=1e-11, abs=1e-12
            )


def test_domain_and_argument_errors():
    with pytest.raises(ValueError):
        Z(-1, 0.0)
    with pytest.raises(ValueError):
        Z(2, 3.5)  # computational routes need |mu| < pi
    with pytest.raises(ValueError):
        Z(2, math.pi)
    with pytest.raises(ValueError):
        Ztilde(0, 1.0)
    with pytest.raises(ValueError):
        Ztilde(2, 0.0)
    with pytest.raises(ValueError):
        Ztilde0(4 * math.pi)
    with pytest.raises(ValueError):
        Z(1, 0.5, method="newton")
    # the table route accepts wide mu (it is the documented way out there)
    assert math.isfinite(Z(2, 3.5, method="table"))
