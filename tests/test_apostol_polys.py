"""Deformed (parameterized) Bernoulli/Euler families and their carriers.

The deformed families live at elevated precision internally, so the
tolerances here are far below double-precision noise for honest formulas
but would catch any wrong term instantly.
"""

import math
import time
from fractions import Fraction

import mpmath
import pytest

from telesum import (
    ToleranceUnreachable,
    apostol_bernoulli_poly,
    apostol_polys,
    apostol_euler_poly,
    bernoulli_poly,
    cot_taylor_coeffs,
    ek_mu,
    ek_mu_imag_residue,
    ektilde_mu,
    ektilde_mu_imag_residue,
    euler_poly,
    sec_taylor_coeffs,
)

from hurwitz_truth import z_truth

LAMBDAS = [
    mpmath.mpc(2, 0),
    mpmath.mpc(-3, 0),
    mpmath.mpc(0.5, 0.5),
    mpmath.mpc(0, 1),
    mpmath.mpc(-1.7, 2.4),
]


def _poly_at(q, x):
    return q(mpmath.mpc(x))


def test_reduction_to_classical_euler():
    for k in range(0, 13):
        got = apostol_euler_poly(k, 1)
        want = euler_poly(k)
        for j, c in enumerate(want.coeffs):
            assert abs(complex(got.coeffs[j]) - float(c)) <= 1e-14 * max(
                1.0, abs(float(c))
            )


def test_reduction_to_classical_bernoulli():
    for k in range(1, 13):
        got = apostol_bernoulli_poly(k, 1)
        want = bernoulli_poly(k)
        for j, c in enumerate(want.coeffs):
            assert abs(complex(got.coeffs[j]) - float(c)) <= 1e-14 * max(
                1.0, abs(float(c))
            )


def test_difference_equations():
    """lam E_k(x+1) + E_k(x) = 2 x^k and lam B_k(x+1) - B_k(x) = k x^(k-1).

    Evaluation happens at the family's own working precision; at ambient
    double precision the k = 8 cancellations would drown the defect.
    """
    with mpmath.workdps(40):
        xs = [mpmath.mpf(v) for v in (-0.75, 0.0, 0.4, 1.3)]
        for lam in LAMBDAS:
            for k in range(0, 9):
                e = apostol_euler_poly(k, lam)
                for x in xs:
                    lhs = lam * _poly_at(e, x + 1) + _poly_at(e, x)
                    rhs = 2 * mpmath.mpc(x) ** k
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            for k in range(1, 9):
                b = apostol_bernoulli_poly(k, lam)
                for x in xs:
                    lhs = lam * _poly_at(b, x + 1) - _poly_at(b, x)
                    rhs = k * mpmath.mpc(x) ** (k - 1)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_boundary_identity_on_unit_circle():
    # lam E_k(1; lam) + E_k(0; lam) is 2 at k = 0 and 0 for k >= 1
    with mpmath.workdps(40):
        for mu in (0.3, 1.2, 2.5, -2.0):
            lam = mpmath.e ** (1j * mpmath.mpf(mu))
            for k in range(0, 11):
                e = apostol_euler_poly(k, lam)
                val = lam * _poly_at(e, 1) + _poly_at(e, 0)
                want = 2.0 if k == 0 else 0.0
                assert abs(val - want) <= 1e-12


def test_bernoulli_euler_deformation_relation():
    # B_k(x; lam) = -(k/2) E_{k-1}(x; -lam)
    with mpmath.workdps(40):
        for lam in LAMBDAS:
            for k in range(1, 10):
                b = apostol_bernoulli_poly(k, lam)
                e = apostol_euler_poly(k - 1, -lam)
                for x in (mpmath.mpf("0.25"), mpmath.mpf("1.5")):
                    lhs = _poly_at(b, x)
                    rhs = -mpmath.mpf(k) / 2 * _poly_at(e, x)
                    assert abs(lhs - rhs) <= 1e-18 * max(1.0, abs(rhs))


def test_derivative_ladder_of_deformed_family():
    for lam in LAMBDAS:
        for k in range(1, 9):
            d = apostol_euler_poly(k, lam).derivative()
            e = apostol_euler_poly(k - 1, lam)
            for j, c in enumerate(e.coeffs):
                assert abs(d.coeffs[j] - k * c) <= 1e-18 * max(1.0, abs(k * c))


def test_difference_rows_are_stirling_and_binomial_sums():
    # j! S(k, j) = forward differences of i**k, T_k(j) = those of (2i + 1)**k
    with mpmath.workdps(150):
        for k in range(61):
            assert apostol_polys._difference_row(k, 0, 1) == tuple(
                math.factorial(j) * int(mpmath.stirling2(k, j)) for j in range(k + 1)
            )
            assert apostol_polys._difference_row(k, 1, 2) == tuple(
                sum((-1) ** (j - i) * math.comb(j, i) * (2 * i + 1) ** k for i in range(j + 1))
                for j in range(k + 1)
            )


def test_excluded_parameters():
    with pytest.raises(ValueError):
        apostol_euler_poly(3, 0)
    with pytest.raises(ValueError):
        apostol_euler_poly(3, -1)
    with pytest.raises(ValueError):
        apostol_bernoulli_poly(0, 2)
    with pytest.raises(ValueError):
        apostol_bernoulli_poly(3, 0)


def test_dps_is_an_integer_of_at_least_one():
    # a non-positive dps once ran mpmath at that precision: wrong digits, no error
    for bad in (0, -5, 2.5, True):
        for call in (
            lambda: apostol_euler_poly(3, 0.5, dps=bad),
            lambda: apostol_bernoulli_poly(3, 0.5, dps=bad),
        ):
            with pytest.raises(ValueError, match="dps must be an integer >= 1"):
                call()
    assert complex(apostol_euler_poly(3, 0.5, dps=1).coeffs[-1]) == pytest.approx(4 / 3, rel=0.1)


# ------------------------------------------------------------------ carriers


def test_sec_derivatives_at_zero():
    # sec(w/2) = 1 + w^2/8 + 5 w^4/384 + ... so derivatives 0..4 follow
    got = sec_taylor_coeffs(0.0, 4)
    want = [1.0, 0.0, 0.25, 0.0, 0.3125]
    assert got == pytest.approx(want, abs=1e-15)


def test_sec_derivatives_at_right_angle():
    assert ek_mu(0, math.pi / 2) == pytest.approx(math.sqrt(2), rel=1e-13)
    assert ek_mu(1, math.pi / 2) == pytest.approx(math.sqrt(2) / 2, rel=1e-13)


def test_cot_derivatives_at_right_angle():
    got = cot_taylor_coeffs(math.pi / 2, 4)
    want = [-1.0, 1.0, -1.0, 2.0, -5.0]
    assert got == pytest.approx(want, rel=1e-12)


def test_carriers_against_mpmath_differentiation():
    """Independent oracle: mpmath numeric differentiation of sec/cot."""
    for mu in (-2.2, -0.9, 0.3, 1.7):
        sec = sec_taylor_coeffs(mu, 5)
        for k in range(0, 6):
            want = float(mpmath.diff(lambda u: mpmath.sec(u / 2), mpmath.mpf(mu), k))
            assert ek_mu(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-10)
            assert sec[k] == pytest.approx(want, rel=1e-9, abs=1e-10)
    for mu in (0.5, 1.1, 2.8, 4.0):
        cot = cot_taylor_coeffs(mu, 5)
        for k in range(1, 6):
            want = float(
                mpmath.diff(lambda u: -mpmath.cot(u / 2), mpmath.mpf(mu), k)
            )
            assert ektilde_mu(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-10)
            assert cot[k] == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_dual_routes_agree():
    for mu in (-2.5, -1.0, 0.0, 0.8, 2.9):
        sec = sec_taylor_coeffs(mu, 10)
        for k in range(0, 11):
            assert ek_mu(k, mu) == pytest.approx(sec[k], rel=1e-11, abs=1e-11)
    for mu in (0.4, 1.3, 3.1, 5.5):
        cot = cot_taylor_coeffs(mu, 10)
        for k in range(1, 11):
            assert ektilde_mu(k, mu) == pytest.approx(cot[k], rel=1e-11, abs=1e-11)


def test_imaginary_residue_is_tiny():
    for mu in (-2.0, 0.0, 1.5):
        for k in range(0, 13):
            assert ek_mu_imag_residue(k, mu) <= 1e-12
    with pytest.raises(ValueError):
        ek_mu_imag_residue(-1, 0.0)


def test_odd_sec_derivatives_vanish_at_zero():
    # the value is exactly 0; the residue is rounding noise that grows with
    # k!, and the check allows for it as Z's does.  |z| is then noise too, so
    # the scaled residue is held to the allowance, not to |z|
    for k in range(51, 100, 2):
        assert ek_mu(k, 0.0) == 0.0
        assert ek_mu_imag_residue(k, 0.0) <= 2 * apostol_polys.TOL_IMAG, k


def test_imaginary_residue_past_the_double_range_is_finite():
    # |z| is far past the double range here; the ratio is formed before rounding
    for residue, k, mu in ((ek_mu_imag_residue, 250, 3.0), (ektilde_mu_imag_residue, 250, 6.2)):
        got = residue(k, mu)
        assert math.isfinite(got) and 0.0 <= got <= 1e-12, (k, mu, got)


def test_taylor_coefficients_past_the_double_range_raise_a_typed_error():
    # the sec derivatives pass 1.8e308 at j = 72 for mu = 3.14; -cot's at j = 78
    # for mu = 6.28; in range, the same calls return finite lists
    for coeffs, mu in ((sec_taylor_coeffs, 3.14), (cot_taylor_coeffs, 6.28)):
        assert all(math.isfinite(c) for c in coeffs(mu, 60))
        with pytest.raises(ToleranceUnreachable) as info:
            coeffs(mu, 150)
        assert info.value.achieved == math.inf


# ek_mu's outcomes where its value leaves the double range, recorded from
# the route before the a-priori check: a value's float.hex or the exception
_EK_EDGE_OUTCOMES = {
    (216, 5e-324): '0x1.331eca64ad24cp+1012',
    (216, 1e-61): '0x1.331eca64ad24cp+1012',
    (216, 0.1): '0x1.4f6e5ea48d84bp+1021',
    (216, 3.1): 'ToleranceUnreachable',
    (217, 5e-324): '0x1.6763a2acf04c8p-50',
    (217, 1e-61): '0x1.ce035048f98fcp+821',
    (217, 0.1): 'ToleranceUnreachable',
    (217, 3.1): 'ToleranceUnreachable',
    (218, 5e-324): 'ToleranceUnreachable',
    (218, 1e-61): 'ToleranceUnreachable',
    (218, 0.1): 'ToleranceUnreachable',
    (218, 3.1): 'ToleranceUnreachable',
    (219, 5e-324): '0x1.ac52df4c8944ep-38',
    (219, 1e-61): '0x1.1350dd0087b63p+834',
    (219, 0.1): 'ToleranceUnreachable',
    (219, 3.1): 'ToleranceUnreachable',
    (220, 5e-324): 'ToleranceUnreachable',
    (220, 1e-61): 'ToleranceUnreachable',
    (220, 0.1): 'ToleranceUnreachable',
    (220, 3.1): 'ToleranceUnreachable',
    (379, 5e-324): '0x1.a3577abe6a825p+1012',
    (379, 1e-61): 'ToleranceUnreachable',
    (379, 0.1): 'ToleranceUnreachable',
    (379, 3.1): 'ToleranceUnreachable',
    (380, 5e-324): 'ToleranceUnreachable',
    (380, 1e-61): 'ToleranceUnreachable',
    (380, 0.1): 'ToleranceUnreachable',
    (380, 3.1): 'ToleranceUnreachable',
    (381, 5e-324): 'ToleranceUnreachable',
    (381, 1e-61): 'ToleranceUnreachable',
    (381, 0.1): 'ToleranceUnreachable',
    (381, 3.1): 'ToleranceUnreachable',
    (382, 5e-324): 'ToleranceUnreachable',
    (382, 1e-61): 'ToleranceUnreachable',
    (382, 0.1): 'ToleranceUnreachable',
    (382, 3.1): 'ToleranceUnreachable',
    (617, 5e-324): 'ToleranceUnreachable',
    (617, 1e-61): 'ToleranceUnreachable',
    (617, 0.1): 'ToleranceUnreachable',
    (617, 3.1): 'ToleranceUnreachable',
    (618, 5e-324): 'ToleranceUnreachable',
    (618, 1e-61): 'ToleranceUnreachable',
    (618, 0.1): 'ToleranceUnreachable',
    (618, 3.1): 'ToleranceUnreachable',
    (1001, 5e-324): 'ToleranceUnreachable',
    (1001, 1e-61): 'ToleranceUnreachable',
    (1001, 0.1): 'ToleranceUnreachable',
    (1001, 3.1): 'ToleranceUnreachable',
}


def test_ek_mu_past_the_double_range_raises_before_building_the_route(monkeypatch):
    for (k, mu), want in _EK_EDGE_OUTCOMES.items():
        try:
            got = ek_mu(k, mu).hex()
        except ToleranceUnreachable as exc:
            assert exc.achieved == math.inf
            got = "ToleranceUnreachable"
        assert got == want, (k, mu)
    # the bound alone decides at k = 1001: no route, and no time for one
    def no_route(*args):
        raise AssertionError("route built")

    monkeypatch.setattr(apostol_polys, "_ek_complex", no_route)
    for mu in (5e-324, 0.1, -3.1):
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            with pytest.raises(ToleranceUnreachable):
                ek_mu(1001, mu)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01
    # odd derivatives vanish at mu = 0, so no bound applies there
    monkeypatch.undo()
    assert ek_mu(1001, 0.0) == 0.0


def test_taylor_coefficients_stop_growing_rows_at_the_first_overflow():
    # the entries pass the double range near j = 207; the exact rows take
    # memory that grows like K**3 log K, so none past that one is built
    rows = apostol_polys._SEC_ROWS
    before = len(rows.exact)
    with pytest.raises(ToleranceUnreachable):
        sec_taylor_coeffs(0.7, 10_000)
    assert len(rows.exact) <= max(before, 300)


def test_non_finite_parameters_are_rejected():
    message = "lambda must have finite real and imaginary parts"
    for lam in (complex(math.nan, 0.0), complex(0.5, math.inf), math.inf):
        for family in (apostol_euler_poly, apostol_bernoulli_poly):
            with pytest.raises(ValueError) as exc:
                family(2, lam)
            assert str(exc.value) == message
    for mu in (math.nan, math.inf):
        for call in (sec_taylor_coeffs, cot_taylor_coeffs):
            with pytest.raises(ValueError) as exc:
                call(mu, 3)
            assert str(exc.value) == "mu must be finite"


def test_carrier_domain_guards():
    with pytest.raises(ValueError):
        ek_mu(2, math.pi)  # sec pole
    with pytest.raises(ValueError):
        ek_mu(2, 3.5)
    with pytest.raises(ValueError):
        ektilde_mu(0, 1.0)  # k = 0 combination is not real
    with pytest.raises(ValueError):
        ektilde_mu(2, 0.0)  # cot pole
    with pytest.raises(ValueError):
        sec_taylor_coeffs(math.pi, 4)
    with pytest.raises(ValueError):
        cot_taylor_coeffs(2 * math.pi, 4)


def test_carriers_past_the_double_range_raise_a_typed_error():
    # 2 * 171! * Z(171, 0.7) = 5.19e242 is in range; the k = 250 value is not,
    # and from k = 381 on no value at mu != 0 is, the least subnormal mu and
    # k past the certified rows included
    assert ek_mu(171, 0.7) == pytest.approx(5.188192231325938e242, rel=1e-13)
    with mpmath.workdps(30):
        want = 2 * math.factorial(379) * z_truth(379, 5e-324)  # 7.19e304
        assert abs(ek_mu(379, 5e-324) - want) <= 1e-13 * want
    for carrier, k, mu in ((ek_mu, 250, 0.7), (ek_mu, 381, 5e-324), (ek_mu, 701, 1e-61),
                           (ektilde_mu, 200, 1.0)):
        with pytest.raises(ToleranceUnreachable) as info:
            carrier(k, mu)
        assert info.value.achieved == math.inf
