"""Brute-force series oracles with certified error bounds.

The central contract tested here: |value - truth| <= error_bound, with
truth supplied by mpmath (zeta, Dirichlet L-series) or by exact closed
forms, never by the code under test.
"""

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest

from telesum import (
    SumResult,
    ToleranceUnreachable,
    Z,
    Ztilde,
    Ztilde0,
    cospi,
    herglotz_limit,
    herglotz_residual,
    hurwitz_partial,
    sinpi,
    sum_Z,
    sum_Ztilde,
    sum_beta,
    sum_cotangent,
    sum_inverse_square,
    sum_zeta,
    bernoulli_poly,
    euler_poly,
    poly_eval,
)
from fractions import Fraction

from telesum.oracles import _CHUNK, _certified_sum


def _beta_truth(s):
    with mpmath.workdps(30):
        return float(mpmath.dirichlet(s, [0, 1, 0, -1]))


def _zeta_truth(s):
    with mpmath.workdps(30):
        return float(mpmath.zeta(s))


# -------------------------------------------------------------- half-angle


def test_sinpi_cospi_exact_lattice_values():
    assert sinpi(0.0) == 0.0
    assert sinpi(1.0) == 0.0
    assert sinpi(123456789.0) == 0.0
    assert sinpi(0.5) == 1.0
    assert sinpi(-0.5) == -1.0
    assert cospi(0.0) == 1.0
    assert cospi(1.0) == -1.0
    assert cospi(2.5) == 0.0
    assert cospi(-0.5) == 0.0


def test_sinpi_cospi_against_libm():
    for i in range(-40, 41):
        x = i * 0.07 + 0.013
        assert sinpi(x) == pytest.approx(math.sin(math.pi * x), rel=1e-13, abs=1e-13)
        assert cospi(x) == pytest.approx(math.cos(math.pi * x), rel=1e-13, abs=1e-13)


def test_sinpi_large_arguments_stay_bounded():
    # naive math.sin(math.pi * x) is useless out here; reduction is not
    for x in (1e15 + 0.25, 2.0**52 + 0.5, -7.5e14 + 0.125):
        assert abs(sinpi(x)) <= 1.0
        assert abs(cospi(x)) <= 1.0
        assert sinpi(x) ** 2 + cospi(x) ** 2 == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------------ results


def test_sum_result_is_frozen():
    r = SumResult(1.0, 1e-10, 100)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.value = 2.0


def test_sum_zeta_certified_against_mpmath():
    for s, tol in [(2, 1e-10), (3, 1e-10), (4, 1e-8), (7, 1e-12), (17, 1e-10)]:
        r = sum_zeta(s, tol)
        assert r.error_bound <= tol
        assert abs(r.value - _zeta_truth(s)) <= r.error_bound
        assert r.terms_used > 0


def test_sum_beta_certified_against_mpmath():
    for s, tol in [(1, 1e-8), (2, 1e-10), (3, 1e-10), (5, 1e-12)]:
        r = sum_beta(s, tol)
        assert r.error_bound <= tol
        assert abs(r.value - _beta_truth(s)) <= r.error_bound


def test_unreachable_tolerance_raises_with_achieved():
    with pytest.raises(ToleranceUnreachable) as exc:
        sum_zeta(2, 1e-30)
    assert 0 < exc.value.achieved < 1e-10
    with pytest.raises(ValueError):
        sum_zeta(2, 0.0)
    with pytest.raises(ValueError):
        sum_zeta(1, 1e-6)  # divergent series rejected


def test_sum_zeta_tenfold_tightening_is_consistent():
    loose = sum_zeta(3, 1e-6)
    tight = sum_zeta(3, 1e-8)
    assert abs(loose.value - tight.value) <= loose.error_bound + tight.error_bound
    assert tight.terms_used >= loose.terms_used


# -------------------------------------------------------------- lattice sums


def test_sum_Z_within_certified_bound_of_closed_form():
    for k in (0, 1, 2, 5):
        for mu in (0.0, 0.7, -1.5, 3.0):
            r = sum_Z(k, mu, N=4000)
            want = Z(k, mu)
            assert abs(r.value - want) <= r.error_bound, (k, mu)
            assert r.terms_used == 2 * 4000


def test_sum_Z_order_reversal_is_bitwise_stable():
    for k, mu in [(0, 0.0), (2, 0.7), (4, -2.8)]:
        up = sum_Z(k, mu, N=3000, order="ascending")
        down = sum_Z(k, mu, N=3000, order="descending")
        assert up.value == down.value  # fsum is order-invariant, exactly


def test_sum_Z_known_anchor_values():
    r = sum_Z(0, 0.0, N=10**4)
    assert abs(r.value - 0.5) <= r.error_bound
    r = sum_Z(2, 0.0, N=10**3)
    assert abs(r.value - 0.0625) <= max(r.error_bound, 1e-15)
    r = sum_Z(1, math.pi / 2, N=10**4)
    assert r.value == pytest.approx(math.sqrt(2) / 4, abs=1e-9)


def test_sum_Ztilde_within_certified_bound_of_closed_form():
    for k in (1, 2, 4, 8):
        for mu in (0.4, 1.0, math.pi / 2, 2.0, math.pi, 4.0):
            r = sum_Ztilde(k, mu, N=4000)
            want = Ztilde(k, mu)
            assert abs(r.value - want) <= r.error_bound, (k, mu)


def test_sum_Ztilde_pairing_at_k0():
    for mu in (0.4, math.pi / 2, 2.0, 4.0):
        r = sum_Ztilde(0, mu, N=10**4)
        assert r.value == pytest.approx(Ztilde0(mu), abs=1e-6)
    # exact antisymmetry at k = 2, mu = pi: every paired term cancels
    r = sum_Ztilde(2, math.pi, N=10**3)
    assert abs(r.value) <= max(r.error_bound, 1e-15)


def test_lattice_sum_guards():
    with pytest.raises(ValueError):
        sum_Z(1, 3.5, N=100)  # outside |mu| < pi
    with pytest.raises(ValueError):
        sum_Z(1, 0.7, N=100, order="sideways")
    with pytest.raises(ValueError):
        sum_Ztilde(1, 1e-12, N=100)  # m = 0 pole
    with pytest.raises(ValueError):
        sum_Ztilde(1, 1000.0, N=10)  # window too small to clear the pole
    # the m = 0 term alone is beyond the double range: raise, never return inf
    with mpmath.workdps(30):
        m0_terms = (
            (sum_Z, 3.14159, 1 / (mpmath.pi - mpmath.mpf(3.14159)) ** 71),
            (sum_Ztilde, 2e-8, 1 / mpmath.mpf(-2e-8) ** 71),
        )
    for oracle, mu, m0_term in m0_terms:
        assert abs(m0_term) > sys.float_info.max
        with pytest.raises(ToleranceUnreachable) as exc:
            oracle(70, mu)
        assert exc.value.achieved == math.inf


def test_kernel_sum_is_exactly_rounded_across_chunks():
    # rounding each chunk first would lose both 2**-53: chunk 1 rounds to 1.0
    # and 1.0 + 2**-53 rounds to 1.0 again
    terms = np.zeros(_CHUNK + 10)
    terms[:2] = (1.0, 2.0**-53)
    terms[_CHUNK] = 2.0**-53
    r = _certified_sum(terms, (), 0.0, terms.size)
    assert r.value == 1.0 + 2.0**-52
    assert _certified_sum(terms, (), 0.0, terms.size, reverse=True).value == r.value


# ---------------------------------------------------------------- theta sums


def test_inverse_square_sum_matches_closed_form():
    for theta in (0.1, 0.25, 0.5, 0.9):
        r = sum_inverse_square(theta, N=10**5)
        want = math.pi**2 / math.sin(math.pi * theta) ** 2
        assert abs(r.value - want) <= r.error_bound, theta


def test_cotangent_sum_matches_closed_form():
    for theta in (0.1, 0.25, 0.9):
        r = sum_cotangent(theta, N=10**5)
        want = math.pi / math.tan(math.pi * theta)
        assert abs(r.value - want) <= r.error_bound, theta
    r = sum_cotangent(0.5, N=10**5)
    assert abs(r.value) <= r.error_bound  # exact zero target


def test_herglotz_residuals():
    f_res, g_res = herglotz_residual(0.3, N=10**4)
    assert abs(f_res) <= 1e-12
    assert abs(g_res) <= 1e-6
    _, g_more = herglotz_residual(0.3, N=10**5)
    # decay under tenfold rerun, with a roundoff floor near 1 ulp of pi^2
    assert abs(g_more) <= max(abs(g_res), 2e-12)


def test_herglotz_small_argument_limit():
    got = herglotz_limit(1e-3, N=10**6)
    assert got == pytest.approx(math.pi**2 / 3, abs=1e-4)


# ------------------------------------------------------------------- hurwitz


def test_hurwitz_partial_converges_to_polynomials():
    F = Fraction
    xs = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for k in (1, 2):
        for x in xs:
            want_b = float(poly_eval(bernoulli_poly(2 * k), x))
            got = hurwitz_partial("B_even", k, float(x), M=10**5)
            assert got == pytest.approx(want_b, abs=1e-4), ("B_even", k, x)
            want_e = float(poly_eval(euler_poly(2 * k), x))
            got = hurwitz_partial("E_even", k, float(x), M=10**4)
            assert got == pytest.approx(want_e, abs=1e-4), ("E_even", k, x)


def test_hurwitz_degenerate_rows_are_exact_zeros():
    # both sides of these rows vanish identically; no tolerance allowed
    assert hurwitz_partial("B_odd", 1, 0.0, M=10**3) == 0.0
    assert hurwitz_partial("B_odd", 2, 0.5, M=10**3) == 0.0
    assert hurwitz_partial("B_odd", 1, 1.0, M=10**3) == 0.0
    assert hurwitz_partial("E_even", 1, 0.0, M=10**3) == 0.0
    assert hurwitz_partial("E_even", 2, 1.0, M=10**3) == 0.0
    assert hurwitz_partial("E_odd", 1, 0.5, M=10**3) == 0.0


def test_hurwitz_rejects_unknown_kind():
    with pytest.raises(ValueError):
        hurwitz_partial("B_sideways", 1, 0.0, M=100)
