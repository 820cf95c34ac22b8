"""Exact rational/pi-scalar/polynomial layer.

Everything in this module is exact arithmetic, so the assertions are
equalities; no tolerances appear anywhere.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import mpf_pi, to_fixed

from telesum import (
    PiScalar,
    Poly,
    binomial,
    collapse_pi_terms,
    format_pi_scalar,
    format_rational,
    poly_derivative,
    poly_eval,
    poly_integral_01,
    poly_reflect,
)
from telesum import exact_core

# every fraction with denominator <= 40 in [-50, 50], drawn directly: a
# denominator, then a numerator in range (st.fractions filters its draws)
rationals = st.integers(1, 40).flatmap(
    lambda q: st.integers(-50 * q, 50 * q).map(lambda p: Fraction(p, q))
)
small_polys = st.lists(rationals, min_size=0, max_size=13).map(Poly)


# ---------------------------------------------------------------- rationals


def test_format_rational():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(7, 1)) == "7"
    assert format_rational(Fraction(0, 5)) == "0"
    assert format_rational(Fraction(6, -8)) == "-3/4"  # canonical lowest terms


def test_binomial_matches_math_comb():
    for n in range(0, 31):
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


# ---------------------------------------------------------------- pi scalars


def test_pi_scalar_equality_and_zero():
    assert PiScalar(Fraction(1, 6), 2) == PiScalar(Fraction(1, 6), 2)
    assert PiScalar(Fraction(1, 6), 2) != PiScalar(Fraction(1, 6), 3)
    # every zero compares equal no matter the recorded power
    assert PiScalar(0, 5) == PiScalar(Fraction(0), 0)
    assert PiScalar(0, 5).is_zero


def test_pi_scalar_arithmetic():
    a = PiScalar(Fraction(1, 2), 2)
    b = PiScalar(Fraction(1, 3), 2)
    assert a + b == PiScalar(Fraction(5, 6), 2)
    assert a - b == PiScalar(Fraction(1, 6), 2)
    assert a * PiScalar(Fraction(1, 5), 3) == PiScalar(Fraction(1, 10), 5)
    assert a * Fraction(2) == PiScalar(Fraction(1), 2)


def test_pi_scalar_division():
    a = PiScalar(Fraction(1, 2), 5)
    assert a / PiScalar(Fraction(1, 3), 2) == PiScalar(Fraction(3, 2), 3)
    assert a / 4 == PiScalar(Fraction(1, 8), 5)
    assert a / Fraction(3, 7) == PiScalar(Fraction(7, 6), 5)
    # Fraction's own ZeroDivisionError would name Fraction, not PiScalar
    with pytest.raises(ZeroDivisionError, match="division by zero PiScalar"):
        a / PiScalar(0, 2)
    # a float would make the result inexact
    with pytest.raises(TypeError):
        a / 2.0


def test_pi_scalar_cross_power_addition_rejected():
    with pytest.raises(ValueError):
        PiScalar(Fraction(1, 2), 2) + PiScalar(Fraction(1, 5), 3)


def _nearest_double(coeff, pi_power):
    """The double nearest to coeff * pi**pi_power, from mpmath at 400 bits
    (normal range only: mpmath rounds twice below it)."""
    with mpmath.workprec(400):
        return float(mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.pi ** pi_power)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rationals, st.integers(min_value=-120, max_value=120))
def test_pi_scalar_float_is_correctly_rounded(coeff, pi_power):
    assert float(PiScalar(coeff, pi_power)) == _nearest_double(coeff, pi_power)


def test_pi_scalar_float_when_the_first_bounds_disagree():
    # lie so close to a rounding boundary that the first working precision
    # leaves both neighbouring doubles possible; the retry decides
    for coeff, pi_power in [
        (Fraction(25402, 659225), 2),
        (Fraction(387245, 690716), 8),
        (Fraction(298825, 400747), 5),
    ]:
        assert float(PiScalar(coeff, pi_power)) == _nearest_double(coeff, pi_power)


def test_pi_scalar_float_at_the_edges_of_the_double_range():
    # tiny coefficient, huge pi power: finite, although 1/3**700 underflows
    x = Fraction(1, 3 ** 700)
    assert float(PiScalar(x, 700)) == _nearest_double(x, 700)
    assert math.isfinite(float(PiScalar(x, 700)))
    # huge coefficient, negative pi power: finite, although 10**400 overflows
    assert float(PiScalar(10 ** 400, -500)) == _nearest_double(Fraction(10 ** 400), -500)
    # the value itself is out of range: infinities and signed zeros
    assert float(PiScalar(10 ** 300, 20)) == math.inf
    assert float(PiScalar(-(10 ** 300), 20)) == -math.inf
    assert float(PiScalar(10 ** 400)) == math.inf
    # inside the range check's cut (log2 <= 1026), so int / int itself overflows
    assert float(PiScalar(2 ** 1025)) == math.inf
    assert float(PiScalar(-(2 ** 1025))) == -math.inf
    assert float(PiScalar(Fraction(1, 10 ** 300), -50)) == 0.0
    assert math.copysign(1.0, float(PiScalar(Fraction(-1, 10 ** 400), 2))) == -1.0
    # subnormal results round once, like int / int
    assert float(PiScalar(Fraction(1, 10 ** 320), 0)) == 1 / 10 ** 320
    assert float(PiScalar(0, 3)) == 0.0


def test_pi_bits_are_mpmaths():
    # floor(pi * 2**1152), from Machin's formula in integers at import
    assert exact_core._PI_FIXED == to_fixed(mpf_pi(1160), 1152)
    # past the stored bits, the same formula at the bits asked for
    for bits in (1153, 1500, 4000):
        assert exact_core._pi_fixed(bits) == to_fixed(mpf_pi(bits + 16), bits), bits
    assert exact_core._pi_fixed(100) == exact_core._PI_FIXED >> 1052


def test_pi_power_bounds_bracket_pi_powers():
    # against mpmath's pi**n at 500 digits (300 cannot resolve a 1200-bit
    # bracket); a prec above 1152 takes pi's bits from Machin's formula, and
    # every bracket is about prec bits wide
    with mpmath.workdps(500):
        for n in (1, 2, 64, 128, 617, 1236):
            for sign in (1, -1):
                want = mpmath.pi ** (sign * n)
                for prec in (64, 512, 1200):
                    (a, b), (c, d) = exact_core._pi_power_bounds(sign * n, prec)
                    lo, hi = mpmath.mpf(a) / b, mpmath.mpf(c) / d
                    assert lo < want < hi, (sign * n, prec)
                    assert (hi - lo) / want < mpmath.mpf(2) ** (2 - prec), (sign * n, prec)


def test_format_pi_scalar():
    assert format_pi_scalar(PiScalar(Fraction(1, 6), 2)) == "1/6 * pi^2"
    assert format_pi_scalar(PiScalar(Fraction(-3, 4), -2)) == "-3/4 * pi^-2"
    assert format_pi_scalar(PiScalar(Fraction(5), 0)) == "5"
    assert format_pi_scalar(PiScalar(0, 7)) == "0"


def test_collapse_pi_terms():
    assert collapse_pi_terms({2: Fraction(1, 2), 3: Fraction(0)}) == PiScalar(
        Fraction(1, 2), 2
    )
    assert collapse_pi_terms({}) == PiScalar(0, 0)
    mixed = collapse_pi_terms({2: Fraction(1, 2), 3: Fraction(1, 7)})
    assert mixed == [(Fraction(1, 2), 2), (Fraction(1, 7), 3)]


# ---------------------------------------------------------------- polynomials


def test_poly_normalization():
    assert Poly([Fraction(1), Fraction(0), Fraction(0)]).coeffs == (Fraction(1),)
    assert Poly([]).degree == -1
    assert Poly([]).is_zero
    assert Poly([Fraction(0)]).is_zero
    assert Poly([Fraction(0), Fraction(1)]).degree == 1


def test_poly_arithmetic_and_eval():
    p = Poly([Fraction(1), Fraction(2), Fraction(3)])
    q = Poly([Fraction(0), Fraction(1)])
    assert (p + q).coeffs == (Fraction(1), Fraction(3), Fraction(3))
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert poly_eval(p, Fraction(1, 2)) == Fraction(11, 4)
    assert poly_integral_01(p) == Fraction(3)
    assert poly_derivative(p).coeffs == (Fraction(2), Fraction(6))


def test_poly_reflect_is_substitution_at_one_minus_x():
    p = Poly([Fraction(2), Fraction(-1), Fraction(5, 3)])
    r = poly_reflect(p)
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(-7, 5)):
        assert poly_eval(r, x) == poly_eval(p, 1 - x)


@given(p=small_polys)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_reflect_is_an_involution(p):
    """Property: reflecting twice returns the original polynomial exactly."""
    assert poly_reflect(poly_reflect(p)) == p


@given(p=small_polys)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_derivative_integrates_back_on_unit_interval(p):
    """Property: integral of p' over [0,1] equals p(1) - p(0) exactly."""
    lhs = poly_integral_01(poly_derivative(p))
    rhs = poly_eval(p, Fraction(1)) - poly_eval(p, Fraction(0))
    assert lhs == rhs


@given(p=small_polys, q=small_polys, x=rationals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_product_rule_under_evaluation(p, q, x):
    """Property: (pq)(x) == p(x) q(x) with exact rational arithmetic."""
    assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)
