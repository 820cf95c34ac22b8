"""Exact rational/pi-scalar/polynomial layer.

Everything in this module is exact arithmetic, so the assertions are
equalities; no tolerances appear anywhere.
"""

import math
import sys
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
    # past the 4300 digits str() of an int converts by default: the digits,
    # read back 500 at a time, give the value, the zeros across the splits
    # at powers of ten included
    def read(digits):
        value = 0
        for i in range(0, len(digits), 500):
            value = value * 10 ** len(digits[i:i + 500]) + int(digits[i:i + 500])
        return value

    big = Fraction(-(10**5000 + 7), 3**9100)
    num, den = format_rational(big).split("/")
    assert (num[:2], len(num), len(den)) == ("-1", 5002, 4342)
    assert Fraction(-read(num[1:]), read(den)) == big


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
    # lie so close to a rounding boundary that the bracket at 64 bits, the
    # first, leaves both neighbouring doubles possible (checked, so the cases
    # cannot go stale as the brackets tighten); the retry decides, for the
    # first two the upper neighbour and for the last the lower
    for coeff, pi_power in [
        (Fraction(157869, 113537), 7),
        (Fraction(299067, 628748), 3),
        (Fraction(452950, 289731), 8),
    ]:
        (a, b), (c, d) = exact_core._pi_power_bounds(pi_power, 64)
        num, den = coeff.numerator, coeff.denominator
        assert num * a / (den * b) != num * c / (den * d), coeff
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


def _synthetic_bracket(value, calls):
    """bracket(prec) for _ziv_float: the rational value at prec significant
    bits, exact where it can be, else its floor and ceiling each moved out
    by one unit, so the value lies strictly inside; each prec asked for is
    kept in calls."""

    def bracket(prec):
        calls.append(prec)
        shift = prec - (value.numerator.bit_length() - value.denominator.bit_length())
        scaled = value * Fraction(2) ** shift
        ends = (math.floor(scaled), math.ceil(scaled))
        if ends[0] != ends[1]:
            ends = (ends[0] - 1, ends[1] + 1)
        if shift >= 0:
            return tuple((end, 1 << shift) for end in ends)
        return tuple((end << -shift, 1) for end in ends)

    return bracket


def _ziv(value):
    calls = []
    log2 = value.numerator.bit_length() - value.denominator.bit_length()
    return exact_core._ziv_float(_synthetic_bracket(value, calls), log2), calls


def test_ziv_float_on_synthetic_brackets():
    # around a midpoint m between two doubles: m itself, an exact bracket,
    # rounds to the even neighbour at once; a value 2**-60 relative beside
    # m, a few units at 64 bits, rounds at once to its side; one 2**-200
    # beside m straddles it until prec 256, and only its side is right.
    # Both ends of the double range too: the overflow threshold
    # 2**1024 (1 - 2**-54), above which the value rounds to inf, and half
    # the least subnormal, 2**-1075, above which it rounds to 5e-324
    for mid, below, above, even in [
        (1 + Fraction(1, 2**53), 1.0, 1.0 + 2**-52, 1.0),
        (1 + Fraction(3, 2**53), 1.0 + 2**-52, 1.0 + 2**-51, 1.0 + 2**-51),
        (Fraction(2**1024 - 2**970), sys.float_info.max, math.inf, math.inf),
        (Fraction(1, 2**1075), 0.0, 5e-324, 0.0),
    ]:
        assert _ziv(mid) == (even, [64]), mid
        for offset, calls in ((Fraction(1, 2**60), [64]), (Fraction(1, 2**200), [64, 128, 256])):
            assert _ziv(mid * (1 + offset)) == (above, calls), (mid, offset)
            assert _ziv(mid * (1 - offset)) == (below, calls), (mid, offset)


def test_ziv_float_screens_the_double_range():
    # past either cut of log2 no bracket is formed; at a cut, the bracket
    # decides, by int / int's own overflow and underflow
    def unused(prec):
        raise AssertionError("bracket formed at prec %d" % prec)

    assert exact_core._ziv_float(unused, 1026.001) == math.inf
    assert exact_core._ziv_float(unused, -1077.001) == 0.0
    assert _ziv(Fraction(2**1026)) == (math.inf, [64])
    assert _ziv(Fraction(1, 2**1077)) == (0.0, [64])


def test_pi_scalar_float_screens_before_any_bracket(monkeypatch):
    # a bracket of pi**(10**9) holds integers of about 1.7e9 bits: the screen
    # answers first
    def no_bracket(n, prec):
        raise AssertionError("bracket of pi**%d formed" % n)

    monkeypatch.setattr(exact_core, "_pi_power_bounds", no_bracket)
    assert float(PiScalar(1, 10**9)) == math.inf
    assert float(PiScalar(-1, 10**9)) == -math.inf
    assert float(PiScalar(Fraction(1, 3), -(10**9))) == 0.0


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


def test_pi_power_brackets_grown_along_chains():
    # the same bound after the brackets grow from one another: n = 1..1236
    # one at a time (each grown from the last but the first of each bit
    # length), then down and negative, at three precisions; the first
    # brackets asked for are cold, as the cache and the kept ones are
    # cleared.  A grown end also lies outside the kept one times pi's floor
    # or ceiling at F bits to the power of the gap: each of its cuts points
    # outward, which containment alone, with the margin a chain builds up,
    # does not show
    exact_core._pi_power_bounds.cache_clear()
    exact_core._LAST_PI_POWER.clear()
    grown = 0
    with mpmath.workdps(500):
        powers = {n: mpmath.pi ** n for n in range(-1236, 1237)}
        for prec in (64, 512, 1200):
            chain = [*range(1, 1237), *range(1236, 0, -97), *range(-1, -1237, -1), *range(-1236, 0, 89)]
            for n in chain:
                last = exact_core._LAST_PI_POWER.get(prec)
                (a, b), (c, d) = exact_core._pi_power_bounds(n, prec)
                lo, hi = mpmath.mpf(a) / b, mpmath.mpf(c) / d
                assert lo < powers[n] < hi, (n, prec)
                assert (hi - lo) / powers[n] < mpmath.mpf(2) ** (2 - prec), (n, prec)
                m, low, high = exact_core._LAST_PI_POWER[prec]
                if last is not None and last[0] < m and last[0].bit_length() == m.bit_length():
                    grown += 1
                    gap, bits = m - last[0], prec + m.bit_length() + 6
                    pi = exact_core._pi_fixed(bits)
                    for (man, exp), (man0, exp0), base, sign in ((low, last[1], pi, 1), (high, last[2], pi + 1, -1)):
                        # sign * (man0 2**exp0 base**gap 2**(-bits gap) - man 2**exp) >= 0
                        low_exp = min(exp, exp0 - bits * gap)
                        kept = man0 * base**gap << (exp0 - bits * gap - low_exp)
                        assert sign * (kept - (man << (exp - low_exp))) >= 0, (n, prec)
    assert sorted(exact_core._LAST_PI_POWER) == [64, 512, 1200]
    assert grown > 3 * 2 * 1200


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
