"""Brute-force series oracles with certified error bounds.

The central contract tested here: |value - truth| <= error_bound, with
truth supplied by mpmath (zeta, Dirichlet L-series) or by exact closed
forms, never by the code under test.
"""

import dataclasses
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from telesum.oracles import _BLOCK, _TWO_PI, _certified_sum, _exact_sum, _fixed_block

from hurwitz_truth import z_truth, ztilde_truth


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


def _sinpi_np_mod(y):
    # sinpi reduced with np.mod: the reference for the bits
    r = np.mod(y, 2.0)
    s = np.where(r > 1.0, -1.0, 1.0)
    r = np.where(r > 1.0, r - 1.0, r)
    r = np.where(r > 0.5, 1.0 - r, r)
    return s * np.sin(np.pi * r)


def _cospi_np_mod(y):
    r = np.mod(y, 2.0)
    r = np.where(r > 1.0, 2.0 - r, r)
    s = np.where(r > 0.5, -1.0, 1.0)
    r = np.where(r > 0.5, 1.0 - r, r)
    return s * np.sin(np.pi * (0.5 - r))


def test_sinpi_cospi_match_the_np_mod_reduction_bit_for_bit():
    rng = np.random.default_rng(7)
    edges = [-0.0, 0.0, -1e-300, 1e-300, 2.0**53, -(2.0**53), 2.0**52 + 1.0,
             -(2.0**52 + 1.0), 1e300, -1e300, 2.0**-1074, np.nextafter(2.0, 0.0),
             -np.nextafter(2.0, 0.0), 0.5, -0.5, 1.0, -1.0, 1.5, -1.5]
    ys = np.concatenate([
        edges,
        rng.standard_normal(20000) * rng.choice([1e-300, 1e-8, 1.0, 1e6, 1e17], 20000),
        rng.integers(-4000, 4000, 2000) / 8.0,
    ])
    for fast, reference in ((sinpi, _sinpi_np_mod), (cospi, _cospi_np_mod)):
        got, want = fast(ys), reference(ys)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), fast.__name__
        for y in edges:
            assert math.copysign(1.0, fast(y)) == math.copysign(1.0, float(reference(y)))
    # the one input whose bits differ: -2**-1074 halves to -0.0, so it is not
    # moved to 2 - 2**-1074 = 2.0 and sinpi keeps its tiny, correct value
    y = -(2.0**-1074)
    assert _sinpi_np_mod(y) == 0.0
    assert sinpi(y) == float(mpmath.sinpi(y)) == -3 * 2.0**-1074
    assert cospi(y) == _cospi_np_mod(y) == 1.0


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


def test_sum_Ztilde_signs_of_both_halves_against_mpmath():
    # odd and even p = k + 1, mu of both signs: the m < 0 terms take their
    # sign from the base, so a wrong sign moves the sum far past the bound
    for k in (1, 2, 3, 4, 7, 10):
        for mu in (-7.0, -2.5, -0.4, 0.4, 2.5, 7.0):
            r = sum_Ztilde(k, mu, N=1000)
            with mpmath.workdps(40):
                want = float(ztilde_truth(k, mu))
            assert abs(r.value - want) <= r.error_bound <= 1e-6 * abs(want) + 1e-12, (k, mu)


def test_sum_Z_bound_is_honest_at_odd_k():
    # at odd k each pair is the difference (base - mu)**-p - (base + mu)**-p,
    # which cancels when formed directly
    for k in (1, 3, 5, 9, 21):
        for mu in (-1e-12, 1e-10, -1e-6, 1e-3, -0.5, 2.0, 3.1):
            with mpmath.workdps(60):
                want = z_truth(k, mu)
            for N in (10, 10**3, 10**4):
                r = sum_Z(k, mu, N=N)
                with mpmath.workdps(60):
                    err = abs(mpmath.mpf(r.value) - want)
                assert err <= r.error_bound, (k, mu, N, float(err), r.error_bound)


def test_sum_Z_odd_k_pairs_are_accurate_and_tight():
    # the pairs are formed without cancellation, so the value is good to
    # about an ulp against Hurwitz truth and the bound is a small multiple
    # of eps, where the cancelling pairs lost up to 2.4e-6 relative
    for k in (1, 3, 5, 11, 21, 39):
        for mu in (1e-12, -1e-10, 1e-6, 1e-3, 0.3, -1.7, 3.1):
            with mpmath.workdps(80):
                want = z_truth(k, mu)
            for N in (3, 100, 10**4):
                r = sum_Z(k, mu, N=N)
                with mpmath.workdps(80):
                    err = abs(mpmath.mpf(r.value) - want)
                    rel_err = float(err / abs(want))
                assert err <= r.error_bound, (k, mu, N, rel_err, r.error_bound)
            assert rel_err <= 1e-14, (k, mu, rel_err)
            assert r.error_bound <= 1e-13 * abs(want), (k, mu, r.error_bound)
    # sums below the normal range: the bound keeps an absolute floor
    for k, mu in ((1, 1e-300), (1, -1e-310), (3, -1e-315), (1, 5e-324)):
        r = sum_Z(k, mu, N=100)
        with mpmath.workdps(80):
            err = abs(mpmath.mpf(r.value) - z_truth(k, mu))
        assert err <= r.error_bound <= 1e-6 * abs(mu) + 1e-320, (k, mu, r.error_bound)


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


def test_windows_must_hold_the_nearest_pole():
    # the pole sits 1e-6 before lattice point 11: a window that stops at 10
    # would leave the dominant term to the tail estimate
    mu = _TWO_PI * 11 - 1e-6
    theta = 11 - 1e-6
    with pytest.raises(ValueError, match="N too small"):
        sum_Ztilde(3, mu, N=10)
    with pytest.raises(ValueError, match="N too small"):
        sum_inverse_square(theta, N=10)
    with pytest.raises(ValueError, match="N too small"):
        sum_cotangent(theta, N=10)
    with mpmath.workdps(40):
        # Hurwitz halves m >= 1 and m <= 0, b = mu / (2 pi) reduced into (0, 1)
        b = mpmath.mpf(mu) / (2 * mpmath.pi)
        b -= mpmath.floor(b)
        ztilde = (mpmath.zeta(4, 1 - b) + mpmath.zeta(4, b)) / (2 * mpmath.pi) ** 4
        sine = mpmath.sinpi(mpmath.mpf(theta))
        truths = (
            (sum_Ztilde(3, mu, N=11), float(ztilde)),
            (sum_inverse_square(theta, N=11), float(mpmath.pi**2 / sine**2)),
            (sum_cotangent(theta, N=11), float(mpmath.pi * mpmath.cospi(theta) / sine)),
        )
    for r, want in truths:
        assert abs(r.value - want) <= r.error_bound <= 1e-3 * abs(want), (r, want)


def test_kernel_sum_is_exactly_rounded_across_chunks():
    # rounding each block first would lose both 2**-53: block 1 rounds to 1.0
    # and 1.0 + 2**-53 rounds to 1.0 again
    terms = np.zeros(_BLOCK + 10)
    terms[:2] = (1.0, 2.0**-53)
    terms[_BLOCK] = 2.0**-53
    r = _certified_sum(terms, (), 0.0, terms.size)
    assert r.value == 1.0 + 2.0**-52
    assert _certified_sum(terms[::-1], (), 0.0, terms.size).value == r.value


def _fraction_sum(xs):
    # independent exact reference: rational sum, rounded once by Fraction
    return float(sum(map(Fraction, xs.tolist())))


def _reference_sum(xs):
    # math.fsum is exactly rounded too, independent of the kernel, and sums
    # the arrays of several blocks in milliseconds where Fraction takes seconds
    return math.fsum(xs.tolist()) if xs.size > 1000 else _fraction_sum(xs)


def test_kernel_matches_exact_rational_sum():
    rng = np.random.default_rng(20031)
    # every kind at a few short lengths and at one length about a block boundary
    long = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
    for kind, n in itertools.product(range(4), (1, 2, 7, 1000, None)):
        n = n or long[kind]
        if kind == 0:  # exponents over the whole range, subnormal to 2**1000
            xs = np.ldexp(rng.standard_normal(n), rng.integers(-1074, 1000, n))
        elif kind == 1:  # subnormals and the least normals
            xs = np.ldexp(rng.standard_normal(n), rng.integers(-1080, -1015, n))
        elif kind == 2:  # heavy cancellation: pairs up to 2**1000 that cancel
            # exactly, and one or two tiny survivors
            pairs = (n - 1) // 2
            big = np.ldexp(rng.standard_normal(pairs), rng.integers(-30, 1000, pairs))
            tiny = rng.choice([2.0**-1074, -3e-300, 1e-20], n - 2 * big.size)
            xs = np.concatenate([big, -big, tiny])
        else:  # signed zeros among a few ones and tiny values
            xs = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0**-60, -(2.0**-1074)], n)
        rng.shuffle(xs)
        value, magnitude = _exact_sum(xs)
        want = _reference_sum(xs)
        assert value == want, (n, kind)
        assert math.copysign(1.0, value) == math.copysign(1.0, math.fsum(xs.tolist()))
        assert magnitude == _reference_sum(np.abs(xs)), (n, kind)
    # one exponent bin for more than a block (every lane slot of it used
    # across block boundaries), and a monotone run whose bins change slowly
    below_one = np.full(3 * _BLOCK + 5, np.nextafter(1.0, 0.0))
    monotone = 1.0 / np.arange(1.0, 2 * _BLOCK + 40) ** 2
    for xs in (below_one, -below_one, monotone, -monotone[::-1]):
        value, magnitude = _exact_sum(xs)
        assert value == _reference_sum(xs), xs[:2]
        assert magnitude == _reference_sum(np.abs(xs)), xs[:2]
    for zeros in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0]):
        for n in (1, 1000):
            got = _exact_sum(np.array(zeros * n))[0]
            assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, math.fsum(zeros))
    # past the double range, the sum of magnitudes included, and on a
    # non-finite term, short and long
    for pad in ([], [0.0] * 1000):
        for big in ([1.7e308, 1.7e308], [1e308, 1e308, -1e308]):
            with pytest.raises(OverflowError):
                _exact_sum(np.array(big + pad))
        for bad in ([1.0, math.inf], [-math.inf, 1.0], [math.nan], [math.inf, -math.inf]):
            with pytest.raises(ValueError):
                _exact_sum(np.array(bad + pad))


def _is_narrow(block):
    return _fixed_block(block, np.empty((2, block.size))) is not None


def _assert_exact(xs, label):
    # math.fsum is exactly rounded too, and quicker than Fraction on full blocks
    value, magnitude = _exact_sum(xs)
    assert value == math.fsum(xs.tolist()), label
    assert magnitude == math.fsum(np.abs(xs).tolist()), label


def test_kernel_fixed_point_blocks_are_exact_at_their_limits():
    rng = np.random.default_rng(2008)
    # a full block of full-width significands just below 2**e: the high
    # slices sum to just under 2**53, so one bit more per slice would round
    for e in (1, 300, -900):
        top = np.ldexp(1.0 - rng.random(_BLOCK) * 2.0**-20, e)
        for xs in (top, -top):
            assert _is_narrow(xs)
            _assert_exact(xs, e)
    # the least term exactly 21 binades below the top, its lowest bit set, is
    # the widest narrow block; at 22 binades the bit falls below both slices.
    # Cancelling tops leave the least term as the sum, and a tie at 2**e
    # between the two nearest doubles is broken by that one bit.
    for e in (0, 50, -950):
        for span, narrow in ((21, True), (22, False)):
            least = math.ldexp(0.5 + 2.0**-53, e - span)
            cancel = np.array([0.75, -0.75, least / 2.0**e]) * 2.0**e
            tie = np.array([0.5 + 2.0**-53, 0.5, least / 2.0**e]) * 2.0**e
            for xs in (cancel, tie, -tie):
                assert _is_narrow(xs) == narrow, (e, span)
                _assert_exact(xs, (e, span))
    # a mixed-sign narrow block with zeros of both signs
    xs = np.ldexp(rng.uniform(0.5, 1.0, _BLOCK), rng.integers(-20, 1, _BLOCK))
    xs *= rng.choice([-1.0, 1.0], _BLOCK)
    xs[rng.random(_BLOCK) < 0.1] = rng.choice([0.0, -0.0])
    assert _is_narrow(xs)
    _assert_exact(xs, "mixed")
    # the scale 2**(37 - e) leaves the normal range below e = -986, so the
    # block goes to the bins there; at the top the slices take terms near
    # 2**1024, whose sums may still overflow or cancel
    for e, narrow in ((-986, True), (-987, False), (-1000, False)):
        xs = np.ldexp(rng.uniform(0.5, 1.0, 1000), e - rng.integers(0, 21, 1000))
        assert _is_narrow(xs) == narrow, e
        _assert_exact(xs, e)
    huge = np.array([8e307, -8e307, 1e303, 1.7e308, 9e307])
    assert _is_narrow(huge)
    _assert_exact(huge[:3], "cancel")
    with pytest.raises(OverflowError):
        _exact_sum(huge)
    # a wide block next to a narrow one: 1 + 2**-53 from the first is a tie
    # that rounds to 1, and the narrow 2**-53 of the second lifts it to the
    # next double above 1 in the one rounding both paths meet in
    xs = np.zeros(2 * _BLOCK)
    xs[:3] = (1.0, 2.0**-53, 2.0**-80)
    xs[_BLOCK : _BLOCK + 2] = (2.0**-53, 2.0**-54)
    assert not _is_narrow(xs[:_BLOCK]) and _is_narrow(xs[_BLOCK:])
    _assert_exact(xs, "wide then narrow")
    _assert_exact(xs[::-1], "narrow then wide")


def _kernel_outcome(xs):
    # (value, magnitude), or OverflowError when either is past the double range
    try:
        return _exact_sum(xs)
    except OverflowError:
        return OverflowError


def _fraction_outcome(xs):
    try:
        return _fraction_sum(xs), _fraction_sum(np.abs(xs))
    except OverflowError:
        return OverflowError


@st.composite
def _narrow_windows(draw):
    # full-width significands at most 24 binades below a random top, so that
    # lists fall on both sides of the span rule, with signed zeros among them
    top = draw(st.integers(-1050, 1023))
    term = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.builds(lambda m, d: math.ldexp(m, top - d - 53),
                  st.integers(-(2**53) + 1, 2**53 - 1), st.integers(0, 24)),
    )
    return draw(st.lists(term, max_size=40))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_narrow_windows(), st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40)))
def test_kernel_matches_fraction_sum_on_drawn_terms(terms):
    xs = np.array(terms, dtype=np.float64)
    assert _kernel_outcome(xs) == _fraction_outcome(xs)


def test_kernel_non_finite_terms_are_unreachable():
    finite = np.linspace(-1.0, 1.0, 101)
    cases = (
        np.append(finite, np.inf),
        np.concatenate([finite, [np.inf, -np.inf]]),
        np.append(finite, np.nan),
        np.array([1.7e308, 1.7e308]),  # finite terms whose exact sum overflows
    )
    for terms in cases:
        with pytest.raises(ToleranceUnreachable) as exc:
            _certified_sum(terms, (), 0.0, terms.size)
        assert exc.value.achieved == math.inf


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


def test_hurwitz_factorial_past_the_double_range():
    # (2k)! and (2k+1)! pass 170! here while the polynomial values stay in
    # range; the leading constant is rounded once, so each value lies within
    # a few ulps of the truth
    with mpmath.workdps(40):
        cases = (
            ("B_even", 90, 0.3, mpmath.bernpoly(180, 0.3)),
            ("B_odd", 85, 0.8, mpmath.bernpoly(171, 0.8)),
            ("E_even", 86, 0.7, mpmath.eulerpoly(172, 0.7)),
            ("E_odd", 86, 0.3, mpmath.eulerpoly(171, 0.3)),
        )
    for kind, k, x, want in cases:
        got = hurwitz_partial(kind, k, x, M=100)
        assert got == pytest.approx(float(want), rel=1e-15), (kind, k, x)
    assert abs(float(cases[0][3])) > 1e185
    # B_300 is beyond the double range: a typed error, never inf
    with pytest.raises(ToleranceUnreachable):
        hurwitz_partial("B_even", 150, 0.3, M=100)


def test_hurwitz_rejects_unknown_kind():
    with pytest.raises(ValueError):
        hurwitz_partial("B_sideways", 1, 0.0, M=100)
