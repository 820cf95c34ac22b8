"""Brute-force series oracles with certified error bounds.

The central contract tested here: |value - truth| <= error_bound, with
truth supplied by mpmath (zeta, Dirichlet L-series) or by exact closed
forms, never by the code under test.
"""

import dataclasses
import itertools
import math
import sys
import tracemalloc

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

from telesum import oracles
from telesum.oracles import _BLOCK, _SLICE, _TWO_PI, _certified_sum, _exact_sum, _fixed_block

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


def _halving_mod2(y):
    return y - 2.0 * np.floor(0.5 * y)


def _sinpi_np_mod(y, mod2=lambda y: np.mod(y, 2.0)):
    # sinpi reduced with np.mod and folded with np.where: the reference for
    # the bits; with mod2=_halving_mod2 it is the former sinpi itself
    r = mod2(np.asarray(y, dtype=np.float64))
    s = np.where(r > 1.0, -1.0, 1.0)
    r = np.where(r > 1.0, r - 1.0, r)
    r = np.where(r > 0.5, 1.0 - r, r)
    return s * np.sin(np.pi * r)


def _cospi_np_mod(y, mod2=lambda y: np.mod(y, 2.0)):
    r = mod2(np.asarray(y, dtype=np.float64))
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


def test_sinpi_cospi_folds_keep_the_bits_of_the_where_folds():
    rng = np.random.default_rng(11)
    tiny = 2.0**-1074
    special = [0.0, tiny, 3 * tiny, 2.0**-1022 - tiny, 2.0**-1022, 1e-300, 0.25, 0.5, 0.75,
               1.0, 1.5, 2.0, 2.5, 3.0, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
               np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.nextafter(2.0, 0.0),
               2.0**52 - 0.5, 2.0**52, 2.0**52 + 1.0, 2.0**53, 2.0**60 + 2.0**8, 1e300,
               sys.float_info.max]
    special += [-y for y in special]
    ys = np.concatenate([
        special,
        rng.integers(-10**6, 10**6, 3000) / 2.0,  # integers and half-integers
        rng.standard_normal(3000) * rng.choice([1e-310, 1e-5, 1.0, 1e9, 2.0**52, 1e20], 3000),
        rng.uniform(-4.0, 4.0, 3000),
    ])
    # the np.where folds that sinpi and cospi used before their np.minimum
    # folds, arrays and scalars alike
    for fold, reference in ((sinpi, _sinpi_np_mod), (cospi, _cospi_np_mod)):
        got, want = fold(ys), reference(ys, _halving_mod2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), fold.__name__
        for y in ys[: len(special)].tolist() + ys[-50:].tolist():
            scalar = fold(y)
            assert type(scalar) is float
            assert scalar.hex() == float(reference(y, _halving_mod2)).hex(), (fold.__name__, y)
        assert fold(np.float64(2.5)) == reference(2.5, _halving_mod2)


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


def _certified_array_sum(terms):
    # _certified_sum over the terms of an existing array, with no tail
    def fill(start, block):
        block[:] = terms[start : start + block.size]

    return _certified_sum(terms.size, fill, (), 0.0, terms.size)


def test_kernel_sum_is_exactly_rounded_across_chunks():
    # rounding each block first would lose both 2**-53: block 1 rounds to 1.0
    # and 1.0 + 2**-53 rounds to 1.0 again
    terms = np.zeros(_BLOCK + 10)
    terms[:2] = (1.0, 2.0**-53)
    terms[_BLOCK] = 2.0**-53
    r = _certified_array_sum(terms)
    assert r.value == 1.0 + 2.0**-52
    assert _certified_array_sum(terms[::-1]).value == r.value


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
    # slices sum to just under 2**_SLICE * _BLOCK, within the 2**53 below
    # which every integer partial sum is exact
    for e in (1, 300, -900):
        top = np.ldexp(1.0 - rng.random(_BLOCK) * 2.0**-20, e)
        for xs in (top, -top):
            assert _is_narrow(xs)
            _assert_exact(xs, e)
    # the least term exactly 2 * _SLICE - 53 binades below the top, its lowest
    # bit set, is the widest narrow block; one binade further the bit falls
    # below both slices.  Cancelling tops leave the least term as the sum, and
    # a tie at 2**e between the two nearest doubles is broken by that one bit.
    widest = 2 * _SLICE - 53
    for e in (0, 50, -950):
        for span, narrow in ((widest, True), (widest + 1, False)):
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
    # the scale 2**(_SLICE - e) leaves the normal range below
    # e = _SLICE - 1023, so the block goes to the bins there; at the top the
    # slices take terms near 2**1024, whose sums may still overflow or cancel
    lowest = _SLICE - 1023
    for e, narrow in ((lowest, True), (lowest - 1, False), (-1000, False)):
        xs = np.ldexp(rng.uniform(0.5, 1.0, 1000), e - rng.integers(0, widest, 1000))
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
            _certified_array_sum(terms)
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


def test_oracle_rejections_name_their_rule():
    rejections = (
        (lambda: hurwitz_partial("B_even", 1, 1.5), "x must lie in [0, 1]"),
        (lambda: hurwitz_partial("E_odd", 1, math.nan), "x must lie in [0, 1]"),
        (lambda: sum_Ztilde(1, math.nan), "mu must be finite"),
        (lambda: sum_Ztilde(0, -math.inf), "mu must be finite"),
        (lambda: sum_inverse_square(math.inf), "theta must be finite"),
        (lambda: sum_cotangent(math.nan), "theta must be finite"),
        (lambda: herglotz_residual(math.nan), "theta must be finite"),
        (lambda: herglotz_limit(-math.inf), "theta must be finite"),
    )
    for call, message in rejections:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_tolerance_loop_doubles_n_until_certified_and_stops_at_the_cap(monkeypatch):
    counts = []
    certified = oracles._certified_sum

    def recording(count, *args, **kwargs):
        counts.append(count)
        return certified(count, *args, **kwargs)

    monkeypatch.setattr(oracles, "_certified_sum", recording)
    # the start N = 32183 falls short of 1e-14; N doubled once certifies it
    r = sum_zeta(2, 1e-14)
    assert counts == [32182, 64365]
    assert r.terms_used == 64365 and r.error_bound <= 1e-14
    monkeypatch.undo()
    # at the cap the roundoff floor of 2e7 terms is above 5e-15
    for oracle, s, cap, achieved in ((sum_zeta, 2, "N cap", "7.305e-15"),
                                     (sum_beta, 1, "term cap", "3.436e-14")):
        with pytest.raises(ToleranceUnreachable) as exc:
            oracle(s, 5e-15)
        assert str(exc.value) == (
            "tolerance 5.000e-15 unreachable at the %s 20000000 (achieved %s)" % (cap, achieved))
        assert "%.3e" % exc.value.achieved == achieved


# ------------------------------------------------------------ streamed terms

# the near-pole terms m = -34465..-34463 of this window are terms
# 65535..65537, across a block edge
_EDGE_MU = _TWO_PI * (65536 - 100000) + 0.3

# Every streamed oracle's result as float.hex (value, error_bound) and
# terms_used, recorded from the oracles that built whole term arrays, at
# lengths about the first two block edges and at 10**6
_PINNED = [
    ('sum_zeta', (2, 1e-06), ('0x1.a51a5dfe50153p+0', '0x1.100ce56e0dd24p-21', 69)),
    ('sum_zeta', (2, 1e-12), ('0x1.a51a66252ff08p+0', '0x1.1da97335f160fp-41', 6933)),
    ('sum_zeta', (5, 1e-06), ('0x1.097411fb67580p+0', '0x1.65e9f838a343ep-21', 9)),
    ('sum_zeta', (5, 1e-12), ('0x1.097418eca7487p+0', '0x1.1b9822f447d90p-41', 97)),
    ('sum_beta', (1, 1e-06), ('0x1.921fb53bec78fp-1', '0x1.07257febfb2c8p-21', 504)),
    ('sum_beta', (1, 1e-12), ('0x1.921fb54442d19p-1', '0x1.28f2ab7e565fcp-41', 500004)),
    ('sum_beta', (3, 1e-06), ('0x1.f019b5237b8f8p-1', '0x1.7b43ceb2bb0cep-23', 26)),
    ('sum_beta', (3, 1e-12), ('0x1.f019b59389d70p-1', '0x1.13bac8b310e48p-41', 662)),
    ('sum_Z', (0, 0.7, 1), ('0x1.155e284008538p-1', '0x1.5f76844954cf8p-6', 2)),
    ('sum_Z', (0, 0.7, 2), ('0x1.0f0fc6b633e06p-1', '0x1.2b54a61d8ceebp-7', 4)),
    ('sum_Z', (0, 0.7, 32767), ('0x1.1085b498e8f40p-1', '0x1.46036fd40ecd5p-34', 65534)),
    ('sum_Z', (0, 0.7, 32768), ('0x1.1085b498e8f17p-1', '0x1.45fe5819cab4bp-34', 65536)),
    ('sum_Z', (0, 0.7, 32769), ('0x1.1085b498e8f40p-1', '0x1.45f9407e0e96fp-34', 65538)),
    ('sum_Z', (0, 0.7, 65535), ('0x1.1085b498e8f2ep-1', '0x1.46383271ef038p-36', 131070)),
    ('sum_Z', (0, 0.7, 65536), ('0x1.1085b498e8f29p-1', '0x1.4635a694d6d0ep-36', 131072)),
    ('sum_Z', (0, 0.7, 65537), ('0x1.1085b498e8f2dp-1', '0x1.46331abf4e993p-36', 131074)),
    ('sum_Z', (0, 0.7, 1000000), ('0x1.1085b498e8f2bp-1', '0x1.b96f0ae676bebp-44', 2000000)),
    ('sum_Z', (1, 1.3, 1), ('0x1.ead684bd4deacp-3', '0x1.4ddeaa4800cfcp-10', 2)),
    ('sum_Z', (1, 1.3, 2), ('0x1.e8ac87bdbebcbp-3', '0x1.c70154034e9eap-13', 4)),
    ('sum_Z', (1, 1.3, 32767), ('0x1.e8ec99dabf9a2p-3', '0x1.811da3078bd51p-50', 65534)),
    ('sum_Z', (1, 1.3, 32768), ('0x1.e8ec99dabf9a2p-3', '0x1.811da2ff7f328p-50', 65536)),
    ('sum_Z', (1, 1.3, 32769), ('0x1.e8ec99dabf9a2p-3', '0x1.811da2f772e07p-50', 65538)),
    ('sum_Z', (1, 1.3, 65535), ('0x1.e8ec99dabf9a2p-3', '0x1.811cb187d5810p-50', 131070)),
    ('sum_Z', (1, 1.3, 65536), ('0x1.e8ec99dabf9a2p-3', '0x1.811cb187951b5p-50', 131072)),
    ('sum_Z', (1, 1.3, 65537), ('0x1.e8ec99dabf9a2p-3', '0x1.811cb18754b6fp-50', 131074)),
    ('sum_Z', (1, 1.3, 1000000), ('0x1.e8ec99dabf9a2p-3', '0x1.811ca16e5ef4ap-50', 2000000)),
    ('sum_Z', (2, -2.9, 1), ('0x1.1bac61f53d703p+6', '0x1.cb25262002fa5p-11', 2)),
    ('sum_Z', (2, -2.9, 2), ('0x1.1bab98149c28dp+6', '0x1.bb1f1c8955a57p-14', 4)),
    ('sum_Z', (2, -2.9, 32767), ('0x1.1baba8c069ec4p+6', '0x1.f07a0be8842dep-42', 65534)),
    ('sum_Z', (2, -2.9, 32768), ('0x1.1baba8c069ec4p+6', '0x1.f07a0be881155p-42', 65536)),
    ('sum_Z', (2, -2.9, 32769), ('0x1.1baba8c069ec4p+6', '0x1.f07a0be87dfcep-42', 65538)),
    ('sum_Z', (2, -2.9, 65535), ('0x1.1baba8c069ec4p+6', '0x1.f07a0b8ba1d71p-42', 131070)),
    ('sum_Z', (2, -2.9, 65536), ('0x1.1baba8c069ec4p+6', '0x1.f07a0b8ba1be4p-42', 131072)),
    ('sum_Z', (2, -2.9, 65537), ('0x1.1baba8c069ec4p+6', '0x1.f07a0b8ba1a58p-42', 131074)),
    ('sum_Z', (2, -2.9, 1000000), ('0x1.1baba8c069ec4p+6', '0x1.f07a0b8570aa9p-42', 2000000)),
    ('sum_Z', (3, -0.4, 1), ('-0x1.72b0b298e6a16p-7', '0x1.50166238daa51p-17', 2)),
    ('sum_Z', (3, -0.4, 2), ('-0x1.726268bac6079p-7', '0x1.6eee9b6738256p-21', 4)),
    ('sum_Z', (3, -0.4, 32767), ('-0x1.7266a181ced82p-7', '0x1.74ee7af697358p-54', 65534)),
    ('sum_Z', (3, -0.4, 32768), ('-0x1.7266a181ced82p-7', '0x1.74ee7af697358p-54', 65536)),
    ('sum_Z', (3, -0.4, 32769), ('-0x1.7266a181ced82p-7', '0x1.74ee7af697358p-54', 65538)),
    ('sum_Z', (3, -0.4, 65535), ('-0x1.7266a181ced82p-7', '0x1.74ee7af69733dp-54', 131070)),
    ('sum_Z', (3, -0.4, 65536), ('-0x1.7266a181ced82p-7', '0x1.74ee7af69733dp-54', 131072)),
    ('sum_Z', (3, -0.4, 65537), ('-0x1.7266a181ced82p-7', '0x1.74ee7af69733dp-54', 131074)),
    ('sum_Z', (3, -0.4, 1000000), ('-0x1.7266a181ced82p-7', '0x1.74ee7af69733dp-54', 2000000)),
    ('sum_Ztilde', (0, 0.7, 1), ('-0x1.5ed6ef5cef1e9p+0', '0x1.e8698387d4572p-10', 3)),
    ('sum_Ztilde', (0, 0.7, 2), ('-0x1.5eb66be90c77ap+0', '0x1.ccc4663d27588p-12', 5)),
    ('sum_Ztilde', (0, 0.7, 32767), ('-0x1.5ea8559d212d7p+0', '0x1.e08a800d8111ap-48', 65535)),
    ('sum_Ztilde', (0, 0.7, 32768), ('-0x1.5ea8559d212d8p+0', '0x1.e08a376bda156p-48', 65537)),
    ('sum_Ztilde', (0, 0.7, 32769), ('-0x1.5ea8559d212d8p+0', '0x1.e089eecc77dbap-48', 65539)),
    ('sum_Ztilde', (0, 0.7, 65535), ('-0x1.5ea8559d212d7p+0', '0x1.d5f2d34889f02p-48', 131071)),
    ('sum_Ztilde', (0, 0.7, 65536), ('-0x1.5ea8559d212d7p+0', '0x1.d5f2cebe7886ap-48', 131073)),
    ('sum_Ztilde', (0, 0.7, 65537), ('-0x1.5ea8559d212d7p+0', '0x1.d5f2ca34794f6p-48', 131075)),
    ('sum_Ztilde', (0, 0.7, 1000000), ('-0x1.5ea8559d212d7p+0', '0x1.d46f928ed1c50p-48', 2000001)),
    ('sum_Ztilde', (0, -5.9, 1), ('-0x1.48bb5bc016270p+1', '0x1.0152320d55ab9p-5', 3)),
    ('sum_Ztilde', (0, -5.9, 2), ('-0x1.49a98c17f818dp+1', '0x1.3ebd993bd4642p-8', 5)),
    ('sum_Ztilde', (0, -5.9, 32767), ('-0x1.49f1d7146946ap+1', '0x1.fad652b6591d3p-47', 65535)),
    ('sum_Ztilde', (0, -5.9, 32768), ('-0x1.49f1d71469469p+1', '0x1.fad5209f61bf9p-47', 65537)),
    ('sum_Ztilde', (0, -5.9, 32769), ('-0x1.49f1d7146946ap+1', '0x1.fad3ee91fad7bp-47', 65539)),
    ('sum_Ztilde', (0, -5.9, 65535), ('-0x1.49f1d7146946cp+1', '0x1.ce328ce4a9ff3p-47', 131071)),
    ('sum_Ztilde', (0, -5.9, 65536), ('-0x1.49f1d7146946dp+1', '0x1.ce3279c360c1fp-47', 131073)),
    ('sum_Ztilde', (0, -5.9, 65537), ('-0x1.49f1d7146946cp+1', '0x1.ce3266a2642a6p-47', 131075)),
    ('sum_Ztilde', (0, -5.9, 1000000), ('-0x1.49f1d7146946dp+1', '0x1.c7d28e683b932p-47', 2000001)),
    ('sum_Ztilde', (1, 2.5, 1), ('0x1.1af9a0206a214p-2', '0x1.dce05ded814bfp-9', 3)),
    ('sum_Ztilde', (1, 2.5, 2), ('0x1.1beaac0e41326p-2', '0x1.78b1f3ea46ad8p-11', 5)),
    ('sum_Ztilde', (1, 2.5, 32767), ('0x1.1c438aff935b6p-2', '0x1.ef9218890c17cp-50', 65535)),
    ('sum_Ztilde', (1, 2.5, 32768), ('0x1.1c438aff935b7p-2', '0x1.ef90797f9a0acp-50', 65537)),
    ('sum_Ztilde', (1, 2.5, 32769), ('0x1.1c438aff935b6p-2', '0x1.ef8eda8320154p-50', 65539)),
    ('sum_Ztilde', (1, 2.5, 65535), ('0x1.1c438aff935bbp-2', '0x1.b30acf904ae4bp-50', 131071)),
    ('sum_Ztilde', (1, 2.5, 65536), ('0x1.1c438aff935bbp-2', '0x1.b30ab59fe7a2bp-50', 131073)),
    ('sum_Ztilde', (1, 2.5, 65537), ('0x1.1c438aff935bap-2', '0x1.b30a9bafec214p-50', 131075)),
    ('sum_Ztilde', (1, 2.5, 1000000), ('0x1.1c438aff935bap-2', '0x1.aa65effd4b8aap-50', 2000001)),
    ('sum_Ztilde', (2, -0.3, 1), ('0x1.28494bb8bd17fp+5', '0x1.8f537151edd61p-12', 3)),
    ('sum_Ztilde', (2, -0.3, 2), ('0x1.284946cd3ce4ap+5', '0x1.e8ae67430dfe8p-15', 5)),
    ('sum_Ztilde', (2, -0.3, 32767), ('0x1.28494602bef62p+5', '0x1.03511cb8ac73ep-42', 65535)),
    ('sum_Ztilde', (2, -0.3, 32768), ('0x1.28494602bef62p+5', '0x1.03511cb8ab6bap-42', 65537)),
    ('sum_Ztilde', (2, -0.3, 32769), ('0x1.28494602bef62p+5', '0x1.03511cb8aa637p-42', 65539)),
    ('sum_Ztilde', (2, -0.3, 65535), ('0x1.28494602bef62p+5', '0x1.03511c99b550dp-42', 131071)),
    ('sum_Ztilde', (2, -0.3, 65536), ('0x1.28494602bef62p+5', '0x1.03511c99b5489p-42', 131073)),
    ('sum_Ztilde', (2, -0.3, 65537), ('0x1.28494602bef62p+5', '0x1.03511c99b5405p-42', 131075)),
    ('sum_Ztilde', (2, -0.3, 1000000), ('0x1.28494602bef62p+5', '0x1.03511c97a4e25p-42', 2000001)),
    ('sum_Ztilde', (5, 6.0, 1), ('0x1.e4bf663ed3474p+10', '0x1.818c31fe5b27ap-15', 3)),
    ('sum_Ztilde', (5, 6.0, 2), ('0x1.e4bf664ee96bdp+10', '0x1.0390ea6ddfb2ap-22', 5)),
    ('sum_Ztilde', (5, 6.0, 32767), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 65535)),
    ('sum_Ztilde', (5, 6.0, 32768), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 65537)),
    ('sum_Ztilde', (5, 6.0, 32769), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 65539)),
    ('sum_Ztilde', (5, 6.0, 65535), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 131071)),
    ('sum_Ztilde', (5, 6.0, 65536), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 131073)),
    ('sum_Ztilde', (5, 6.0, 65537), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 131075)),
    ('sum_Ztilde', (5, 6.0, 1000000), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 2000001)),
    ('sum_Ztilde', (3, _EDGE_MU, 100000), ('0x1.edd534bce6966p+6', '0x1.edd534bce6968p-41', 200001)),
    ('sum_inverse_square', (0.3, 1), ('0x1.e11814e7b3a66p+3', '0x1.00b9c58ecc166p-3', 3)),
    ('sum_cotangent', (0.3, 1), ('0x1.25c215627a611p+1', '0x1.10dab8b887e7bp-5', 3)),
    ('sum_inverse_square', (0.3, 2), ('0x1.e2219994af5bep+3', '0x1.b5f0eca873318p-6', 5)),
    ('sum_cotangent', (0.3, 2), ('0x1.24a22d65b6c0ap+1', '0x1.f2a4d6bb199e0p-8', 5)),
    ('sum_inverse_square', (0.3, 32767), ('0x1.e28a8e9b0c7d3p+3', '0x1.584243cbeea58p-44', 65535)),
    ('sum_cotangent', (0.3, 32767), ('0x1.2428fb5e2854fp+1', '0x1.704fb2cde76a2p-46', 65535)),
    ('sum_inverse_square', (0.3, 32768), ('0x1.e28a8e9b0c7d3p+3', '0x1.584143c7eebc9p-44', 65537)),
    ('sum_cotangent', (0.3, 32768), ('0x1.2428fb5e2854fp+1', '0x1.704e7f95e955fp-46', 65537)),
    ('sum_inverse_square', (0.3, 32769), ('0x1.e28a8e9b0c7d2p+3', '0x1.584043cbeed39p-44', 65539)),
    ('sum_cotangent', (0.3, 32769), ('0x1.2428fb5e2854fp+1', '0x1.704d4c6782f6fp-46', 65539)),
    ('sum_inverse_square', (0.3, 65535), ('0x1.e28a8e9b0c7d7p+3', '0x1.32ebfe7640051p-44', 131071)),
    ('sum_cotangent', (0.3, 65535), ('0x1.2428fb5e2854ap+1', '0x1.4381c600f668ep-46', 131071)),
    ('sum_inverse_square', (0.3, 65536), ('0x1.e28a8e9b0c7d7p+3', '0x1.32ebee7620056p-44', 131073)),
    ('sum_cotangent', (0.3, 65536), ('0x1.2428fb5e28549p+1', '0x1.4381b2cd9d1ccp-46', 131073)),
    ('sum_inverse_square', (0.3, 65537), ('0x1.e28a8e9b0c7d7p+3', '0x1.32ebde764005cp-44', 131075)),
    ('sum_cotangent', (0.3, 65537), ('0x1.2428fb5e2854ap+1', '0x1.43819f9a9027ap-46', 131075)),
    ('sum_inverse_square', (0.3, 1000000), ('0x1.e28a8e9b0c7d8p+3', '0x1.2d96fb82dc2d8p-44', 2000001)),
    ('sum_cotangent', (0.3, 1000000), ('0x1.2428fb5e28548p+1', '0x1.3d1bc27680ca6p-46', 2000001)),
    ('sum_inverse_square', (-1.2, 1), ('0x1.c4b2b9b62f7cap+4', '0x1.8e5b2aaaaacdfp+0', 3)),
    ('sum_cotangent', (-1.2, 1), ('-0x1.1bb38f2ae0cacp+2', '0x1.c52000000024fp-2', 3)),
    ('sum_inverse_square', (-1.2, 2), ('0x1.c899b7b65082cp+4', '0x1.47f1845dceaecp-4', 5)),
    ('sum_cotangent', (-1.2, 2), ('-0x1.1609d7ce8bb2cp+2', '0x1.83ae894c21648p-5', 5)),
    ('sum_inverse_square', (-1.2, 32767), ('0x1.c911d2b6b8f03p+4', '0x1.3300f90a6a4ffp-43', 65535)),
    ('sum_cotangent', (-1.2, 32767), ('-0x1.14bcede72f5c9p+2', '0x1.910e8ec1802eep-45', 65535)),
    ('sum_inverse_square', (-1.2, 32768), ('0x1.c911d2b6b8f03p+4', '0x1.330079086a408p-43', 65537)),
    ('sum_cotangent', (-1.2, 32768), ('-0x1.14bcede72f5c9p+2', '0x1.910c2851805bbp-45', 65537)),
    ('sum_inverse_square', (-1.2, 32769), ('0x1.c911d2b6b8f04p+4', '0x1.32fff90a6a310p-43', 65539)),
    ('sum_cotangent', (-1.2, 32769), ('-0x1.14bcede72f5c9p+2', '0x1.9109c1f4b2f31p-45', 65539)),
    ('sum_inverse_square', (-1.2, 65535), ('0x1.c911d2b6b8f05p+4', '0x1.2055d65cf54b9p-43', 131071)),
    ('sum_cotangent', (-1.2, 65535), ('-0x1.14bcede72f5bep+2', '0x1.3772b5236fec8p-45', 131071)),
    ('sum_inverse_square', (-1.2, 65536), ('0x1.c911d2b6b8f04p+4', '0x1.2055ce5ce54b4p-43', 131073)),
    ('sum_cotangent', (-1.2, 65536), ('-0x1.14bcede72f5bep+2', '0x1.37728ebcbcbf1p-45', 131073)),
    ('sum_inverse_square', (-1.2, 65537), ('0x1.c911d2b6b8f05p+4', '0x1.2055c65cf54b1p-43', 131075)),
    ('sum_cotangent', (-1.2, 65537), ('-0x1.14bcede72f5bep+2', '0x1.37726856a314ap-45', 131075)),
    ('sum_inverse_square', (-1.2, 1000000), ('0x1.c911d2b6b8f05p+4', '0x1.1dab54e32dc5bp-43', 2000001)),
    ('sum_cotangent', (-1.2, 1000000), ('-0x1.14bcede72f5bcp+2', '0x1.2aa6ae0e626ddp-45', 2000001)),
    ('hurwitz_partial', ('B_even', 1, 0.3, 1), '-0x1.007dc2e1169b1p-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 2), '-0x1.a85df121e75e6p-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 32767), '-0x1.62fc9627c564ep-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 32768), '-0x1.62fc96324367cp-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 32769), '-0x1.62fc9636454ecp-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 65535), '-0x1.62fc96316866bp-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 65536), '-0x1.62fc963067e8fp-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 65537), '-0x1.62fc962dc86d7p-5'),
    ('hurwitz_partial', ('B_even', 1, 0.3, 1000000), '-0x1.62fc962fc79abp-5'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 1), '0x1.7de3d0097ab86p-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 2), '0x1.7683a52a13336p-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 32767), '0x1.75e2046c764adp-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 32768), '0x1.75e2046c764adp-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 32769), '0x1.75e2046c764adp-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 65535), '0x1.75e2046c764adp-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 65536), '0x1.75e2046c764adp-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 65537), '0x1.75e2046c764adp-6'),
    ('hurwitz_partial', ('B_odd', 2, 0.7, 1000000), '0x1.75e2046c764adp-6'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 1), '-0x1.5938cea017880p-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 2), '-0x1.59613799f6108p-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 32767), '-0x1.595ffffffffffp-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 32768), '-0x1.595ffffffffffp-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 32769), '-0x1.595ffffffffffp-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 65535), '-0x1.595ffffffffffp-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 65536), '-0x1.595ffffffffffp-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 65537), '-0x1.595ffffffffffp-1'),
    ('hurwitz_partial', ('E_even', 3, 0.25, 1000000), '-0x1.595ffffffffffp-1'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 1), '0x1.8ab30f90fbdacp-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 2), '0x1.a5cdbb89ec7a3p-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 32767), '0x1.999999971af18p-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 32768), '0x1.999999971af18p-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 32769), '0x1.999999980edfap-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 65535), '0x1.99999999999bap-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 65536), '0x1.9999999936ee8p-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 65537), '0x1.99999998f9f2bp-2'),
    ('hurwitz_partial', ('E_odd', 1, 0.9, 1000000), '0x1.9999999999999p-2'),
]


def test_streamed_oracles_match_the_pinned_bits():
    assert {name for name, _, _ in _PINNED} == {
        "sum_zeta", "sum_beta", "sum_Z", "sum_Ztilde", "sum_inverse_square", "sum_cotangent",
        "hurwitz_partial"}
    for name, args, want in _PINNED:
        r = getattr(oracles, name)(*args)
        got = r.hex() if name == "hurwitz_partial" else (
            r.value.hex(), r.error_bound.hex(), r.terms_used)
        assert got == want, (name, args)


def _array_terms(name, args, terms_used):
    # the term arrays the oracles built whole before they streamed, with the
    # same operations in the same order (mpmath patches left out)
    if name == "sum_zeta":
        return [np.arange(1, terms_used + 1, dtype=np.float64) ** float(-args[0])]
    if name == "sum_beta":
        j = np.arange(terms_used // 2, dtype=np.float64)
        lo, hi = ((4.0 * j + c) ** float(-args[0]) for c in (1.0, 3.0))
        return [lo - hi, lo + hi]
    if name == "sum_Z":
        k, mu, N = args
        base, p = (2.0 * np.arange(N, dtype=np.float64) + 1.0) * np.pi, k + 1
        if k % 2:
            terms = np.expm1(np.arctanh(np.divide(abs(mu), base)) * (-2.0 * p))
            terms *= (base - abs(mu)) ** -p
        else:
            terms = (base - mu) ** (-p) + (base + mu) ** (-p)
        terms[0 if k % 2 and mu > 0 else 1::2] *= -1.0
        return [terms]
    if name == "sum_Ztilde" and args[0] == 0:
        _, mu, N = args
        m = np.arange(1, N + 1, dtype=np.float64)
        return [np.append(2.0 * mu / ((_TWO_PI * m - mu) * (_TWO_PI * m + mu)), -1.0 / mu)]
    if name == "sum_Ztilde":
        k, mu, N = args
        x = np.arange(-N, N + 1, dtype=np.float64) * _TWO_PI - mu
        terms = 1.0 / np.abs(x) ** (k + 1)
        return [np.copysign(terms, x) if k % 2 == 0 else terms]
    if name == "sum_inverse_square":
        theta, N = args
        return [1.0 / (np.arange(-N, N + 1, dtype=np.float64) + theta) ** 2]
    if name == "sum_cotangent":
        # the kernel sums sum_Ztilde's paired terms at spacing 1, the exact
        # negations of these, and the oracle negates the sum back
        theta, N = args
        n = np.arange(1, N + 1, dtype=np.float64)
        return [-np.append(2.0 * theta / ((theta - n) * (theta + n)), 1.0 / theta)]
    kind, k, x, M = args
    extra, euler = oracles._HURWITZ[kind]
    if euler:
        h, y = 2.0 * np.arange(M, dtype=np.float64) + 1.0, x
    else:
        h, y = np.arange(1, M + 1, dtype=np.float64), 2.0 * x
    trig = _sinpi_np_mod if extra else _cospi_np_mod
    return [trig(y * h, _halving_mod2) / h ** (2 * k + extra)]


def _patched(name, args):
    # the indices of the terms an oracle takes from mpmath
    if name == "sum_Z":
        return range(3)
    if name == "sum_Ztilde" and args[0] == 0:
        near = round(abs(args[1]) / _TWO_PI)
        return range(max(1, near - 1) - 1, min(args[2], near + 1))
    if name == "sum_Ztilde":
        near, N = round(args[1] / _TWO_PI), args[2]
        return range(max(-N, near - 1) + N, min(N, near + 1) + N + 1)
    return range(0)


def test_streamed_kernel_inputs_match_the_whole_arrays(monkeypatch):
    # every block the kernel sums, against the array it came from: the
    # pinned results alone could miss a term that moved by an ulp
    blocks = []

    def recording(block, scratch):
        blocks.append(block.copy())
        return _fixed_block(block, scratch)

    monkeypatch.setattr(oracles, "_fixed_block", recording)
    for name, args, _ in _PINNED:
        if args[-1] == 10**6:
            continue
        blocks.clear()
        r = getattr(oracles, name)(*args)
        wants = _array_terms(name, args, getattr(r, "terms_used", 0))
        for row, want in enumerate(wants):
            # the last attempt's blocks of this sequence, in order
            got = np.concatenate(blocks[row :: len(wants)])[-want.size :]
            keep = np.ones(want.size, dtype=bool)
            keep[[i for i in _patched(name, args) if i < want.size]] = False
            assert np.array_equal(got[keep].view(np.int64), want[keep].view(np.int64)), (name, args)


def test_lattice_oracles_memory_does_not_grow_with_the_window():
    calls = (
        (sum_Z, (0, 0.7)), (sum_Z, (3, -0.4)), (sum_Ztilde, (0, 0.7)),
        (sum_Ztilde, (4, 2.5)), (sum_inverse_square, (0.3,)), (sum_cotangent, (0.3,)),
    )
    for oracle, args in calls:
        oracle(*args, 10)  # mpmath's constants, cached once
        peaks = []
        for N in (10**6, 2 * 10**6):
            tracemalloc.start()
            try:
                oracle(*args, N)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the whole term arrays took 17-40 MB at 10**6
        assert peaks[0] < 8e6, (oracle.__name__, args, peaks)
        assert abs(peaks[1] - peaks[0]) < 1e6, (oracle.__name__, args, peaks)
