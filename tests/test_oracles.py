"""Brute-force series oracles with certified error bounds.

The central contract tested here: |value - truth| <= error_bound, with
truth supplied by mpmath (zeta, Dirichlet L-series) or by exact closed
forms, never by the code under test.
"""

import itertools
import math
import sys
import tracemalloc
from unittest import mock

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
from telesum.exact_core import _COT, _SEC, _pole_distance
from telesum.oracles import _BLOCK, _SHORT, _SLICE, _TWO_PI, _certified_sum, _exact_sum

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


def _reflected(reference, odd):
    # the reference at |y|, negated for a negative y when odd: the reflection
    # sinpi(y) = -sinpi(-y), cospi(y) = cospi(-y), bit for bit
    def at(y, *mod2):
        y = np.asarray(y, dtype=np.float64)
        want = reference(np.abs(y), *mod2)
        return np.where(np.signbit(y), -want, want) if odd else want

    return at


_SINPI_REF, _COSPI_REF = _reflected(_sinpi_np_mod, True), _reflected(_cospi_np_mod, False)


def test_sinpi_cospi_match_the_np_mod_reduction_bit_for_bit():
    # y >= 0 has np.mod's bits; a negative y those of its reflection
    rng = np.random.default_rng(7)
    edges = [-0.0, 0.0, -1e-300, 1e-300, 2.0**53, -(2.0**53), 2.0**52 + 1.0,
             -(2.0**52 + 1.0), 1e300, -1e300, 2.0**-1074, np.nextafter(2.0, 0.0),
             -np.nextafter(2.0, 0.0), 0.5, -0.5, 1.0, -1.0, 1.5, -1.5]
    ys = np.concatenate([
        edges,
        rng.standard_normal(20000) * rng.choice([1e-300, 1e-8, 1.0, 1e6, 1e17], 20000),
        rng.integers(-4000, 4000, 2000) / 8.0,
    ])
    for fast, reference in ((sinpi, _SINPI_REF), (cospi, _COSPI_REF)):
        got, want = fast(ys), reference(ys)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), fast.__name__
        for y in edges:
            assert math.copysign(1.0, fast(y)) == math.copysign(1.0, float(reference(y)))
    # np.mod moves -2**-1074 to 2 - 2**-1074 = 2.0; reflected, sinpi keeps
    # its tiny, correct value
    y = -(2.0**-1074)
    assert _sinpi_np_mod(y) == 0.0
    assert sinpi(y) == float(mpmath.sinpi(y)) == -3 * 2.0**-1074
    assert cospi(y) == _cospi_np_mod(y) == 1.0


def test_sinpi_cospi_keep_tiny_negative_arguments():
    # reduced as y - 2*floor(y/2), a y in (-2**-52, 0) became 2.0 and its
    # sine 0, and any y in (-2, 0) lost its bits below ulp(2)
    ys = [-(2.0**-1074), -1e-300, -1e-17, -1.1e-16, -2.5e-16, -3e-16, -1e-9, -0.3,
          -1.0 - 2.0**-52, -2.0 + 2.0**-51, -7.0 - 2.0**-50]
    for y in ys:
        with mpmath.workdps(40):
            want_sin, want_cos = mpmath.sinpi(y), mpmath.cospi(y)
            for got, want in ((sinpi(y), want_sin), (cospi(y), want_cos)):
                assert abs(got - want) <= 1e-15 * abs(want) + 2.0**-1074, (y, got)


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
    for fold, reference in ((sinpi, _SINPI_REF), (cospi, _COSPI_REF)):
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
    with pytest.raises(AttributeError):
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


def test_sum_Z_next_to_pi_stays_within_a_few_eps_at_every_k():
    # the m = 0 pair raises the distance pi - |mu| to the power -(k + 1):
    # from the double dist alone its half-ulp grew k + 1 times, to 8 eps of
    # relative error at k = 20 and 15 at k = 40; with the rest of the
    # residual the error keeps one ceiling at every k
    rng = np.random.default_rng(14)
    for k in (1, 2, 5, 8, 13, 20, 29, 40):
        for _ in range(8):
            mu = float(rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 3.1415))
            got = sum_Z(k, mu, N=10**4).value
            with mpmath.workdps(40):
                want = z_truth(k, mu)
                rel_err = float(abs(mpmath.mpf(got) - want) / abs(want))
            assert rel_err <= 4 * sys.float_info.epsilon, (k, mu, rel_err)


def test_sum_Ztilde_next_to_a_pole_2_pi_n_stays_within_a_few_eps_at_every_k():
    # at n != 0 the m = n term raises the residual r to -(k + 1): from the
    # double r alone its half-ulp grew k + 1 times, to 9-16 eps of that
    # term at k = 20-40; with the rest r_lo of the residual the error keeps
    # one ceiling at every k.  The error is measured against that term,
    # |r|**-(k+1), which the sum's other terms do not exceed: at even k
    # next to |r| = pi the sum has a zero, where relative to the value the
    # cancellation of the two nearest terms would read as error.  At k = 1
    # the tail's truncation at N = 10**4 is larger than either
    rng = np.random.default_rng(29)
    for k in (2, 5, 8, 13, 20, 29, 40):
        for _ in range(8):
            n = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            r = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 3.0))
            mu = 2 * math.pi * n + r
            got = sum_Ztilde(k, mu, N=10**4).value
            with mpmath.workdps(40):
                err = abs(mpmath.mpf(got) - ztilde_truth(k, mu)) * mpmath.mpf(abs(r)) ** (k + 1)
            assert err <= 4 * sys.float_info.epsilon, (k, mu, float(err))


def _lattice_error(name, k, mu, value):
    # |value - the lattice sum| against a 60-digit truth: Hurwitz zetas, or
    # at k = 0 the symmetric limits sec(mu/2)/2 and -cot(mu/2)/2
    with mpmath.workdps(60):
        if name == "sum_Z":
            truth = z_truth(k, mu)
        else:
            truth = -mpmath.cot(mpmath.mpf(mu) / 2) / 2 if k == 0 else ztilde_truth(k, mu)
        return abs(mpmath.mpf(value) - truth)


def test_sum_Ztilde_bound_holds_at_large_mu():
    # N = 3 m0 keeps the tail small, so at m0 = 10**6 the bound covers
    # mostly the rounding of the far terms (at 10**5, k = 0, the tail's
    # trapezoid bound dominates); formed as m * fl(2 pi) - mu, each far term
    # erred by |m| * 2.4e-16, and the sums missed their bounds by up to 264x
    for m0 in (10**5, 10**6):
        for c in (0.5, 1.0, 3.0):
            mu = 2 * math.pi * m0 + c
            for k in (0, 1, 2, 3):
                r = sum_Ztilde(k, mu, N=3 * m0)
                err = _lattice_error("sum_Ztilde", k, mu, r.value)
                assert err <= r.error_bound, (m0, c, k, float(err), r.error_bound)


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
        sum_Ztilde(1, 0.0, N=100)  # m = 0 pole
    with pytest.raises(ValueError):
        sum_Ztilde(1, 1000.0, N=10)  # window too small to clear the pole
    # a point next to a pole, once inside the guard band, is valid and
    # within its bound of the truth
    for oracle, mu, truth in ((sum_Ztilde, 1e-12, ztilde_truth), (sum_Z, math.pi, z_truth)):
        r = oracle(1, mu, N=100)
        with mpmath.workdps(40):
            assert abs(r.value - truth(1, mpmath.mpf(mu))) <= r.error_bound, oracle.__name__
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


def _window_edge(N, spacing):
    # the largest x the window m = -N..N takes: (N + 1/2) * spacing, or the
    # float below it where round() takes the ratio up to N + 1
    x = (N + 0.5) * spacing
    while round(x / spacing) > N:
        x = math.nextafter(x, 0.0)
    return x


def test_tails_stay_finite_at_the_window_edges():
    # a tail's start y = a*(N + 1) -+ x is least at the window's edge x: 1/2
    # for sum_inverse_square (p = 2), pi for sum_Ztilde; no power overflows
    assert _window_edge(2, 1.0) == 2.5  # y = 3 - 2.5 = 1/2 exactly
    for N in (1, 2):
        theta = _window_edge(N, 1.0)
        mu = _window_edge(N, _TWO_PI)
        cases = [(sum_inverse_square, (x, N), 1.0, 2) for x in (theta, -theta)]
        cases += [(sum_Ztilde, (k, x, N), _TWO_PI, k + 1) for k in (1, 40) for x in (mu, -mu)]
        for oracle, args, a, p in cases:
            x = args[-2]
            for shift in (x, -x):
                tail = oracles._power_tail(a, shift, float(p), N + 1)
                assert all(map(math.isfinite, tail)), (oracle.__name__, args)
            r = oracle(*args)
            assert math.isfinite(r.value) and math.isfinite(r.error_bound), (oracle.__name__, args)


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
    # one binade for more than a block, across block boundaries, and a
    # monotone run whose windows change slowly
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


def _route(block):
    # how _sliced_block sums a block: (windows, ints), the windows it slices,
    # one per call of it, and the blocks of terms above a window it sums in
    # Python ints
    with mock.patch.object(oracles, "_sliced_block", wraps=oracles._sliced_block) as sliced, \
            mock.patch.object(oracles, "_short_block", wraps=oracles._short_block) as short, \
            np.errstate(all="ignore"):
        sliced(block, np.empty((2, block.size)))
    return sliced.call_count, short.call_count


def _is_narrow(block):
    return _route(block) == (1, 0)


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
    # below both slices of the top's window, so the window goes above the
    # least term and the two top terms are summed in ints.  Cancelling tops
    # leave the least term as the sum, and a tie at 2**e between the two
    # nearest doubles is broken by that one bit.
    widest = 2 * _SLICE - 53
    for e in (0, 50, -950):
        for span, route in ((widest, (1, 0)), (widest + 1, (1, 1))):
            least = math.ldexp(0.5 + 2.0**-53, e - span)
            cancel = np.array([0.75, -0.75, least / 2.0**e]) * 2.0**e
            tie = np.array([0.5 + 2.0**-53, 0.5, least / 2.0**e]) * 2.0**e
            for xs in (cancel, tie, -tie):
                assert _route(xs) == route, (e, span)
                _assert_exact(xs, (e, span))
    # a mixed-sign narrow block with zeros of both signs
    xs = np.ldexp(rng.uniform(0.5, 1.0, _BLOCK), rng.integers(-20, 1, _BLOCK))
    xs *= rng.choice([-1.0, 1.0], _BLOCK)
    xs[rng.random(_BLOCK) < 0.1] = rng.choice([0.0, -0.0])
    assert _is_narrow(xs)
    _assert_exact(xs, "mixed")
    # the scale 2**(_SLICE - e) leaves the normal range below
    # e = _SLICE - 1023, and a window there takes it in two steps; at the top
    # the slices take terms near 2**1024, whose sums may still overflow or
    # cancel
    lowest = _SLICE - 1023
    for e in (lowest, lowest - 1, -1000):
        xs = np.ldexp(rng.uniform(0.5, 1.0, 1000), e - rng.integers(0, widest, 1000))
        assert _is_narrow(xs), e
        _assert_exact(xs, e)
    huge = np.array([8e307, -8e307, 1e303, 1.7e308, 9e307])
    assert _is_narrow(huge)
    _assert_exact(huge[:3], "cancel")
    with pytest.raises(OverflowError):
        _exact_sum(huge)
    # a wide block next to a narrow one: 1 + 2**-53 from the first is a tie
    # that rounds to 1, and the narrow 2**-53 of the second lifts it to the
    # next double above 1 in the one rounding all paths meet in.  The first
    # block takes the window above 2**-80 and its two terms above it in
    # ints; with pairs that cancel exactly over 130 binades it takes a
    # window for every 24 binades of them until the few terms left above
    # the last window, at most _SHORT, go to the ints
    xs = np.zeros(2 * _BLOCK)
    xs[:3] = (1.0, 2.0**-53, 2.0**-80)
    xs[_BLOCK : _BLOCK + 2] = (2.0**-53, 2.0**-54)
    spread = np.ldexp(1.0, -np.arange(10, 140))
    for route, pad in (((1, 1), []), ((5, 1), [spread, -spread])):
        ys = xs.copy()
        ys[3 : 3 + 2 * spread.size] = np.concatenate(pad or [np.zeros(2 * spread.size)])
        assert _route(ys[:_BLOCK]) == route and _is_narrow(ys[_BLOCK:])
        _assert_exact(ys, ("wide then narrow", route))
        _assert_exact(ys[::-1], ("narrow then wide", route))


def _kernel_outcome(xs):
    # (value, magnitude), or OverflowError when either is past the double range
    try:
        return _exact_sum(xs)
    except OverflowError:
        return OverflowError


def _reference_outcome(xs):
    try:
        return _reference_sum(xs), _reference_sum(np.abs(xs))
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


@st.composite
def _windows_with_outliers(draw):
    # more than _SHORT full-width terms in a window under a random top, with
    # signed zeros and up to _SHORT + 1 outliers above it, below it or on
    # both sides among them, so that the outliers go to the ints or to
    # windows of their own; the draws fix the shape and a seed, numpy the
    # terms.  The top stays clear of overflow, which math.fsum reports for a
    # long block
    top, inside, zeros, outside = (draw(st.integers(*span)) for span in
                                   ((-1000, 900), (_SHORT + 1, 2048), (0, 10), (0, _SHORT + 1)))
    sides = draw(st.sampled_from([[1], [-1], [-1, 1]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    binades = np.concatenate([-rng.integers(0, 24, inside),
                              rng.choice(sides, outside) * rng.integers(25, 91, outside) + 1])
    significands = rng.integers(2**52, 2**53, binades.size) * rng.choice([-1.0, 1.0], binades.size)
    terms = np.concatenate([np.ldexp(significands, top + binades - 53), rng.choice([0.0, -0.0], zeros)])
    return rng.permutation(terms).tolist()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(_narrow_windows(), _windows_with_outliers(),
                 st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40)))
def test_kernel_matches_fraction_sum_on_drawn_terms(terms):
    xs = np.array(terms, dtype=np.float64)
    assert _kernel_outcome(xs) == _reference_outcome(xs)


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


def test_kernel_rejects_a_non_finite_term_before_any_window():
    # a wide block holding inf or nan must raise from its max and min,
    # before any window is sized or scaled into the scratch rows
    rng = np.random.default_rng(1003)
    for n in (9, _BLOCK):
        wide = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1000, 1000, n))
        for bad in (math.inf, -math.inf, math.nan):
            xs = wide.copy()
            xs[n // 2] = bad
            with pytest.raises(ValueError, match="non-finite term"):
                _exact_sum(xs)
            scratch = np.full((2, n), 7.0)
            with pytest.raises(ValueError, match="non-finite term"):
                oracles._sliced_block(xs, scratch)
            assert (scratch == 7.0).all()


def _blocks_about_the_short_path(rng, n):
    # blocks of n terms from four families: full-width significands within a
    # span of binades under a random top (narrow when the span is small),
    # subnormals, any finite doubles, and terms near 2**1024 whose sums
    # overflow or cancel; each with both signs and signed zeros among them
    top, span = int(rng.integers(-1000, 1024)), int(rng.integers(0, 31))
    sign = rng.choice([-1.0, 1.0], n)
    yield sign * np.ldexp(rng.uniform(0.5, 1.0, n), top - rng.integers(0, span + 1, n))
    yield rng.integers(-(2**52), 2**52, n) * 5e-324
    yield rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    yield sign * np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(1000, 1025, n))


def test_short_and_numpy_paths_match_fraction_sum_on_both_sides_of_the_threshold(monkeypatch):
    # a block of at most _SHORT terms is summed in ints, by one route up to
    # _FEW terms and another past it, and a longer one in the slices,
    # whatever its terms' range.  Every path gives the rational sums, and
    # every one rejects a non-finite term in its first call, before any
    # window is sized
    paths = []
    for name in ("_short_block", "_sliced_block"):
        kernel = getattr(oracles, name)
        monkeypatch.setattr(oracles, name, lambda *args, kernel=kernel, name=name:
                            paths.append(name) or kernel(*args))
    rng = np.random.default_rng(31)
    few, short = oracles._FEW, oracles._SHORT
    lengths = (1, few, few + 1, short, short + 1, 2 * short)
    seen = set()
    for n in lengths:
        for _ in range(25):
            for xs in _blocks_about_the_short_path(rng, n):
                xs[~np.isfinite(xs)] = 1.0  # the random bit patterns' inf and nan
                xs[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
                del paths[:]
                outcome = _kernel_outcome(xs)
                assert outcome == _reference_outcome(xs), (n, xs[:3])
                # the route, from the first kernel called: the slices may
                # then sum the terms above a window in ints
                route = {"_short_block": "ints", "_sliced_block": "slices"}[paths[0]]
                assert paths[0] == "_sliced_block" or len(paths) == 1, (n, paths)
                assert route == ("ints" if n <= short else "slices"), (n, xs[:3])
                seen.add((n, route, outcome is OverflowError))
                bad = xs.copy()
                bad[rng.integers(n)] = rng.choice([math.inf, -math.inf, math.nan])
                del paths[:]
                with pytest.raises(ValueError, match="non-finite term"):
                    _exact_sum(bad)
                assert len(paths) == 1, n
    # each length past one term overflowed and summed
    for n in lengths[1:]:
        assert {over for m, _, over in seen if m == n} == {False, True}, n


def test_wide_blocks_are_sliced_window_by_window_from_their_least_term():
    rng = np.random.default_rng(2003)
    # the top of the range, exponents 900..1023 of both signs, cancelled by
    # their rounded sum down to the rounding's residue
    top = np.ldexp(rng.uniform(0.5, 0.6, 124), np.arange(900, 1024))
    top[rng.random(124) < 0.5] *= -1.0
    top = np.append(top, -math.fsum(top.tolist()))
    # subnormals only, as integers times 2**-1074, short and a full block
    subnormals = [rng.integers(-(2**52), 2**52, n) * 5e-324 for n in (9, _BLOCK)]
    # signed zeros among tiny terms, which widen no window and add nothing
    tiny = np.ldexp(rng.uniform(-1.0, 1.0, 40), rng.integers(-1074, -1000, 40))
    tiny[::7] = 0.0
    tiny[3::7] = -0.0
    # the routes: the top takes a window for each 24 binades from its least
    # term up until the terms left are few enough for the ints; the random
    # subnormals lie within 24 binades of their top, one window; the tiny
    # terms take the window above the least and the few above it in ints
    for xs, route in ((top, (3, 1)), (subnormals[0], (1, 0)), (subnormals[1], (1, 0)), (tiny, (1, 1)),
                      (np.array([1e-310, -1e-310, 0.0, -0.0]), (1, 0)),
                      (np.array([-0.0, -5e-324, 5e-324, -0.0]), (1, 0)), (np.array([-0.0, -1e-300, -0.0]), (1, 0))):
        assert _route(xs) == route, xs[:4]
        value, magnitude = _exact_sum(xs)
        assert value == _fraction_sum(xs), xs[:4]
        assert math.copysign(1.0, value) == math.copysign(1.0, math.fsum(xs.tolist())), xs[:4]
        assert magnitude == _fraction_sum(np.abs(xs)), xs[:4]
    assert abs(_exact_sum(top)[0]) < 2.0**-50 * np.abs(top).max()


def _assert_exact_twice(xs, label):
    # the kernel's sums against math.fsum and the rational sum, both exactly
    # rounded and independent of the kernel
    value, magnitude = _exact_sum(xs)
    for reference in (lambda ys: math.fsum(ys.tolist()), _fraction_sum):
        assert value == reference(xs), label
        assert magnitude == reference(np.abs(xs)), label
    assert math.copysign(1.0, value) == math.copysign(1.0, math.fsum(xs.tolist())), label


def _odd_terms(rng, exponents):
    # full-width significands with their lowest bit set, at these frexp
    # exponents: the lowest bit of each lies 53 binades below its exponent
    significands = rng.integers(2**51, 2**52, exponents.size) * 2 + 1
    return np.ldexp(significands.astype(np.float64), exponents - 53)


def _outlier_block(rng, side, k, sign, E=0, n=4096):
    # n terms of frexp exponents E - _SPAN .. E, the least of them at
    # E - _SPAN, and k outliers 30 to 60 binades above or below them, all
    # in random order
    span = 2 * _SLICE - 53
    exponents = rng.integers(E - span, E + 1, n)
    exponents[0] = E - span
    far = rng.integers(30, 61, k)
    outliers = _odd_terms(rng, E + far if side == "above" else E - span - far)
    xs = rng.permutation(np.concatenate([_odd_terms(rng, exponents), outliers]))
    return xs * {"+": 1.0, "-": -1.0, "mixed": rng.choice([-1.0, 1.0], xs.size)}[sign]


def _outlier_routes(side, k):
    # the routes an _outlier_block may take.  Above: the block's window,
    # then its k outliers, over 31 binades, as a block of their own: in
    # ints at most _SHORT of them, a window and ints past _SHORT.  Below: a
    # window or two for the outliers, from the least up, then the block's
    if side == "above":
        return {(1, 1)} if k <= _SHORT else {(2, 1)}
    return {(2, 0)} if k == 1 else {(2, 0), (3, 0)}


def test_kernel_peels_outliers_to_the_ints_or_to_windows_of_their_own():
    # a block that one window would hold but for k terms peels them off,
    # however many: to the ints, or, past _SHORT, to windows of their own
    rng = np.random.default_rng(2307)
    for side, k, sign in itertools.product(("above", "below"), (1, _SHORT, _SHORT + 1), ("+", "-", "mixed")):
        xs = _outlier_block(rng, side, k, sign)
        assert _route(xs) in _outlier_routes(side, k), (side, k, sign)
        _assert_exact_twice(xs, (side, k, sign))


def test_kernel_peels_outliers_at_any_block_length():
    # a shorter block peels its outliers the same way, with no limit on
    # their share of it
    rng = np.random.default_rng(64)
    for n, side in itertools.product((1023, 1024, 2048), ("above", "below")):
        for k in (1, n // 64, n // 64 + 1):
            xs = _outlier_block(rng, side, k, "mixed", n=n - k)
            assert xs.size == n
            assert _route(xs) in _outlier_routes(side, k), (n, side, k)
            _assert_exact_twice(xs, (n, side, k))


def test_kernel_peel_keeps_every_bit_at_the_window_edges():
    # window terms in pairs that cancel exactly, so that the sum is one term
    # whose lowest bit decides it: the least term, at the bottom of the
    # window above it, or an outlier just under the window of the top, which
    # that window must not take.  Zeros of both signs, more than _SHORT of
    # them, are no outliers.  Above, the 2 or the _SHORT outliers go to the
    # ints, by their count alone; below, the witness takes a window up to
    # 2**(E - 1) and the top binade one more, and the far outliers, over 31
    # binades, two more under them
    rng = np.random.default_rng(3308)
    span = 2 * _SLICE - 53
    for E, side, pairs in itertools.product((0, 700, -900), ("above", "below"), (1, _SHORT // 2)):
        half = _odd_terms(rng, rng.integers(E - span + 1, E + 1, 2048))
        half[0] = 2.0 ** (E - 1)  # the top
        if side == "above":  # 2 or _SHORT outliers
            witness = _odd_terms(rng, np.array([E - span]))  # the least term
            far = _odd_terms(rng, E + rng.integers(30, 61, pairs))
            window, outliers = np.concatenate([half, -half, witness]), np.concatenate([far, -far])
        else:  # 1 or _SHORT - 1 outliers
            witness = _odd_terms(rng, np.array([E - span - 1]))  # just under the window
            far = _odd_terms(rng, E - rng.integers(60, 91, pairs - 1))
            window, outliers = np.concatenate([half, -half]), np.concatenate([witness, far, -far])
        window = np.concatenate([window, rng.choice([0.0, -0.0], 2 * _SHORT)])
        xs = rng.permutation(np.concatenate([window, outliers]))
        routes = {"above": ((1, 1), (1, 1)), "below": ((2, 0), (4, 0))}[side]
        assert _route(xs) == routes[pairs > 1], (E, side, pairs)
        assert _exact_sum(xs)[0] == witness[0], (E, side, pairs)
        _assert_exact_twice(xs, (E, side, pairs))


def test_kernel_peels_at_any_scale():
    # the scale 2**(_SLICE - E) of a window E is normal down to E = _SLICE -
    # 1023, and below it is taken in two steps: windows there peel the same
    # as anywhere, above the least term or below the top
    rng = np.random.default_rng(1023)
    last = _SLICE - 1023
    for side in ("above", "below"):
        for E in (last, last - 1):
            xs = _outlier_block(rng, side, 3, "mixed", E=E)
            assert _route(xs) in _outlier_routes(side, 3), (side, E)
            _assert_exact_twice(xs, (side, E))
    # a window is at least 2 * _SLICE - _UNIT, so that the shift into
    # units is never negative: tops in the binade of 2**-1051 and one binade
    # either side, over subnormals down to the least, each one window
    clamp = 2 * _SLICE - oracles._UNIT
    for e in (clamp - 1, clamp, clamp + 1):
        top = math.ldexp(1.0, e) - 5e-324  # every bit of the binade below 2**e set
        xs = np.concatenate([[top, 5e-324, -1e-323],
                             rng.integers(-(2**20), 2**20, 1000) * 5e-324])
        for ys in (xs, -xs, xs[:3]):
            assert _route(ys) == (1, 0), (e, ys.size)
            _assert_exact_twice(ys, (e, ys.size))


def test_kernel_peels_the_pole_term_off_the_last_block_of_a_cotangent_sum(monkeypatch):
    # sum_cotangent's last block ends with the m = 0 term -1/theta, about
    # 2**39 times its other terms
    theta = 2.634894976671063
    seen = _recording_kernel(monkeypatch)
    sum_cotangent(theta, 10**6)
    last = seen["blocks"][-1]
    assert last[-1] == -1.0 / theta and last.size == (10**6 + 1) % _BLOCK
    assert _route(last) == (1, 1)
    _assert_exact_twice(last, "cot")


def _one_term_a_binade(rng):
    # a term with its lowest bit set in every binade from 2**-1074 up to
    # 2**1021: subnormal ones as odd multiples of 2**-1074, normal ones with
    # full-width odd significands
    terms = [math.ldexp(1 | int(rng.integers(1 << b, 1 << (b + 1))), -1074) for b in range(52)]
    terms += _odd_terms(rng, np.arange(-1021, 1023)).tolist()
    return np.array(terms)


def test_kernel_sums_a_term_in_every_binade_window_by_window():
    # one term in every binade of the double range but the top two, where
    # the sum of magnitudes would overflow, in pairs that cancel exactly,
    # and a witness whose lowest bit is the sum's: one block takes at most a
    # window for every 24 binades, and one block or short blocks give the
    # same exact sums in units
    rng = np.random.default_rng(2098)
    terms = _one_term_a_binade(rng)
    assert terms.size == 1074 + 1022 and math.frexp(terms[-1])[1] == 1022
    for witness in (5e-324, terms[700], -terms[-1]):
        xs = rng.permutation(np.concatenate([terms, -terms, [witness]]))
        assert _route(xs)[0] <= 88
        _assert_exact_twice(xs, witness)
        want = [sum(map(Fraction, ys.tolist())) * 2**oracles._UNIT for ys in (xs, np.abs(xs))]
        with np.errstate(all="ignore"):
            whole = oracles._block_sums(xs, np.empty((2, xs.size)))
            short = [oracles._block_sums(xs[i : i + _SHORT], np.empty((2, _SHORT)))
                     for i in range(0, xs.size, _SHORT)]
        assert list(whole) == want == [sum(s[j] for s in short) for j in (0, 1)], witness


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
    # the roundoff floor of 2e7 terms is above these tols, and so is the floor
    # of the first sum, since the floor only grows with N: one sum settles that
    for oracle, s, tol, floor, achieved in (
            (sum_zeta, 2, "5.000e-15", "7.305e-15", "9.805e-15"),
            (sum_beta, 1, "5.000e-15", "3.220e-14", "3.470e-14"),
            (sum_beta, 10, "4.000e-15", "4.441e-15", "4.462e-15")):
        counts.clear()
        with pytest.raises(ToleranceUnreachable) as exc:
            oracle(s, float(tol))
        assert len(counts) == 1
        assert str(exc.value) == (
            "tolerance %s unreachable at the roundoff floor %s (achieved %s)"
            % (tol, floor, achieved))
        assert "%.3e" % exc.value.achieved == achieved
    # a tol above the floor that the cap keeps out of reach stops at the cap
    for oracle, s, cap, name, achieved in ((sum_zeta, 2, "_ZETA_N_CAP", "N cap", "1.672e-10"),
                                           (sum_beta, 1, "_BETA_M_CAP", "term cap", "1.248e-07")):
        monkeypatch.setattr(oracles, cap, 1000)
        with pytest.raises(ToleranceUnreachable) as exc:
            oracle(s, 1e-12)
        assert str(exc.value) == (
            "tolerance 1.000e-12 unreachable at the %s 1000 (achieved %s)" % (name, achieved))
        assert "%.3e" % exc.value.achieved == achieved


# ------------------------------------------------------------ streamed terms

# the near-pole terms m = -34465..-34463 of this window are terms
# 65535..65537, across a block edge
_EDGE_MU = _TWO_PI * (65536 - 100000) + 0.3

# Every streamed oracle's result as float.hex (value, error_bound) and
# terms_used, recorded from the oracles that built whole term arrays (those
# of sum_Z and sum_Ztilde again once their terms were recentred on the
# nearest pole), at lengths about the first two block edges and at 10**6
_PINNED = [
    ('sum_zeta', (2, 1e-06), ('0x1.a51a5dfe50153p+0', '0x1.100ce56e0dd24p-21', 69)),
    ('sum_zeta', (2, 1e-12), ('0x1.a51a66252ff08p+0', '0x1.1da97335f160fp-41', 6933)),
    ('sum_zeta', (5, 1e-06), ('0x1.097411fb67580p+0', '0x1.65e9f838a343ep-21', 9)),
    ('sum_zeta', (5, 1e-12), ('0x1.097418eca7487p+0', '0x1.1b9822f447d90p-41', 97)),
    ('sum_beta', (1, 1e-06), ('0x1.921fb53bec78fp-1', '0x1.07257febfb2c8p-21', 504)),
    ('sum_beta', (1, 1e-12), ('0x1.921fb54442d19p-1', '0x1.28f2ab7e565fcp-41', 500004)),
    ('sum_beta', (3, 1e-06), ('0x1.f019b5237b8f7p-1', '0x1.7b43ceb2bb0cep-23', 26)),
    ('sum_beta', (3, 1e-12), ('0x1.f019b59389d6fp-1', '0x1.13bac8b310e48p-41', 662)),
    ('sum_Z', (0, 0.7, 1), ('0x1.155e284008538p-1', '0x1.5f76844954e56p-6', 2)),
    ('sum_Z', (0, 0.7, 2), ('0x1.0f0fc6b633e06p-1', '0x1.2b54a61d8d085p-7', 4)),
    ('sum_Z', (0, 0.7, 32767), ('0x1.1085b498e8f40p-1', '0x1.46036fd7e0ab8p-34', 65534)),
    ('sum_Z', (0, 0.7, 32768), ('0x1.1085b498e8f17p-1', '0x1.45fe581d9c8b3p-34', 65536)),
    ('sum_Z', (0, 0.7, 32769), ('0x1.1085b498e8f40p-1', '0x1.45f94081e065ep-34', 65538)),
    ('sum_Z', (0, 0.7, 65535), ('0x1.1085b498e8f2ep-1', '0x1.46383279a2bacp-36', 131070)),
    ('sum_Z', (0, 0.7, 65536), ('0x1.1085b498e8f29p-1', '0x1.4635a69c7a808p-36', 131072)),
    ('sum_Z', (0, 0.7, 65537), ('0x1.1085b498e8f2dp-1', '0x1.46331ac6f2412p-36', 131074)),
    ('sum_Z', (0, 0.7, 1000000), ('0x1.1085b498e8f2bp-1', '0x1.b96f0b67a1de0p-44', 2000000)),
    ('sum_Z', (1, 1.3, 1), ('0x1.ead684bd4deacp-3', '0x1.4ddeaa4800de0p-10', 2)),
    ('sum_Z', (1, 1.3, 2), ('0x1.e8ac87bdbebccp-3', '0x1.c70154034eb5ep-13', 4)),
    ('sum_Z', (1, 1.3, 32767), ('0x1.e8ec99dabf9a3p-3', '0x1.811da3078bd67p-50', 65534)),
    ('sum_Z', (1, 1.3, 32768), ('0x1.e8ec99dabf9a3p-3', '0x1.811da2ff7f33ep-50', 65536)),
    ('sum_Z', (1, 1.3, 32769), ('0x1.e8ec99dabf9a3p-3', '0x1.811da2f772e1ap-50', 65538)),
    ('sum_Z', (1, 1.3, 65535), ('0x1.e8ec99dabf9a3p-3', '0x1.811cb187d5813p-50', 131070)),
    ('sum_Z', (1, 1.3, 65536), ('0x1.e8ec99dabf9a3p-3', '0x1.811cb187951b9p-50', 131072)),
    ('sum_Z', (1, 1.3, 65537), ('0x1.e8ec99dabf9a3p-3', '0x1.811cb18754b73p-50', 131074)),
    ('sum_Z', (1, 1.3, 1000000), ('0x1.e8ec99dabf9a3p-3', '0x1.811ca16e5ef4ap-50', 2000000)),
    ('sum_Z', (2, -2.9, 1), ('0x1.1bac61f53d702p+6', '0x1.cb25262003102p-11', 2)),
    ('sum_Z', (2, -2.9, 2), ('0x1.1bab98149c28cp+6', '0x1.bb1f1c8955bf6p-14', 4)),
    ('sum_Z', (2, -2.9, 32767), ('0x1.1baba8c069ec3p+6', '0x1.f07a0be8842dcp-42', 65534)),
    ('sum_Z', (2, -2.9, 32768), ('0x1.1baba8c069ec3p+6', '0x1.f07a0be881153p-42', 65536)),
    ('sum_Z', (2, -2.9, 32769), ('0x1.1baba8c069ec3p+6', '0x1.f07a0be87dfccp-42', 65538)),
    ('sum_Z', (2, -2.9, 65535), ('0x1.1baba8c069ec3p+6', '0x1.f07a0b8ba1d70p-42', 131070)),
    ('sum_Z', (2, -2.9, 65536), ('0x1.1baba8c069ec3p+6', '0x1.f07a0b8ba1be3p-42', 131072)),
    ('sum_Z', (2, -2.9, 65537), ('0x1.1baba8c069ec3p+6', '0x1.f07a0b8ba1a57p-42', 131074)),
    ('sum_Z', (2, -2.9, 1000000), ('0x1.1baba8c069ec3p+6', '0x1.f07a0b8570aa7p-42', 2000000)),
    ('sum_Z', (3, -0.4, 1), ('-0x1.72b0b298e6a16p-7', '0x1.50166238dab65p-17', 2)),
    ('sum_Z', (3, -0.4, 2), ('-0x1.726268bac6079p-7', '0x1.6eee9b67383a8p-21', 4)),
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
    ('sum_Ztilde', (0, -5.9, 1), ('-0x1.48bb5bc016271p+1', '0x1.0152320d55ab9p-5', 3)),
    ('sum_Ztilde', (0, -5.9, 2), ('-0x1.49a98c17f818ep+1', '0x1.3ebd993bd4642p-8', 5)),
    ('sum_Ztilde', (0, -5.9, 32767), ('-0x1.49f1d7146946bp+1', '0x1.fad652b6591d5p-47', 65535)),
    ('sum_Ztilde', (0, -5.9, 32768), ('-0x1.49f1d7146946ap+1', '0x1.fad5209f6245ap-47', 65537)),
    ('sum_Ztilde', (0, -5.9, 32769), ('-0x1.49f1d7146946bp+1', '0x1.fad3ee91fb5dep-47', 65539)),
    ('sum_Ztilde', (0, -5.9, 65535), ('-0x1.49f1d7146946dp+1', '0x1.ce328ce4a9bc4p-47', 131071)),
    ('sum_Ztilde', (0, -5.9, 65536), ('-0x1.49f1d7146946ep+1', '0x1.ce3279c3607f1p-47', 131073)),
    ('sum_Ztilde', (0, -5.9, 65537), ('-0x1.49f1d7146946dp+1', '0x1.ce3266a263f82p-47', 131075)),
    ('sum_Ztilde', (0, -5.9, 1000000), ('-0x1.49f1d7146946ep+1', '0x1.c7d28e683b932p-47', 2000001)),
    ('sum_Ztilde', (1, 2.5, 1), ('0x1.1af9a0206a214p-2', '0x1.dce05ded814bfp-9', 3)),
    ('sum_Ztilde', (1, 2.5, 2), ('0x1.1beaac0e41326p-2', '0x1.78b1f3ea46ad8p-11', 5)),
    ('sum_Ztilde', (1, 2.5, 32767), ('0x1.1c438aff935b6p-2', '0x1.ef9218890c17cp-50', 65535)),
    ('sum_Ztilde', (1, 2.5, 32768), ('0x1.1c438aff935b7p-2', '0x1.ef90797f9a0acp-50', 65537)),
    ('sum_Ztilde', (1, 2.5, 32769), ('0x1.1c438aff935b7p-2', '0x1.ef8eda8320155p-50', 65539)),
    ('sum_Ztilde', (1, 2.5, 65535), ('0x1.1c438aff935bbp-2', '0x1.b30acf904ae4bp-50', 131071)),
    ('sum_Ztilde', (1, 2.5, 65536), ('0x1.1c438aff935bbp-2', '0x1.b30ab59fe7a2bp-50', 131073)),
    ('sum_Ztilde', (1, 2.5, 65537), ('0x1.1c438aff935bap-2', '0x1.b30a9bafec214p-50', 131075)),
    ('sum_Ztilde', (1, 2.5, 1000000), ('0x1.1c438aff935bbp-2', '0x1.aa65effd4b8adp-50', 2000001)),
    ('sum_Ztilde', (2, -0.3, 1), ('0x1.28494bb8bd180p+5', '0x1.8f537151edd61p-12', 3)),
    ('sum_Ztilde', (2, -0.3, 2), ('0x1.284946cd3ce4bp+5', '0x1.e8ae67430dfe8p-15', 5)),
    ('sum_Ztilde', (2, -0.3, 32767), ('0x1.28494602bef63p+5', '0x1.03511cb8ac73fp-42', 65535)),
    ('sum_Ztilde', (2, -0.3, 32768), ('0x1.28494602bef63p+5', '0x1.03511cb8ab6bbp-42', 65537)),
    ('sum_Ztilde', (2, -0.3, 32769), ('0x1.28494602bef63p+5', '0x1.03511cb8aa638p-42', 65539)),
    ('sum_Ztilde', (2, -0.3, 65535), ('0x1.28494602bef63p+5', '0x1.03511c99b550ep-42', 131071)),
    ('sum_Ztilde', (2, -0.3, 65536), ('0x1.28494602bef63p+5', '0x1.03511c99b548ap-42', 131073)),
    ('sum_Ztilde', (2, -0.3, 65537), ('0x1.28494602bef63p+5', '0x1.03511c99b5406p-42', 131075)),
    ('sum_Ztilde', (2, -0.3, 1000000), ('0x1.28494602bef63p+5', '0x1.03511c97a4e26p-42', 2000001)),
    ('sum_Ztilde', (5, 6.0, 1), ('0x1.e4bf663ed3474p+10', '0x1.818c31fe5b27ap-15', 3)),
    ('sum_Ztilde', (5, 6.0, 2), ('0x1.e4bf664ee96bdp+10', '0x1.0390ea6ddfb2ap-22', 5)),
    ('sum_Ztilde', (5, 6.0, 32767), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 65535)),
    ('sum_Ztilde', (5, 6.0, 32768), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 65537)),
    ('sum_Ztilde', (5, 6.0, 32769), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 65539)),
    ('sum_Ztilde', (5, 6.0, 65535), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 131071)),
    ('sum_Ztilde', (5, 6.0, 65536), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 131073)),
    ('sum_Ztilde', (5, 6.0, 65537), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 131075)),
    ('sum_Ztilde', (5, 6.0, 1000000), ('0x1.e4bf664f1b3e3p+10', '0x1.2ef79ff17106ep-36', 2000001)),
    ('sum_Ztilde', (3, _EDGE_MU, 100000), ('0x1.edd534bce6965p+6', '0x1.edd534bce6967p-41', 200001)),
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
        if name in ("sum_Z", "sum_Ztilde"):
            err = _lattice_error(name, args[0], args[1], r.value)
            assert err <= r.error_bound, (name, args, float(err))


def _centre_out(N, n):
    # m - n over the window m = -N..N, by |m - n| and the lower side first
    d = np.arange(-N - n, N - n + 1)
    return d[np.lexsort((d > 0, np.abs(d)))].astype(np.float64)


def _array_terms(name, args, terms_used, centre_out=False):
    # each oracle's terms built as one whole array, with the same operations
    # in the same order; the lattice sums recentred on the pole that
    # _pole_distance finds, and sum_Ztilde's at k >= 1 centre-out when the
    # kernel has a majorant
    if name == "sum_zeta":
        return np.arange(1, terms_used + 1, dtype=np.float64) ** float(-args[0])
    if name == "sum_beta":
        terms = (2.0 * np.arange(terms_used, dtype=np.float64) + 1.0) ** float(-args[0])
        terms[1::2] *= -1.0
        return terms
    if name == "sum_Z":
        # b - |mu| with b = (2m + 1) pi, and pi - |mu| exact at m = 0: the
        # double dist, whose power the rest r_lo of the residual r corrects
        k, mu, N = args
        near, p = (2.0 * np.arange(N, dtype=np.float64) + 1.0) * np.pi - abs(mu), k + 1
        _, near[0], _, r, r_lo = _pole_distance(mu, "mu", _SEC)
        power = near ** -p
        power[0] += power[0] * math.expm1(-p * math.log1p(r_lo / r))
        if k % 2:
            terms = np.expm1(np.log1p(2.0 * abs(mu) / near) * -p) * power
        else:
            terms = (near + 2.0 * abs(mu)) ** -p + power
        terms[0 if k % 2 and mu > 0 else 1::2] *= -1.0
        return terms
    if name == "sum_Ztilde":
        # (m - n) * 2 pi - r for mu = 2 pi n + r, and at k >= 1 the m = n
        # term's power corrected by the rest r_lo of the residual
        k, mu, N = args
        _, _, n, r, r_lo = _pole_distance(mu, "mu", _COT)
        if k == 0:  # the pairs m, -m, the factors of |mu| = 2 pi n + r at n, r >= 0
            n, r = (n, r) if mu > 0 else (-n, -r)
            x = (np.arange(1, N + 1, dtype=np.float64) - n) * _TWO_PI
            pairs = 2.0 * mu / ((x + (2.0 * n * _TWO_PI + r)) * (x - r))
            return np.append(pairs, -1.0 / mu)
        if centre_out:
            x = _centre_out(N, n) * _TWO_PI - r
        else:
            x = (np.arange(-N, N + 1, dtype=np.float64) - n) * _TWO_PI - r
        terms = 1.0 / np.abs(x) ** (k + 1)
        if k % 2 == 0:
            terms = np.copysign(terms, x)
        i = 0 if centre_out else N + n
        terms[i] += terms[i] * math.expm1(-(k + 1) * math.log1p(r_lo / r))
        return terms
    if name == "sum_inverse_square":
        theta, N = args
        return 1.0 / (np.arange(-N, N + 1, dtype=np.float64) + theta) ** 2
    if name == "sum_cotangent":
        # the kernel sums sum_Ztilde's paired terms at spacing 1, the exact
        # negations of these, and the oracle negates the sum back
        theta, N = args
        n = np.arange(1, N + 1, dtype=np.float64)
        return -np.append(2.0 * theta / ((theta - n) * (theta + n)), 1.0 / theta)
    kind, k, x, M = args
    extra, euler = oracles._HURWITZ[kind]
    if euler:
        h, y = 2.0 * np.arange(M, dtype=np.float64) + 1.0, x
    else:
        h, y = np.arange(1, M + 1, dtype=np.float64), 2.0 * x
    trig = _sinpi_np_mod if extra else _cospi_np_mod
    return trig(y * h, _halving_mod2) / h ** (2 * k + extra)


def _recording_kernel(monkeypatch):
    """Record, for the last kernel call, every block it read and what it
    returned."""
    seen = {"blocks": [], "sums": None, "rest": None}
    stream, block_sums = oracles._stream_sum, oracles._block_sums

    def blocks(block, scratch):
        # the blocks _stream_sum reads, not the terms above a window that
        # _sliced_block sums as a block of their own
        if sys._getframe(1).f_code.co_name == "_stream_sum":
            seen["blocks"].append(block.copy())
        return block_sums(block, scratch)

    def kernel(count, fill, spare=0, rest=None):
        seen["blocks"].clear()
        seen["sums"], seen["rest"] = None, rest
        seen["sums"] = stream(count, fill, spare, rest)
        return seen["sums"]

    monkeypatch.setattr(oracles, "_block_sums", blocks)
    monkeypatch.setattr(oracles, "_stream_sum", kernel)
    return seen


def _read_a_prefix_and_sum_the_whole(seen, want, what):
    # the blocks the kernel read are the whole array's prefix, in order, and
    # its sums are those of the whole array, even where it stopped early
    got = np.concatenate(seen["blocks"])
    sums = seen["sums"]
    assert np.array_equal(got.view(np.int64), want[: got.size].view(np.int64)), what
    assert [x.hex() for x in sums] == [x.hex() for x in _exact_sum(want)], what
    return got.size


def test_streamed_kernel_inputs_match_the_whole_arrays(monkeypatch):
    # every block the kernel sums, against the array it came from: the
    # pinned results alone could miss a term that moved by an ulp
    seen = _recording_kernel(monkeypatch)
    for name, args, _ in _PINNED:
        if args[-1] == 10**6:
            continue
        r = getattr(oracles, name)(*args)
        want = _array_terms(name, args, getattr(r, "terms_used", 0), seen["rest"] is not None)
        _read_a_prefix_and_sum_the_whole(seen, want, (name, args))


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


# ------------------------------------------------------------- early stop


def test_settled_needs_both_ends_of_the_interval_to_round_alike():
    # in units of 2**-_UNIT: 1.0, its ulp and the midpoint to the next double
    one, ulp = 1 << oracles._UNIT, 1 << (oracles._UNIT - 52)
    mid, above = one + ulp // 2, 1.0 + 2.0**-52
    settled = oracles._settled
    assert settled(mid, mid) == 1.0  # the tie goes to the even 1.0
    assert settled(mid + 1, mid + 1) == above
    assert settled(mid - 1, mid + 1) is None  # straddles the midpoint
    assert settled(mid - ulp // 4, mid) == 1.0
    assert settled(mid + 1, mid + ulp // 4) == above
    assert settled(one - ulp // 4, mid - 1) == 1.0
    # the next midpoint's tie goes up, to the even 1 + 2 ulp
    mid2 = mid + ulp
    assert settled(mid2 - 1, mid2) is None
    assert settled(mid2, mid2 + 1) == 1.0 + 2.0**-51
    # a zero's sign counts: [-1, 1] holds sums that round to -0.0 and 0.0
    assert settled(-1, 1) is None
    zeros = settled(0, 1), settled(-2, -1)
    assert zeros == (0.0, 0.0) and [math.copysign(1.0, z) for z in zeros] == [1.0, -1.0]
    # past the double range nothing is settled
    huge = 1 << (oracles._UNIT + 1024)
    assert settled(huge, huge) is None and settled(-huge - 1, -huge) is None


def test_kernel_stops_early_only_when_the_rounding_is_decided():
    # 1.0 and then `tail` terms of 2**-65 with an exact majorant: a tail of
    # 2**12 terms lands on the midpoint 1 + 2**-53, one term more passes it.
    # The unread terms could be negative as far as the kernel knows, so the
    # interval reaches below 1 - 2**-54, the midpoint under 1, as well; each
    # read ends a block (1024, 1024, 2048, 4096 terms)
    step = 2.0**-65
    for tail, want, read in ((2048, 1.0, 1024), (4096, 1.0, 2048),
                             (4097, 1.0 + 2.0**-52, 4098), (8192, 1.0 + 2.0**-52, 8192)):
        count, written = tail + 1, []

        def fill(start, block):
            written.append(block.size)
            block[:] = step
            if start == 0:
                block[0] = 1.0

        value, magnitude = oracles._stream_sum(count, fill, rest=lambda start: (count - start) * step)
        assert value == magnitude == want, tail
        assert sum(written) == read, tail
        assert value == oracles._stream_sum(count, fill)[0]
    # the magnitude must be decided too: 1.0 and then 4100 terms of
    # alternating sign leave the sum at 1.0, decided after 4096 terms read,
    # while the sum of magnitudes passes the midpoint 1 + 2**-53 only in the
    # last five
    count = 4101

    def alternating(start, block):
        block[:] = step
        block[(start + 1) % 2 :: 2] *= -1.0
        if start == 0:
            block[0] = 1.0

    got = oracles._stream_sum(count, alternating, rest=lambda start: (count - start) * step)
    assert got == (1.0, 1.0 + 2.0**-52) == oracles._stream_sum(count, alternating)


def test_kernel_takes_the_scale_from_the_first_block():
    # term 0 dwarfs the rest, 2**-30 (i + 1)**-3: against the terms after the
    # first the majorant falls only 2**-33 by the last term and would be
    # dropped, against the first block's magnitude it settles the sum
    # thousands of terms in, as at sum_Z(3, 3.1, N)
    count = 1 << 17

    def fill(start, block):
        written.append(block.size)
        np.power(np.arange(start + 1, start + block.size + 1, dtype=np.float64), -3.0, out=block)
        block *= 2.0**-30
        if start == 0:
            block[0] = 1.0

    def rest(start):
        # twice the exact bound 2**-30 (H**-3 + H**-2 / 2), H = start + 1
        return 2.0**-29 * ((start + 1.0) ** -3 + (start + 1.0) ** -2 / 2.0)

    assert rest(count) > 2.0**-53 * rest(1)
    written = []
    got = oracles._stream_sum(count, fill, rest=rest)
    assert sum(written) <= count - oracles._BLOCK
    assert [x.hex() for x in got] == [x.hex() for x in oracles._stream_sum(count, fill)]


def test_kernel_drops_a_majorant_that_cannot_settle_the_sum():
    # the majorant of terms i**-2 stays far above 2**-_SETTLE of the first
    # block by 2**17 terms: one short block, then the blocks of a plain sum,
    # with its bits
    count = 1 << 17
    written = []

    def fill(start, block):
        written.append(block.size)
        np.power(np.arange(start + 1, start + block.size + 1, dtype=np.float64), -2.0, out=block)

    got = oracles._stream_sum(count, fill, rest=lambda start: 2.0 / (start + 0.5))
    assert written[:3] == [oracles._FIRST, oracles._BLOCK - oracles._FIRST, oracles._BLOCK]
    del written[:]
    assert got == oracles._stream_sum(count, fill)


def test_kernel_stops_at_the_same_block_when_every_block_is_wide():
    # terms (i + 1)**-6 with every 9th one, from the first, 2**60 smaller,
    # so that every block the kernel reads spans more binades than one
    # window holds and takes more than one: the majorant settles the sum
    # after 4096 terms, in three blocks, with the bits of the whole sum
    count = 1 << 17
    written = []

    def fill(start, block):
        written.append(block.size)
        np.power(np.arange(start + 1, start + block.size + 1, dtype=np.float64), -6.0, out=block)
        block[-start % 9 :: 9] *= 2.0**-60
        assert _route(block)[0] > 1

    def rest(start):
        # twice the first power plus the integral beyond it
        return 2.0 * ((start + 1.0) ** -6 + (start + 1.0) ** -5 / 5.0)

    got = oracles._stream_sum(count, fill, rest=rest)
    assert written == [oracles._FIRST, oracles._FIRST, 2 * oracles._FIRST]
    whole = np.arange(1, count + 1, dtype=np.float64) ** -6.0
    whole[::9] *= 2.0**-60
    assert got == (math.fsum(whole.tolist()),) * 2
    assert [x.hex() for x in got] == [x.hex() for x in oracles._stream_sum(count, fill)]


def test_first_block_is_the_least_power_of_two_the_majorant_allows():
    # terms (i + 1)**-p, their majorant twice the first power plus the
    # integral beyond it: the first block is the least n = 32, 64, ...,
    # _FIRST with rest(n) * 2**54 <= rest(1), or the whole of a shorter sum;
    # a sum settled in its first 32 terms holds a buffer of 32 columns, not
    # of _BLOCK
    for p, count, want in ((6, 10**5, [1024, 1024, 2048]), (8, 10**5, [512]), (10, 10**5, [128]),
                           (12, 10**5, [64]), (16, 10**5, [32]), (60, 10**5, [32]), (60, 20, [20])):
        written = []

        def fill(start, block):
            written.append(block.size)
            np.power(np.arange(start + 1, start + block.size + 1, dtype=np.float64), -float(p), out=block)

        def rest(start):
            return 2.0 * ((start + 1.0) ** -p + (start + 1.0) ** (1 - p) / (p - 1))

        tracemalloc.start()
        try:
            got = oracles._stream_sum(count, fill, rest=rest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written == want, p
        if want == [32]:
            assert peak < 16 * 1024, (p, peak)
        assert [x.hex() for x in got] == [x.hex() for x in oracles._stream_sum(count, fill)], p


def test_majorant_covers_each_terms_rounding():
    # every float term within rel of its exact value, or 2**-1074 below the
    # normal range, and the bound itself as far off: the majorant must sit
    # above (1 + rel)**2 times the bound plus one 2**-1074 a term and more
    tiny = Fraction(oracles._TINY)
    for bound in (1.0, 0.3, 2.0**-1000, 3e-310, 5e-324, 0.0, 1e300):
        for rel in (16 * oracles._EPS, (16 + 4 * 60) * oracles._EPS):
            for left in (0, 1, 1000, 10**6):
                got = Fraction(oracles._majorant(bound, rel, left))
                assert got >= Fraction(bound) * (1 + Fraction(rel)) ** 2 + (left + 3) * tiny


def _early_draws(seed, n):
    # hurwitz_partial, sum_Z and sum_Ztilde at k >= 1 over their domains,
    # the lattice sums from windows of one pair or term up: exact zeros (the
    # B_odd rows at x = 0, 1/2, 1, sum_Z at odd k and mu = 0), subnormal mu,
    # mu next to +-pi and next to the poles 2*pi*n
    rng = np.random.default_rng(seed)
    pi_below = math.nextafter(math.pi, 0.0)
    for _ in range(n):
        which = rng.integers(3)
        k = int(rng.integers(1, 15 if which == 0 else 61))
        if which == 0:
            kind = str(rng.choice(list(oracles._HURWITZ)))
            x = float(rng.choice([0.0, 0.5, 1.0, 0.25, rng.random(), rng.random()]))
            yield "hurwitz_partial", (kind, k, x, int(rng.choice([700, 5000, 10**5])))
            continue
        sign = float(rng.choice([-1.0, 1.0]))
        subnormal = sign * 5e-324 * int(rng.integers(1, 10**6))
        if which == 1:
            mu = float(rng.choice([0.0, subnormal, sign * pi_below,
                                   sign * np.nextafter(pi_below, 0.0) * (1.0 - 1e-9),
                                   rng.uniform(-math.pi, math.pi)]))
            yield "sum_Z", (k, mu, int(rng.choice([1, 3, 10, 3000, 10**5])))
            continue
        pole = _TWO_PI * int(rng.integers(-3, 4))
        mu = float(rng.choice([subnormal, pole + sign * 10.0 ** rng.uniform(-12, -1),
                               rng.uniform(-20.0, 20.0)]))
        mu = mu or 0.5
        N = max(int(rng.choice([1, 3, 10, 3000, 10**5])), round(abs(mu) / _TWO_PI))
        yield "sum_Ztilde", (k, mu, N)


def test_early_stops_give_the_whole_sums_bits(monkeypatch):
    # the kernel's sums where it stopped early are those of the whole term
    # array, every oracle result that of the same sum with no majorant, and
    # sum_Ztilde's centre-out window sums to the bits of the ascending one
    def outcome(oracle, args):
        try:
            return oracle(*args)
        except ToleranceUnreachable as exc:  # a term or the sum past the double range
            return str(exc)

    seen = _recording_kernel(monkeypatch)
    stream = oracles._stream_sum
    early = 0
    for name, args in _early_draws(26, 200):
        oracle = getattr(oracles, name)
        r = outcome(oracle, args)
        kept = dict(seen, blocks=list(seen["blocks"]))
        with monkeypatch.context() as m:
            m.setattr(oracles, "_stream_sum", lambda count, fill, spare=0, rest=None:
                      stream(count, fill, spare))
            assert outcome(oracle, args) == r, (name, args)
        if isinstance(r, str):
            continue
        rest = kept["rest"]
        want = _array_terms(name, args, getattr(r, "terms_used", 0), rest is not None)
        read = _read_a_prefix_and_sum_the_whole(kept, want, (name, args))
        early += read < want.size
        if name == "sum_Ztilde":
            ascending = _array_terms(name, args, r.terms_used)
            assert [x.hex() for x in _exact_sum(ascending)] == [x.hex() for x in kept["sums"]], args
        if rest is not None:
            assert rest(read) >= math.fsum(np.abs(want[read:]).tolist()), (name, args)
    assert early >= 50


def test_terms_below_the_double_range_keep_their_sums():
    # pi**-701 and 2**-1101, the largest terms, underflow to 0: each sum is
    # +0.0, its bound the per-term 2**-1074 allowance, and no power of the
    # first term or of the majorant overflows on the way
    for oracle, args, want in ((sum_Z, (700, 0.0), ("0x0.0p+0", "0x0.0000000002712p-1022", 20000)),
                               (sum_Ztilde, (1100, 2.0), ("0x0.0p+0", "0x0.0000000004e24p-1022", 20001))):
        r = oracle(*args)
        assert (r.value.hex(), r.error_bound.hex(), r.terms_used) == want, (oracle.__name__, args)


def test_lattice_sums_that_settle_early_read_a_few_thousand_terms(monkeypatch):
    # sum_Z(3, 3.1): the m = 0 pair, (pi - 3.1)**-4 = 3e5, dwarfs the rest;
    # sum_Ztilde at a large power, its window written centre-out
    seen = _recording_kernel(monkeypatch)
    for oracle, args in ((sum_Z, (3, 3.1, 10**5)), (sum_Ztilde, (21, 2.5, 10**6)),
                         (sum_Ztilde, (5, 1e-3, 10**5))):
        oracle(*args)
        assert sum(b.size for b in seen["blocks"]) <= 4096, (oracle.__name__, args)


def test_hurwitz_at_large_powers_reads_a_few_thousand_terms(monkeypatch):
    seen = _recording_kernel(monkeypatch)
    for x in (0.0, 0.3, 0.5, 0.9):
        value = hurwitz_partial("B_even", 8, x)
        assert sum(b.size for b in seen["blocks"]) <= 4096, x
        want = float(poly_eval(bernoulli_poly(16), Fraction(x)))
        assert value == pytest.approx(want, rel=1e-12), x
