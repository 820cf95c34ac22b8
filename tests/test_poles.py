"""The one pole rule of the shifted arguments.

Every mu of the lattice sums, their carriers, residues, Taylor coefficients,
tables, oracles and the Apostol integral, and every theta of the integer
lattice, goes through exact_core._pole_distance.  It rejects only a
non-finite value, a true pole, or mu outside (-pi, pi) for Z's family, and
hands the exact distance to the pole, the pole and the signed residual to
whatever reads them.  Truth comes from mpmath at working precisions far
above the doubles it judges.
"""

import math
import random
import sys

import mpmath
import pytest

from telesum import (
    InternalConsistencyError,
    SumResult,
    ToleranceUnreachable,
    Z,
    Z_table,
    Ztilde,
    Ztilde0,
    Ztilde_table,
    apostol_polys,
    cot_taylor_coeffs,
    ek_mu,
    ek_mu_imag_residue,
    ektilde_mu,
    ektilde_mu_imag_residue,
    exact_apostol_integral,
    herglotz_limit,
    herglotz_residual,
    sec_taylor_coeffs,
    sum_cotangent,
    sum_inverse_square,
    sum_Z,
    sum_Ztilde,
)
from telesum.exact_core import _COT, _INT, _SEC, _pole_distance

from hurwitz_truth import truth_or_out_of_range, z_truth, ztilde_truth

# two points at |mu| ~ 6e7, 2.84e-9 and 3.24e-15 from a pole, whose distances
# a reduction by the double 2*math.pi, 2.45e-16 short of 2 pi, misreads as
# under 1e-9 and as 2.53e-9
FAR_MUS = (62831859.35498117, 64819029.805712245)


def _exact_reduction(x, poles):
    # (x, distance, n, residual r) of the nearest pole (2n + odd) h, with the
    # distance and r rounded once from 2400 bits, and the exact residual; a
    # tie (theta = 1/2 + an integer, or mu = 0 between -pi and pi) goes to
    # the pole farther from 0
    odd, pi, _ = poles
    with mpmath.workprec(2400):
        h = mpmath.pi if pi else mpmath.mpf(0.5)
        j = 2 * int(mpmath.floor((abs(mpmath.mpf(x)) / h - odd) / 2 + 0.5)) + odd
        j = -j if x < 0 else j
        r = mpmath.mpf(x) - j * h
        return (x, float(abs(r)), (j - odd) // 2, float(r)), r


def _assert_reduction(x, what, poles):
    # the first four exactly, and r + r_lo within the fixed-point residual's
    # 2**-127 and r_lo's own rounding of the exact residual
    got = _pole_distance(x, what, poles)
    want, exact = _exact_reduction(x, poles)
    assert got[:4] == want, x
    with mpmath.workprec(2400):
        assert abs(mpmath.mpf(got[3]) + got[4] - exact) <= 2.0**-127 + math.ulp(got[4]) / 2, x


def test_the_distance_is_the_double_nearest_the_exact_one():
    rng = random.Random(22)
    xs = [*FAR_MUS, 2 * math.pi, 1e300, -1e300, sys.float_info.max, 5e-324, 1e-12]
    # the double nearest a multiple of pi/2 (J.-M. Muller, Elementary
    # Functions, ch. 11), 4.7e-19 from it
    xs.append(6381956970095103 * 2.0**797)
    xs += [math.nextafter(2 * math.pi * m, d) for m in (1, 3, 10**6) for d in (0.0, math.inf)]
    xs += [math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-60, 1024)) for _ in range(200)]
    for x in xs:
        for y in (x, -x):
            _assert_reduction(y, "mu", _COT)
    windowed = [math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-12, 1.0, 1e-300, 0.0]
    windowed += [rng.uniform(-math.pi, math.pi) for _ in range(100)]
    for mu in windowed:
        _assert_reduction(mu, "mu", _SEC)
    thetas = [0.5, 1e-300, 2.0**51 + 0.5, 3 + 2.0**-51, -7.25]
    thetas += [rng.uniform(-1e6, 1e6) for _ in range(100)]
    for theta in thetas:
        _assert_reduction(theta, "theta", _INT)


def test_only_the_true_poles_and_the_window_are_rejected():
    rejections = (
        (lambda: _pole_distance(0.0, "mu", _COT), "mu = 0.0 is a pole"),
        (lambda: _pole_distance(-0.0, "mu", _COT), "mu = -0.0 is a pole"),
        (lambda: _pole_distance(3.0, "theta", _INT), "theta = 3.0 is a pole"),
        (lambda: _pole_distance(2.0**60, "theta", _INT), "theta = 1.152921504606847e+18 is a pole"),
        (lambda: _pole_distance(math.nextafter(math.pi, 4.0), "mu", _SEC), "mu must lie in (-pi, pi)"),
        (lambda: _pole_distance(math.nan, "mu", _SEC), "mu must be finite"),
        (lambda: _pole_distance(-math.inf, "theta", _INT), "theta must be finite"),
    )
    for call, message in rejections:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    # no double is an odd multiple of pi, nor a nonzero multiple of 2 pi
    assert _pole_distance(-math.pi, "mu", _SEC)[1] == pytest.approx(1.2246467991473532e-16, rel=1e-15)
    assert _pole_distance(2 * math.pi, "mu", _COT)[1] == pytest.approx(2.4492935982947064e-16, rel=1e-15)


def test_points_next_to_the_poles_match_the_truth():
    with mpmath.workdps(60):
        for k in (1, 3, 8):
            for mu in (*FAR_MUS, 1e-12, -1e-12, 2 * math.pi + 1e-13):
                truth_or_out_of_range(Ztilde, k, mu, ztilde_truth(k, mpmath.mpf(mu)))
        # Ztilde(1, mu) = csc(mu/2)**2 / 4 passes DBL_MAX at mu = DBL_MAX**-1/2,
        # where cot(mu/2)**2 has long overflowed
        edge = sys.float_info.max ** -0.5
        for mu in (1e-154, -1.4e-154, edge * (1 + 1e-9), edge * (1 - 1e-9), 5e-324):
            truth_or_out_of_range(Ztilde, 1, mu, 1 / (2 * mpmath.sin(mpmath.mpf(mu) / 2)) ** 2)
        for k in (0, 1, 2, 17, 40):
            for mu in (math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-12):
                truth_or_out_of_range(Z, k, mu, z_truth(k, mpmath.mpf(mu)))
        # Z(40, math.pi) is 2.46e652
        assert z_truth(40, mpmath.mpf(math.pi)) > mpmath.mpf(10) ** 652


def test_the_range_gate_grows_no_row(monkeypatch):
    # each raise is decided by a bound that reads no row, so a cold call
    # grows none, and scales none: growing them to k = 617 takes 0.3-0.4 s
    def no_read(self, k):
        raise AssertionError("row %d read" % k)

    fresh = apostol_polys._DerivativeRows((1,), 0, 1), apostol_polys._DerivativeRows((0, 1), 1, -1)
    monkeypatch.setattr(apostol_polys, "_SEC_ROWS", fresh[0])
    monkeypatch.setattr(apostol_polys, "_COT_ROWS", fresh[1])
    monkeypatch.setattr(apostol_polys._DerivativeRows, "row", no_read)
    for f, k, mu in ((ek_mu, 600, 0.1), (ektilde_mu, 617, 0.001), (Ztilde, 617, 0.001), (Z, 618, -3.0)):
        with pytest.raises(ToleranceUnreachable) as info:
            f(k, mu)
        assert info.value.achieved == math.inf
    assert [(rows.exact, rows.scaled) for rows in fresh] == [([(1,)], {}), ([(0, 1)], {})]


def test_the_row_free_bound_lies_below_every_row():
    # log(|R(t)| / (2**(k+1) k!)) from the exact row, at 30 digits
    for rows, shift in ((apostol_polys._SEC_ROWS, 0), (apostol_polys._COT_ROWS, 1)):
        for k in (*range(0, 21), 40, 41, 100, 301, 618):
            row = rows.row(k)
            for t in (0.0, 1e-300, -1e-8, 0.3, 1.0, -7.0, 1e8, 1e300):
                with mpmath.workdps(30):
                    value = mpmath.fsum(abs(c) * mpmath.mpf(abs(t)) ** j for j, c in enumerate(row) if c)
                    want = mpmath.log(value / (math.factorial(k) << (k + 1))) if value else -mpmath.inf
                assert apostol_polys._log_row_low(k, k + shift, t) <= want + 1e-9, (k, shift, t)


KS = (0, 1, 2, 3, 84, 85, 617, 618)
MUS = sorted(
    {s * x for s in (1.0, -1.0) for x in (5e-324, 1e-323, math.pi, *FAR_MUS, 1e300)}
    | {math.nextafter(2 * math.pi * m, d) for m in (-3, -2, -1, 1, 2, 3) for d in (-math.inf, math.inf)}
)
THETAS = sorted(
    {s * 5e-324 for s in (1.0, -1.0)}
    | {math.nextafter(float(n), d) for n in (0, 1, -1, 3, -3, 2**40) for d in (-math.inf, math.inf)}
)
TYPED = (ValueError, ToleranceUnreachable, InternalConsistencyError)


def _finite(value):
    if isinstance(value, SumResult):
        return _finite((value.value, value.error_bound))
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    return isinstance(value, float) and math.isfinite(value)


def _calls():
    # at k = 617 and 618 one complex route takes about 0.1 s, so the calls
    # that build one (Z and Ztilde by "auto", the residues) run there at
    # 5e-324 and math.pi only; the cot residue at 5e-324 runs its Horner on
    # integers of 1075 k bits, and at k <= 85 only
    for k in KS:
        for mu in MUS:
            if k < 617 or mu in (5e-324, math.pi):
                yield Z, (k, mu)
                yield Ztilde, (k, mu)
                yield ek_mu_imag_residue, (k, mu)
            if k < 617 or mu == math.pi:
                yield ektilde_mu_imag_residue, (k, mu)
            yield Z, (k, mu, "taylor")
            yield Ztilde, (k, mu, "taylor")
            yield ek_mu, (k, mu)
            yield ektilde_mu, (k, mu)
            yield Z_table, (k, mu)
            yield Ztilde_table, (k, mu)
            yield sum_Z, (k, mu, 100)
            yield sum_Ztilde, (k, mu, 100)
            yield exact_apostol_integral, (k, -1, mu)
            yield exact_apostol_integral, (k, 0, mu)
    for mu in MUS:
        yield Ztilde0, (mu,)
        for K in (3, 618) if mu in (5e-324, math.pi) else (3,):
            yield sec_taylor_coeffs, (mu, K)
            yield cot_taylor_coeffs, (mu, K)
    for theta in THETAS:
        for oracle in (sum_inverse_square, sum_cotangent, herglotz_residual, herglotz_limit):
            yield oracle, (theta, 100)


def test_extreme_parameters_give_a_finite_value_or_a_typed_error():
    count = 0
    for f, args in _calls():
        try:
            value = f(*args)
        except TYPED:
            continue
        assert _finite(value), (f.__name__, args, value)
        count += 1
    assert count > 500


def _lattice_truths():
    # (oracle, args, truth) within 1e-12 of a pole of each lattice
    d = 1e-12
    for m in (0, 1, -2, 3):
        for mu in (2 * math.pi * m + d, 2 * math.pi * m - d):
            yield sum_Ztilde, (0, mu), -mpmath.cot(mpmath.mpf(mu) / 2) / 2
            for k in (1, 5):
                yield sum_Ztilde, (k, mu), ztilde_truth(k, mpmath.mpf(mu))
    for n in (0, 1, -1, 3, -3):
        for theta in (n + d, n - d):
            t = mpmath.mpf(theta)
            yield sum_inverse_square, (theta,), (mpmath.pi / mpmath.sinpi(t)) ** 2
            yield sum_cotangent, (theta,), mpmath.pi * mpmath.cospi(t) / mpmath.sinpi(t)


def test_the_oracles_bounds_hold_next_to_every_pole():
    with mpmath.workdps(60):
        for oracle, args, want in _lattice_truths():
            r = oracle(*args)
            assert abs(r.value - want) <= r.error_bound, (oracle.__name__, args)
