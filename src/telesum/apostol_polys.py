"""Apostol-Euler and Apostol-Bernoulli polynomials at a fixed complex
parameter, and the derivative polynomials of sec and cot, the one engine
for the derivatives of sec(w/2) and -cot(w/2) about a real center.

The deformed families come from the Apostol-Euler numbers e_n(lam) of the
generating function 2 / (lam e^z + 1), which obey the O(n^2) recurrence

    e_n = (2 [n == 0] - lam * sum_{j<n} C(n, j) e_j) / (1 + lam);

a polynomial is expanded from them only when one is asked for.  The
carriers ek_mu, i**k e^(i mu/2) E_k(1/2; e^(i mu)), and ektilde_mu,
i**(k+1) e_k(-e^(i mu)), use the explicit form instead: expanding
2 / (lam e^z + 1) as a geometric series in w (e^z - 1) (cf. Q.-M. Luo,
Taiwanese J. Math. 10 (2006) 917-925) gives

    e^(i mu/2) E_k(1/2; e^(i mu)) = 2**-k sec(mu/2) sum_j T_k(j) w**j,
        w = -e^(i mu/2) / (2 cos(mu/2)) = -1/2 - (i/2) tan(mu/2),
    e_k(-e^(i mu)) = i e^(-i mu/2) / sin(mu/2) sum_j j! S(k, j) v**j,
        v = i e^(i mu/2) / (2 sin(mu/2)) = -1/2 + (i/2) cot(mu/2),

where T_k(j) and j! S(k, j) are the j-th forward differences at 0 of
(2i + 1)**k and i**k.  Both rows are exact integers, and the point's one
real number is tan or cot of the half angle, so a value is one Horner over
k + 1 integers in fixed point, never formed from 1 +- lam.

The derivative polynomials of sec and cot are the other route.  Their exact
integer rows -- sec^(k) x = sec x Q_k(tan x), Q_{k+1} = t Q_k + (1 + t^2) Q_k',
and cot^(k) x = P_k(cot x), P_{k+1} = -(1 + u^2) P_k' (M. E. Hoffman, Amer.
Math. Monthly 102 (1995) 23-30; K. Boyadzhiev, IJMMS 2007) -- grow on demand
and have one sign and fixed parity.  In mpmath they give the lattice sums'
"taylor" route; in doubles, the certified route.  The carriers and the
Taylor coefficients are 2*k! times closed_forms' Z and Ztilde, and one
evaluator per family (_sec_value, _cot_value) serves all three: it takes mu
and its exact distance to the pole from exact_core._pole_distance, the one
domain check and the one reduction of every shifted argument (the lattice
oracles take the nearest pole and the residual from it too); gates the
double range on a bound that reads no row, then on the certified value; and
runs a route and cross-checks it (_checked).

The carriers, their residues and the Taylor coefficients work at
DEFAULT_DPS significant digits; only the deformed polynomials take a dps
argument, None for DEFAULT_DPS or an integer >= 1.  Double precision is not
enough here: the explicit sums cancel, by up to hundreds of digits at large
k, and downstream consumers need small *absolute* error on values that reach
1e16 next to the poles of sec(mu/2).  The carriers therefore run their Horner
on Gaussian integers with P fraction bits, the active precision's bits plus
a fixed guard: the error, bounded through the next lattice sum, needs no
more (_route_precision), and Z at odd k adds the bits of its smaller target
(_sec_value).  tan or cot is rounded once to P bits with mpmath.libmp, and
each step is an integer multiply and shift.  The polynomials and the Taylor
route run in mpmath.  A route's value becomes a double only in _finite_float,
rounded once (Z and Ztilde divide by 2*k! inside it): the nearest double
unless the value lies within the route's error of a midpoint, which nothing
tests yet, so not a certified rounding.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    mpf_cos_sin,
    mpf_div,
    mpf_mul,
    mpf_shift,
    round_nearest,
    to_fixed,
    to_rational,
)

from .classical_polys import bernoulli_poly
from .exact_core import (
    _COT,
    _SEC,
    InternalConsistencyError,
    ToleranceUnreachable,
    _check_int,
    _nearest_float,
    _pole_distance,
)

__all__ = [
    "DEFAULT_DPS",
    "TOL_IMAG",
    "CPoly",
    "apostol_euler_poly",
    "apostol_bernoulli_poly",
    "ek_mu",
    "ektilde_mu",
    "ek_mu_imag_residue",
    "ektilde_mu_imag_residue",
    "sec_taylor_coeffs",
    "cot_taylor_coeffs",
]

DEFAULT_DPS = 40

# Imaginary residue allowed in values that must come out real, relative to
# max(1, |value|) so factorial growth of the values does not trip the check.
TOL_IMAG = 1e-9

# Largest k of Z, Ztilde and the carriers: past it the scaled coefficients
# of Q_k and P_k (down to about 2 / pi**(k+1)) leave the normal double range
# and the certified bound would no longer hold.
MAX_K = 618

_LOG_DBL_MAX = math.log(sys.float_info.max)
_U = 2.0 ** -53
# Assumed bound on the relative error of the platform's tan and cos: 2 ulp.
_LIBM = 2.0 ** -51
_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
# Absolute error a checked value can pick up when rounded into the
# subnormal range.
_SUBNORMAL_FLOOR = 2.0 ** -1072


# Fraction bits of the complex routes past the active precision (_route_precision)
_ROUTE_GUARD = 5

ComplexLike = Union[complex, float, int, "mpmath.mpc", "mpmath.mpf"]


def _as_mpc(value: ComplexLike, name: str = "lambda") -> mpmath.mpc:
    z = mpmath.mpc(value)
    if not mpmath.isfinite(z):
        raise ValueError("%s must have finite real and imaginary parts" % name)
    return z


class CPoly:
    """Dense univariate polynomial with complex high-precision coefficients.

    Unlike Poly, coefficients are *not* trimmed: the length records the
    nominal degree, which is exact for the Apostol families (degree k for the
    Euler-type polynomial, k-1 for the Bernoulli-type one).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[ComplexLike]) -> None:
        object.__setattr__(
            self, "coeffs", tuple(_as_mpc(c, "coefficient") for c in coeffs)
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: ComplexLike) -> mpmath.mpc:
        acc = mpmath.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "CPoly":
        if len(self.coeffs) <= 1:
            return CPoly([mpmath.mpc(0)])
        return CPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        return "CPoly(%r)" % (list(self.coeffs),)


def _appell_numbers(upto: int, lam: mpmath.mpc) -> List[mpmath.mpc]:
    """The Apostol-Euler numbers e_0(lam) .. e_upto(lam), at the active
    working precision."""
    numbers: List[mpmath.mpc] = []
    for n in range(upto + 1):
        acc = sum(math.comb(n, j) * numbers[j] for j in range(n))
        numbers.append(((2 if n == 0 else 0) - lam * acc) / (1 + lam))
    return numbers


def _apostol_euler_coeffs(k: int, lam: mpmath.mpc) -> List[mpmath.mpc]:
    """Coefficients, low to high, of E_k(x; lam) = sum_i C(k,i) e_{k-i} x**i."""
    numbers = _appell_numbers(k, lam)
    return [math.comb(k, i) * numbers[k - i] for i in range(k + 1)]


def apostol_euler_poly(
    k: int, lam: ComplexLike, dps: Optional[int] = None
) -> CPoly:
    """Lambda-deformed Euler polynomial of index k at fixed parameter lam.

    lam = -1 is a pole of the generating function and lam = 0 degenerates it;
    both are rejected.  At lam = 1 the classical Euler polynomial is
    recovered.  The coefficients are computed at dps digits (DEFAULT_DPS if
    None, otherwise an integer >= 1).
    """
    k = _check_int(k, "k", 0)
    lam = _as_mpc(lam)
    if lam == 0:
        raise ValueError("parameter lambda = 0 is excluded")
    if lam == -1:
        raise ValueError("parameter lambda = -1 is excluded (pole)")
    with mpmath.workdps(DEFAULT_DPS if dps is None else _check_int(dps, "dps", 1)):
        return CPoly(_apostol_euler_coeffs(k, lam))


def apostol_bernoulli_poly(
    k: int, lam: ComplexLike, dps: Optional[int] = None
) -> CPoly:
    """Lambda-deformed Bernoulli polynomial of index k >= 1.

    For lam != 1 it is -(k/2) times the index-(k-1) deformed Euler polynomial
    at parameter -lam (and has degree k-1); at lam = 1 the classical
    Bernoulli polynomial is returned, lifted to complex coefficients.
    """
    k = _check_int(k, "k", 1)
    lam = _as_mpc(lam)
    if lam == 0:
        raise ValueError("parameter lambda = 0 is excluded")
    with mpmath.workdps(DEFAULT_DPS if dps is None else _check_int(dps, "dps", 1)):
        if lam == 1:
            return CPoly(
                [
                    mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator)
                    for c in bernoulli_poly(k).coeffs
                ]
            )
        scale = -mpmath.mpf(k) / 2
        return CPoly([scale * c for c in _apostol_euler_coeffs(k - 1, -lam)])


def _difference_row(k: int, start: int, step: int) -> Tuple[int, ...]:
    """Forward differences 0..k at 0 of f(i) = (start + step*i)**k, exactly."""
    row = [(start + step * i) ** k for i in range(k + 1)]
    for n in range(k):
        # row[n + 1:] becomes the (n + 1)-th differences
        for i in range(k, n, -1):
            row[i] -= row[i - 1]
    return tuple(row)


def _route_precision(k: int, dist: float, log_floor: Optional[float] = None) -> Tuple[int, int]:
    """(P, Q): fraction bits P of the fixed-point route scale * sum_j row[j]
    x**j, x = -1/2 -+ (i/2) tan or cot of the half angle: the active
    precision's bits plus G = _ROUTE_GUARD, which hold the error under a
    tenth of the allowance A = 2*k! * 4 (k+1) 10**-dps dist**-(k+1) at the
    active dps (_log_floor), plus those that take A down to 2*k! *
    e**log_floor if given; Q, the precision of cos and sin of the half angle
    that puts tan or cot within 2**-(P + 6).

    With c = csc(dist/2) <= pi/dist, |x| = c/2, |scale| = 2**-k c on Z's
    lattice and c on Ztilde's, V the route's value, 2*k! times the sum, and
    every lattice sum at most its terms' sizes, 4 dist**-(k+1) (so |V| <= 8
    k! dist**-(k+1), and at k = 0 as sec(mu/2) <= pi/dist), the route errs,
    in units of 10**dps A 2**-P = 8 (k+1) k! dist**-(k+1) 2**-P, by at most
    - 2**(1/2 - P) per Horner product truncated, amplified by |x|**j, and
      once more for Ztilde's factor cot - i: 2**(1/2 - P) (|scale| k
      max(1, |x|)**(k-1) + 1) <= 2**(1/2 - P) (k+1) (pi/dist)**(k+1), or
      sqrt(2) pi**(k+1) / (8 k!) <= 2.87 units (at k = 3);
    - the point y, the one rounded input, off by under 1.01 * 2**-P: the
      value is V as a function of y, so it moves by |dV/dmu| |dmu/dy|, plus
      |V| |sin mu| from Z's prefactor sec(mu/2) taken at the exact point,
      times 1.01 * 2**-P; dV/dmu is 2 (k+1)! times the next lattice sum and
      |dmu/dy| = 4 sin(dist/2)**2 <= dist**2, so 1.01 (k+2) dist / (k+1)
      <= 6.35 units;
    - the last roundings, to P bits and Q bits: 2**(1-P) |V|, 2 units.
    That is 11.3 units, and 2**-prec < 10**-dps / 7, so the error is under
    1.62 * 2**-G A: G = 5, the least G that keeps it under a tenth of A,
    holds it under a nineteenth, with room for the terms of second order in
    2**-P.  No row is read.
    """
    bits = mpmath.mp.prec + _ROUTE_GUARD
    if log_floor is not None:
        bits += max(0, math.ceil((_log_floor(k, dist) - log_floor) / _LN2))
    # log csc(dist/2); below 2**-26, sin(dist/2) is dist/2 to 2**-55, and
    # dist/2 (it may round) is not formed
    log_csc = _LN2 - math.log(dist) if dist < 2.0 ** -26 else -math.log(math.sin(dist / 2))
    return bits, bits + 8 + max(0, math.floor(log_csc / _LN2) + 1)


def _fixed_horner(row: Sequence[int], y: int, bits: int) -> Tuple[int, int]:
    """sum_j row[j] x**j at x = -1/2 + i y 2**-bits, as the real and
    imaginary parts of its value times 2**bits, each product truncated once."""
    half = bits - 1
    re, im = row[-1] << bits, 0
    for c in row[-2::-1]:
        re, im = ((-(re << half) - im * y) >> bits) + (c << bits), (re * y - (im << half)) >> bits
    return re, im


def _gaussian_mpc(quarter_turns: int, re: int, im: int, exp: int, factor, prec: int) -> mpmath.mpc:
    """i**quarter_turns (re + i im) 2**exp times the real libmp factor, with
    prec-bit parts."""
    for _ in range(quarter_turns % 4):
        re, im = -im, re
    return mpmath.mp.make_mpc(
        tuple(mpf_mul(from_man_exp(n, exp), factor, prec, round_nearest) for n in (re, im))
    )


def _ek_complex(k: int, mu: float, dist: float, log_floor: Optional[float] = None) -> mpmath.mpc:
    # i**k * e^(i mu/2) * E_k(1/2; e^(i mu)), mu at distance dist from the
    # pole, within the active precision's allowance, or within 2*k! *
    # e**log_floor if given (Z at odd k, _sec_value): i**k 2**-k sec(mu/2)
    # sum_j T_k(j) w**j, w = -1/2 - (i/2) tan(mu/2)
    row = _difference_row(k, 1, 2)
    bits, prec = _route_precision(k, dist, log_floor)
    cos, sin = mpf_cos_sin(mpf_shift(from_float(mu), -1), prec)
    re, im = _fixed_horner(row, -to_fixed(mpf_div(sin, cos, prec), bits - 1), bits)
    return _gaussian_mpc(k, re, im, -bits - k, mpf_div(fone, cos, prec), bits)


def _ektilde_complex(k: int, mu: float, dist: float) -> mpmath.mpc:
    # i**(k+1) * e^(i mu) * E_k(1; -e^(i mu)), k >= 1, within the same
    # allowance; the difference equation lam E_k(1; lam) = -e_k(lam), taken
    # at -lam, makes it i**(k+1) e_k(-e^(i mu)) =
    # -i**k (cot(mu/2) - i) sum_j j! S(k, j) v**j, v = -1/2 + (i/2) cot(mu/2)
    row = _difference_row(k, 0, 1)
    bits, prec = _route_precision(k, dist)
    cos, sin = mpf_cos_sin(mpf_shift(from_float(mu), -1), prec)
    y = to_fixed(mpf_div(cos, sin, prec), bits - 1)
    re, im = _fixed_horner(row, y, bits)
    # times cot(mu/2) - i, with cot(mu/2) = 2 y 2**-bits
    re, im = ((y * re) >> (bits - 1)) + im, ((y * im) >> (bits - 1)) - re
    return _gaussian_mpc(k + 2, re, im, -bits, fone, bits)


def _log_floor(k: int, dist: float) -> float:
    """Log of the absolute error allowance of a high-precision route.

    The terms of either lattice sum add up in absolute value to at most
    4 * dist**-(k+1), where dist is the distance from mu to the nearest
    pole; the allowance is 10**-DEFAULT_DPS * (k+1) times that.  The complex
    route runs _ROUTE_GUARD bits past the working precision, which keeps it
    under a tenth of it (_route_precision); measured against Hurwitz-zeta
    truth at 100 digits for k <= 250, it stays under 3e-3 of it, within
    1e-8 of the poles too.  The Taylor route's terms share one sign and do
    not cancel.  It only matters near zeros of the sum, where Z's routes
    are held to less (_sec_value): next to its value it is at most 1e-37
    relative.
    """
    return math.log(4.0 * (k + 1)) - DEFAULT_DPS * _LN10 - (k + 1) * math.log(dist)


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _allowance(k: int, dist: float) -> mpmath.mpf:
    # 2*k! * e**_log_floor: the route's own noise on 2*k! times a lattice
    # sum, whose float underflows to 0 from k = 577 at dist = pi and
    # overflows near a pole: e**log = 2**n e**(log - n ln 2)
    # is scaled in mpmath, a few times cheaper than its exp
    log = _log_floor(k, dist)
    n = math.floor(log / _LN2)
    return mpmath.ldexp(math.exp(log - n * _LN2), n) * 2 * math.factorial(k)


def _check_residue(z: mpmath.mpc, k: int, dist: float, what: str) -> None:
    """Raise InternalConsistencyError unless z, 2*k! times a lattice sum from
    an mpmath route, has |Im z| <= TOL_IMAG * |Re z| + 2*k! * e**_log_floor: the
    floor is the route's own noise, all that is left where the value is 0."""
    allowed = TOL_IMAG * abs(z.real) + _allowance(k, dist)
    if abs(z.imag) > allowed:
        raise InternalConsistencyError(
            "%s should be real; imaginary residue %s exceeds the allowed %s"
            % (what, mpmath.nstr(abs(z.imag), 5), mpmath.nstr(allowed, 5))
        )


def _finite_float(value: mpmath.mpf, what: str, scale: int = 1) -> float:
    """value / scale rounded once to the nearest double, as an integer ratio
    with no exponent limit; ToleranceUnreachable (achieved = inf) beyond the
    double range.  Every route's value leaves mpmath for a double here."""
    out = math.inf
    if mpmath.isfinite(value):
        num, den = to_rational(value._mpf_)
        # int(): mpmath's mantissas are gmpy integers when gmpy is installed
        out = _nearest_float(int(num), int(den) * scale)
    if math.isinf(out):
        raise ToleranceUnreachable(
            "%s, %s, lies beyond the double-precision range" % (what, mpmath.nstr(value / scale, 5)),
            achieved=math.inf,
        )
    return out


def _finite_complex(value: mpmath.mpc, what: str) -> complex:
    """value rounded to a complex, each part through _finite_float."""
    return complex(
        _finite_float(value.real, "the real part of " + what),
        _finite_float(value.imag, "the imaginary part of " + what),
    )


def _check_max_k(k: int) -> None:
    if k > MAX_K:
        raise ValueError(
            "k must be <= %d, where the certified route's coefficients leave "
            "the double range" % MAX_K
        )


def _gate(log_low: float, k: int, carrier: bool, what: str) -> None:
    # ToleranceUnreachable (achieved = inf) when log_low, a lower bound on log
    # |Z| or |Ztilde|, puts the result (times 2*k! for a carrier) past
    # log(DBL_MAX) by 1e-6, more than the bound's rounding and half an ulp
    if carrier:
        log_low += _LN2 + math.lgamma(k + 1)
    if log_low > _LOG_DBL_MAX + 1e-6:
        raise ToleranceUnreachable("%s lies beyond the double-precision range" % what, math.inf)


def _log_row_low(k: int, deg: int, t: float) -> float:
    """A lower bound on log(|R(t)| / (2**(k+1) k!)), R = Q_k (deg = k) or P_k
    (deg = k + 1), that reads no row: R's terms share one sign, it leads with
    +-k! t**deg, and its lowest term is A_k, or A_(k+1) t at odd deg, for the
    zigzag numbers A_n >= (4/3)(2/pi)**(n+1) n!."""
    log_t = _log_abs(t)
    low = math.log(4 / 3) - (k + 1) * _LN_PI
    if deg % 2:
        low += math.log(2 * k + 2) - _LN_PI + log_t
    return max(deg * log_t - (k + 1) * _LN2 if t else -math.inf, low)


def _checked(
    k: int, route: Callable[[], mpmath.mpc], certified: Tuple[float, float, float, float],
    dist: float, carrier: bool, what: str,
) -> float:
    """Re z for a carrier, else Re z / (2*k!), where z = route() is 2*k!
    times a lattice sum from an mpmath route, built only once log_low, a
    lower bound on log |sum|, passes _gate; certified = (check, rel,
    log_floor, log_low) from the certified route.  z's imaginary residue
    must pass _check_residue, and z over 2*k! must agree with check to
    |value - check| <= (rel + 4u) * |check| + floor: rel bounds check's
    error, 4u this value's one rounding (_finite_float), and the floor,
    e**log_floor up to exp(700), the route's own error and subnormal rounding.
    """
    check, rel, log_floor, log_low = certified
    _gate(log_low, k, carrier, what)
    with mpmath.workdps(DEFAULT_DPS):
        z = route()
    _check_residue(z, k, dist, what)
    value = _finite_float(z.real, what, 2 * math.factorial(k))
    floor = math.exp(min(log_floor, 700.0))
    allowed = (rel + 4 * _U) * abs(check) + floor + _SUBNORMAL_FLOOR
    if abs(value - check) > allowed:
        raise InternalConsistencyError(
            "%s: the route gives %r, the certified derivative-polynomial route "
            "%r (allowed difference %.3e)" % (what, value, check, allowed)
        )
    return _finite_float(z.real, what) if carrier else value


def _label(names: Tuple[str, str, str], k: int, mu: float, taylor: bool, carrier: bool) -> str:
    # (sum, carrier, function): a carrier from the taylor route is a Taylor
    # coefficient
    if taylor and carrier:
        return "derivative %d of %s(mu/2)" % (k, names[2])
    return "%s(%d, %r)" % (names[carrier], k, mu)


def _sec_value(k: int, mu: float, taylor: bool, carrier: bool) -> float:
    """Z(k, mu), or ek_mu(k, mu) = 2*k! Z(k, mu) for a carrier, from the
    taylor or the complex route, checked by _checked against the certified
    value sec(mu/2) Q_k(tan(mu/2)) / (2**(k+1) k!) in doubles; k <= MAX_K.

    The check holds the routes to the _log_floor allowance, or to rel |Z|
    where that is smaller, as only at odd k next to mu = 0, where Z vanishes
    like mu and is at least its lowest term c |tan(mu/2)| >= c |mu| / 2, in
    range where the value underflows.  At odd k the complex route itself
    runs to DEFAULT_DPS digits of that lower bound on |Z|, a few bits past
    the allowance away from the zero, so that its one rounding stays safe
    next to it.  At mu = 0 the complex route is exact."""
    _check_max_k(k)
    mu, dist = _pole_distance(mu, "mu", _SEC)[:2]
    what = _label(("Z", "ek_mu", "sec"), k, mu, taylor, carrier)
    half = mu / 2.0
    t = math.tan(half)
    # |Z| >= |Q_k(t)| / (2**(k+1) k!), as sec(mu/2) >= 1
    _gate(_log_row_low(k, k, t), k, carrier, what)
    value, rel = _SEC_ROWS.value(k, t)
    value /= math.cos(half)
    log_floor, log_z, target = _log_floor(k, dist), _log_abs(value), None
    if k % 2 and mu:
        log_z = max(log_z, math.log(_SEC_ROWS.scaled[k][-1]) + math.log(abs(mu)) - _LN2)
        log_floor = min(log_floor, math.log(rel) + log_z)
        target = log_z - DEFAULT_DPS * _LN10
    if taylor:
        route = lambda: _row_value(_SEC_ROWS, k, *_sec_point(mu))
    else:
        route = lambda: _ek_complex(k, mu, dist, target)
    return _checked(k, route, (value, rel, log_floor, log_z), dist, carrier, what)


def _cot_value(k: int, mu: float, taylor: bool, carrier: bool) -> float:
    """Ztilde(k, mu), or ektilde_mu(k, mu) = 2*k! Ztilde(k, mu), as
    _sec_value; the certified value is -P_k(cot(mu/2)) / (2**(k+1) k!)."""
    _check_max_k(k)
    mu, dist = _pole_distance(mu, "mu", _COT)[:2]
    what = _label(("Ztilde", "ektilde_mu", "-cot"), k, mu, taylor, carrier)
    # cot(mu/2), never 0; mu/2 is 0 only at the least subnormal mu, past range
    t = 1.0 / math.tan(mu / 2.0) if mu / 2.0 else math.inf
    _gate(_log_row_low(k, k + 1, t), k, carrier, what)
    check, rel = _COT_ROWS.value(k, t)
    # -P_k = (-1)**(k+1) |P_k|
    certified = (check if k % 2 else -check, rel, _log_floor(k, dist), _log_abs(check))
    if taylor:
        route = lambda: _row_value(_COT_ROWS, k, *_cot_point(mu))
    else:
        route = lambda: _ektilde_complex(k, mu, dist)
    return _checked(k, route, certified, dist, carrier, what)


def ek_mu(k: int, mu: float) -> float:
    """k-th derivative of sec(mu/2) via the complex polynomial route.

    Computes i**k * e^(i mu/2) * E_k(1/2; e^(i mu)) from its explicit form,
    which is exactly 2*k! Z(k, mu), and returns its real part: the route,
    the domain (0 <= k <= MAX_K, -pi < mu < pi), the residue rule and the
    cross-check against the certified value are Z's (_sec_value).  A value
    beyond the double range raises ToleranceUnreachable, with no route
    built once a bound shows it; Z divides by 2*k! before it rounds, so it
    stays finite where this one cannot.
    """
    k = _check_int(k, "k", 0)
    return _sec_value(k, mu, False, True)


def ektilde_mu(k: int, mu: float) -> float:
    """k-th derivative of -cot(mu/2) via the complex polynomial route, k >= 1.

    The k = 0 combination i * e^(i mu) * E_0(1; -e^(i mu)) is not real (its
    imaginary part is identically -1), so k = 0 is rejected; use the direct
    convention -1/tan(mu/2) instead.  The value is i**(k+1) * e_k(-e^(i mu))
    from its explicit form, exactly 2*k! Ztilde(k, mu); the domain (k <=
    MAX_K), the checks and the errors are Ztilde's and ek_mu's (_cot_value).
    """
    k = _check_int(k, "k")
    if k < 1:
        raise ValueError(
            "k must be >= 1; the k = 0 value is the convention -1/tan(mu/2)"
        )
    return _cot_value(k, mu, False, True)


def _scaled_residue(route, poles, k: int, mu: float) -> float:
    """|Im z| / max(1, |z|, allowance / TOL_IMAG) for z = route(k, mu, dist),
    k <= MAX_K, rounded once from mpmath (|z| may be past the double range).
    The allowance keeps the noise at a zero of the sum from reading as a
    fully imaginary value: whatever passes _check_residue reports <= 2 *
    TOL_IMAG."""
    _check_max_k(k)
    mu, dist = _pole_distance(mu, "mu", poles)[:2]
    with mpmath.workdps(DEFAULT_DPS):
        z = route(k, mu, dist)
        return float(abs(z.imag) / max(1, abs(z), _allowance(k, dist) / TOL_IMAG))


def ek_mu_imag_residue(k: int, mu: float) -> float:
    """Scaled imaginary residue of the ek_mu combination (_scaled_residue)."""
    k = _check_int(k, "k", 0)
    return _scaled_residue(_ek_complex, _SEC, k, mu)


def ektilde_mu_imag_residue(k: int, mu: float) -> float:
    """Scaled imaginary residue of the ektilde_mu combination, k >= 1."""
    k = _check_int(k, "k", 1)
    return _scaled_residue(_ektilde_complex, _COT, k, mu)


class _DerivativeRows:
    """One derivative-polynomial family, grown on demand.

    ``exact[k]`` holds the integer coefficients of the k-th polynomial,
    lowest degree first; ``scaled[k]`` holds the magnitudes of those that
    parity allows, highest degree first, each divided by 2**(k+1) * k! and
    correctly rounded.  Row k + 1 has coefficients
    sign * ((j - shift) * row[j-1] + (j+1) * row[j+1]).  Both lists only
    grow, under a lock, so readers always see a fully built prefix; nothing
    past the seed row is built until a value asks for it.
    """

    def __init__(self, seed: Tuple[int, ...], shift: int, sign: int) -> None:
        self.exact: List[Tuple[int, ...]] = [seed]
        self.scaled: List[Tuple[float, ...]] = [_scaled_row(seed, 0)]
        self._shift = shift
        self._sign = sign
        self._lock = threading.Lock()

    def _grow(self, k: int) -> None:
        with self._lock:
            while len(self.scaled) <= k:
                row = self.exact[-1]
                padded = (0, *row, 0, 0)
                new = tuple(
                    self._sign * ((j - self._shift) * padded[j] + (j + 1) * padded[j + 2])
                    for j in range(len(row) + 1)
                )
                self.exact.append(new)
                self.scaled.append(_scaled_row(new, len(self.scaled)))

    def row(self, k: int) -> Tuple[int, ...]:
        """The exact row k, built through k on first use."""
        if k >= len(self.scaled):
            self._grow(k)
        return self.exact[k]

    def value(self, k: int, t: float) -> Tuple[float, float]:
        """Row k at t over 2**(k+1) * k!, up to sign, and its relative error bound.

        Horner steps by t twice, over coefficients of one sign in t*t, so no
        partial result passes max(sum of the coefficients, |result|), as t*t
        itself may (Ztilde(1, 1e-154) is 1e308, and t*t 4e308).  The bound
        covers the rounded coefficients, Horner (4 roundings per step, two
        of them for underflow in the products), the final products, and the
        libm error in t amplified by the degree d, plus one libm call for
        the caller's prefactor; 1.01 covers the terms of second order.
        """
        d = len(self.row(k)) - 1
        coeffs = self.scaled[k]
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = acc * t * t + c
        if d % 2:
            acc *= t
        n = len(coeffs)
        return acc, 1.01 * ((5 * n + d + 4) * _U + (d + 1) * _LIBM)


def _scaled_row(row: Tuple[int, ...], k: int) -> Tuple[float, ...]:
    norm = math.factorial(k) << (k + 1)
    return tuple(abs(c) / norm for c in row[::-2])


# sec^(k)(x) = sec(x) Q_k(tan x) and cot^(k)(x) = P_k(cot x)
_SEC_ROWS = _DerivativeRows((1,), 0, 1)
_COT_ROWS = _DerivativeRows((0, 1), 1, -1)


def _row_value(rows: _DerivativeRows, j: int, x: mpmath.mpf, scale) -> mpmath.mpf:
    # scale * 2**-j * row j at x, in the active precision: the j-th derivative
    # in mu of sec(mu/2) (x = tan(mu/2), scale = sec(mu/2)) or of -cot(mu/2)
    # (x = cot(mu/2), scale = -1).  Once x**j is taken into account the terms
    # of a row share one sign, so Horner does not cancel; it runs in x**2
    # over the coefficients that parity allows, times x at odd degree.
    row = rows.row(j)
    value = mpmath.polyval(row[::-2], x * x)
    if len(row) % 2 == 0:
        value *= x
    return mpmath.ldexp(scale * value, -j)


# (x, scale) of _row_value at a checked mu.  A Taylor table reads every
# entry at one mu, so the last point is kept; every caller runs inside
# _checked's workdps(DEFAULT_DPS), so a kept point is never of another
# precision
@functools.lru_cache(maxsize=1)
def _sec_point(mu: float) -> Tuple[mpmath.mpf, mpmath.mpf]:
    half = mpmath.mpf(mu) / 2
    return mpmath.tan(half), mpmath.sec(half)


@functools.lru_cache(maxsize=1)
def _cot_point(mu: float) -> Tuple[mpmath.mpf, int]:
    return mpmath.cot(mpmath.mpf(mu) / 2), -1


def sec_taylor_coeffs(mu: float, K: int) -> List[float]:
    """Derivatives 0..K of sec(mu/2), read from the derivative polynomials.

    Entry j, the j-th derivative with respect to mu (j! times the j-th
    Taylor coefficient of sec((mu + t)/2) at t = 0), is
    2**-j sec(mu/2) Q_j(tan(mu/2)) from the exact row Q_j at DEFAULT_DPS
    digits, 2*j! Z(j, mu) by Z's taylor route: each entry passes Z's domain
    rule, range gate and cross-check (_sec_value) and is rounded once.  The
    first entry beyond the double range raises ToleranceUnreachable, and no
    row past it is built.
    """
    K = _check_int(K, "K", 0)
    return [_sec_value(j, mu, True, True) for j in range(K + 1)]


def cot_taylor_coeffs(mu: float, K: int) -> List[float]:
    """Derivatives 0..K of -cot(mu/2), read from the derivative polynomials.

    Entry j is -2**-j P_j(cot(mu/2)) from the exact row P_j, 2*j!
    Ztilde(j, mu) by Ztilde's taylor route, computed and checked as in
    sec_taylor_coeffs (_cot_value); entry 0 is -1/tan(mu/2).
    """
    K = _check_int(K, "K", 0)
    return [_cot_value(j, mu, True, True) for j in range(K + 1)]
