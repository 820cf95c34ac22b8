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
k + 1 integers in fixed point, never formed from 1 +- lam.  The last row of
each family is kept, and a row a little above it grows from it by one
multiply-add per entry and step (_difference_row).

The derivative polynomials of sec and cot are the other route.  Their exact
integer rows -- sec^(k) x = sec x Q_k(tan x), Q_{k+1} = t Q_k + (1 + t^2) Q_k',
and cot^(k) x = P_k(cot x), P_{k+1} = -(1 + u^2) P_k' (M. E. Hoffman, Amer.
Math. Monthly 102 (1995) 23-30; K. Boyadzhiev, IJMMS 2007) -- grow on demand
and have one sign and fixed parity.  In fixed point they give the lattice
sums' "taylor" route; in doubles, the certified route.  The carriers and the
Taylor coefficients are 2*k! times closed_forms' Z and Ztilde, and one
evaluator per family (_sec_value, _cot_value) serves all three: it takes mu
and its exact distance to the pole from exact_core._pole_distance, the one
domain check and the one reduction of every shifted argument (the lattice
oracles take the nearest pole and the residual from it too); gates the
double range on a bound that reads no row, then on the certified value; and
runs a route and cross-checks it (_checked).

The carriers, their residues and the Taylor coefficients work at
DEFAULT_DPS significant digits, in integers from the point to the double;
only the deformed polynomials take a dps argument, None for DEFAULT_DPS or
an integer >= 1, and only they load mpmath.  Double precision is not enough
here: the explicit sums cancel, by up to hundreds of digits at large k, and
downstream consumers need small *absolute* error on values that reach 1e16
next to the poles of sec(mu/2).  The complex routes therefore run their
Horner on Gaussian integers with P fraction bits, DEFAULT_DPS's bits plus a
fixed guard: the error, bounded through the next lattice sum, needs no more
(_route_precision), and Z at odd k adds the bits of its smaller target
(_sec_value).  The Taylor route runs a real Horner in the square of the
point at the same P (_taylor).  The point, tan or cot of the half angle, is
a fixed-point Taylor series at an argument reduced against exact_core's
bits of pi (_half_angle); a point past 2 keeps its exponent out of the
Horner's integers (_fixed_horner).  Each route returns integers (re, im,
exp), and its value becomes a double only in _finite_float, rounded once
(Z and Ztilde divide by 2*k! inside it): the nearest double unless the
value lies within the route's error of a midpoint, which nothing tests yet,
so not a certified rounding.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ._support import _nstr
from .classical_polys import bernoulli_poly
from .exact_core import (
    _COT,
    _SEC,
    InternalConsistencyError,
    ToleranceUnreachable,
    _check_int,
    _nearest_float,
    _pi_fixed,
    _pole_distance,
    _reduce,
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
_HALF_PI = math.pi / 2
# Absolute error a checked value can pick up when rounded into the
# subnormal range.
_SUBNORMAL_FLOOR = 2.0 ** -1072

# The binary precision of DEFAULT_DPS digits, as mpmath sets it (136 bits)
_PREC = round((DEFAULT_DPS + 1) * math.log2(10))
# Fraction bits of the routes past _PREC (_route_precision), and of the
# half-angle series past the routes' (_half_angle)
_ROUTE_GUARD = 5
_POINT_GUARD = 16

ComplexLike = Union[complex, float, int, "mpmath.mpc", "mpmath.mpf"]


def _as_mpc(value: ComplexLike, name: str = "lambda") -> "mpmath.mpc":
    import mpmath

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

    def __call__(self, x: ComplexLike) -> "mpmath.mpc":
        import mpmath

        acc = mpmath.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "CPoly":
        if len(self.coeffs) <= 1:
            return CPoly([0])
        return CPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        return "CPoly(%r)" % (list(self.coeffs),)


def _appell_numbers(upto: int, lam: "mpmath.mpc") -> List["mpmath.mpc"]:
    """The Apostol-Euler numbers e_0(lam) .. e_upto(lam), at the active
    working precision."""
    numbers: List["mpmath.mpc"] = []
    for n in range(upto + 1):
        acc = sum(math.comb(n, j) * numbers[j] for j in range(n))
        numbers.append(((2 if n == 0 else 0) - lam * acc) / (1 + lam))
    return numbers


def _apostol_euler_coeffs(k: int, lam: "mpmath.mpc") -> List["mpmath.mpc"]:
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
    import mpmath

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
    import mpmath

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


# (start, step) -> (k, row): the last difference row built of each family,
# one immutable pair per family, swapped whole; threads that race each keep
# a right row, and a swap lost to another costs a later call only a direct
# build
_KEPT_ROWS: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}


def _difference_row(k: int, start: int, step: int) -> Tuple[int, ...]:
    """Forward differences 0..k at 0 of f(i) = (start + step*i)**k, exactly.

    The last row built of each family (start, step) is kept, and a row at
    k >= k0, the kept one's index, grows from it when 6 (k - k0) <= k: as
    f_{k+1}(i) = (start + step i) f_k(i), the differences' product rule
    gives T_{k+1}(j) = (start + step j) T_k(j) + step j T_k(j-1).  Other
    rows come from the difference table of the powers, in k**2 / 2
    subtractions.  The k/6 steps to k cost 0.5-0.8 of that table, and k/4
    steps about all of it (2-core Xeon, Python 3.11, k = 12 to 618; the
    table takes 70-130 us at k = 40 and 65-95 ms at k = 618), and a row
    grown from row 0 costs 2-3 times the table."""
    kept = _KEPT_ROWS.get((start, step))
    if kept is not None and kept[0] <= k and 6 * (k - kept[0]) <= k:
        n, row = kept
        if n == k:
            return row
        while n < k:
            row = (start * row[0], *((start + step * j) * row[j] + step * j * row[j - 1]
                                     for j in range(1, n + 1)), step * (n + 1) * row[n])
            n += 1
    else:
        table = [(start + step * i) ** k for i in range(k + 1)]
        for n in range(k):
            # table[n + 1:] becomes the (n + 1)-th differences
            for i in range(k, n, -1):
                table[i] -= table[i - 1]
        row = tuple(table)
    _KEPT_ROWS[start, step] = (k, row)
    return row


def _route_precision(k: int, dist: float, log_floor: Optional[float] = None) -> int:
    """P, the fraction bits of the fixed-point routes: _PREC, DEFAULT_DPS's
    bits, plus G = _ROUTE_GUARD, which hold the error under a tenth of the
    allowance A = 2*k! * 4 (k+1) 10**-dps dist**-(k+1) (_log_floor), plus
    those that take A down to 2*k! * e**log_floor if given.

    The complex route is scale * sum_j row[j] x**j, x = -1/2 -+ (i/2) tan
    or cot of the half angle.  With c = csc(dist/2) <= pi/dist, |x| = c/2,
    |scale| = 2**-k c on Z's lattice and c on Ztilde's, V the route's value,
    2*k! times the sum, and every lattice sum at most its terms' sizes,
    4 dist**-(k+1) (so |V| <= 8 k! dist**-(k+1), and at k = 0 as sec(mu/2)
    <= pi/dist), it errs, in units of 10**dps A 2**-P = 8 (k+1) k!
    dist**-(k+1) 2**-P, by at most
    - at |x| < 2: 2**(1/2 - P) per Horner product truncated, amplified by
      |x|**j, and once more for Ztilde's factor cot - i: 2**(1/2 - P)
      (|scale| k max(1, |x|)**(k-1) + 1) <= 2**(1/2 - P) (k+1)
      (pi/dist)**(k+1), or sqrt(2) pi**(k+1) / (8 k!) <= 2.87 units (at
      k = 3);
    - past it, where _fixed_horner runs at x 2**-E with 2**E <= |x|:
      sqrt(5) 2**(E k - P) per step, a truncated product and a truncated
      coefficient, amplified by |x 2**-E|**j, so under sqrt(5) |x|**k 2**-P,
      and 2 sqrt(2) |x|**(k+1) 2**-P for Ztilde's factor: under (c/2)**(k+1)
      (2 sqrt(5) k + 2 sqrt(2)) 2**-P, or 1.13 units (at k = 1);
    - the point y, the one rounded input, within 0.51 units of its last
      place 2**(E - P) (_half_angle): the value is V as a function of y, so
      it moves by |dV/dmu| |dmu/dy|, plus |V| |sin mu| from Z's prefactor
      sec(mu/2) taken at the exact point, times 0.51 * 2**(E - P); dV/dmu is
      2 (k+1)! times the next lattice sum, |dmu/dy| = 4 sin(dist/2)**2 <=
      dist**2 and 2**E dist <= max(dist, pi/2), so 0.51 (k+2) pi / (k+1)
      <= 3.21 units;
    - Z's prefactor sec(mu/2), within w 2**-w relative, w > P + 16
      (_half_angle): under 2**-15 units.
    That is 6.1 units, and 2**-_PREC < 10**-dps / 7, so the error is under
    0.88 * 2**-G A: G = 5 holds it under a thirty-sixth of A (G = 4 would
    hold a tenth), with room for the terms of second order in 2**-P.

    The Taylor route, 2**-k pref t**(d % 2) sum_i c_i u**i over the n + 1
    coefficients of one sign of a row of degree d, u = t**2, adds relative
    errors: under 2n 2**-P from its Horner (_taylor), d w 2**-w from t and
    w 2**-w from sec: under (k + 1.01) 2**-P of |V|, or 1.01 units.  No row
    is read.
    """
    bits = _PREC + _ROUTE_GUARD
    if log_floor is not None:
        bits += max(0, math.ceil((_log_floor(k, dist) - log_floor) / _LN2))
    return bits


def _sin_cos(a: int, f: int, w: int) -> Tuple[int, int]:
    """(S, C), sin(h) / h and cos(h) for h = a 2**-f, 0 <= h <= 0.8, in
    fixed point at w >= 16 fraction bits.  S sums the Taylor series in
    z = h**2 (floored, within a unit), each term from the one before and
    floored once: with z <= 0.64 a term's error stays under 1.4 units, the
    series stops at its first zero term (the rest of it under 1.6 units),
    and the terms number under w/4, so S is within 0.35 w + 1.6 units.
    C = sqrt(1 - z S**2) by isqrt is within 0.33 w + 4 units, as C >=
    cos(0.8) = 0.69.  So S, at least 0.89, and C are each within 0.5 w + 6
    units of 2**-w relative."""
    shift = 2 * f - w
    z = (a * a) >> shift if shift >= 0 else (a * a) << -shift
    one = 1 << w
    total = term = one
    m = 2
    while term:
        term = (term * z >> w) // (m * (m + 1))
        total -= term
        m += 2
        term = (term * z >> w) // (m * (m + 1))
        total += term
        m += 2
    return total, math.isqrt((one << w) - (z * total * total >> w))


def _quotient(p: int, q: int, w: int) -> Tuple[int, int]:
    """p / q (p >= 0, q > 0) as m 2**e, m floored to w + 1 or more bits."""
    shift = w + 1 + q.bit_length() - p.bit_length()
    return ((p << shift) // q, -shift) if shift >= 0 else (p // (q << -shift), -shift)


@functools.lru_cache(maxsize=1)
def _half_angle(mu: float, n: int, dist: float, poles, bits: int) -> Tuple[int, int, int, int]:
    """(t, e, m, f): tan(mu/2) = t 2**e on Z's lattice, cot(mu/2) on
    Ztilde's, and for Z sec(mu/2) = m 2**f (m = 1, f = 0 for Ztilde), mu
    at distance dist from the pole next to it, the n-th.

    mu - j pi, j = 2n + 1 on Z's lattice and 2n on Ztilde's, is reduced in
    fixed point against exact_core's bits of pi (exact_core._reduce), at
    fraction bits that hold its error, under |j| + 1 units, under 2**-(w +
    6) of it, w = bits + _POINT_GUARD + the bits of ``bits``; where the pole
    is 0, or mu lies within pi/2 of 0 on Z's lattice, mu itself is the
    angle, exactly.  So the angle a in [0, pi/2] has relative error under
    2**-(w + 6), and
    - on Z's lattice tan(mu/2) = +-tan(|mu|/2) at |mu| <= pi/2, and
      +-cot(d/2) past it, d = pi - |mu|;
    - on Ztilde's, cot(mu/2) = cot(r/2), r = mu - 2 pi n, or tan((pi -
      |r|)/2) with r's sign at |r| > pi/2, where an absolute error in pi - |r|
      under 2**-(w + 6) serves, as the point is then under 1;
    both from one _sin_cos at a/2.  t and m are within w 2**-w relative:
    twice _sin_cos's 0.5 w + 6 units, a unit for the floor of _quotient and
    a/sin(a) <= pi/2 times a's error.  The route's point, t 2**(bits - 1 -
    E) rounded, is then within 0.5 + 2**-15 units of its last place, since
    |t| 2**-E < 4 and w 2**(bits - w) <= 2**-16 (_scaled_point).

    The last point is kept: a Taylor table asks for the same one at every
    entry.
    """
    sec = poles is _SEC
    w = bits + _POINT_GUARD + bits.bit_length()
    if abs(mu) <= _HALF_PI and (sec or not n):  # mu itself is the angle
        a, den = abs(mu).as_integer_ratio()
        f, tangent, negative = den.bit_length() - 1, sec, mu < 0
    else:
        f = w + 8 + abs(2 * n + sec).bit_length() + max(0, -math.frexp(dist)[1])
        a = _reduce(mu, f, poles)[0]
        negative, a, tangent = (mu < 0) if sec else a < 0, abs(a), False
        if a > _pi_fixed(f - 1):  # |r| > pi/2 on Ztilde's lattice
            a, tangent = _pi_fixed(f) - a, True
            if a < 0:
                a, negative = -a, not negative
    s, c = _sin_cos(a, f + 1, w)
    # tan(a/2) = (a/2) S / C and cot(a/2) = C / ((a/2) S)
    t, e = _quotient(a * s, c << (f + 1), w) if tangent else _quotient(c << (f + 1), a * s, w)
    if not sec:
        m, g = 1, 0
    else:  # sec(mu/2) = 1 / cos(a/2), or 1 / sin(a/2) at the pole's side
        m, g = _quotient(1 << w, c, w) if tangent else _quotient(1 << (f + 1 + w), a * s, w)
    return (-t if negative else t), e, m, g


def _scaled_point(t: int, e: int, bits: int) -> Tuple[int, int]:
    """(y, E): E = max(0, floor(log2 |t 2**e|) - 1), so 2**E <= |t 2**e| / 2
    <= |x| for the point x = -1/2 + (i/2) t 2**e, and y, t 2**(e + bits - 1
    - E) rounded to the nearest integer (t carries more than bits bits)."""
    shift = max(0, t.bit_length() + e - 2)
    return ((t >> (shift - e - bits)) + 1) >> 1, shift


def _fixed_horner(row: Sequence[int], y: int, bits: int, shift: int) -> Tuple[int, int]:
    """sum_j row[j] x**j 2**(-shift k) at x = 2**shift (-2**(-1 - shift) + i
    y 2**-bits), k = len(row) - 1, as the real and imaginary parts of its
    value times 2**bits: Horner in x 2**-shift over row[j] 2**(-shift (k -
    j)), each product truncated once, and each coefficient once past the
    fraction bits (only at shift > 0).  So a point x of any size leaves its
    exponent out of the integers, which carry bits + log2(sum) bits."""
    low = min(bits, shift + 1)
    up, up_y, down = bits - low, shift + 1 - low, bits + shift + 1 - low
    re, im = row[-1] << bits, 0
    place = bits
    for c in row[-2::-1]:
        place -= shift
        re, im = (
            ((-(re << up) - (im * y << up_y)) >> down) + (c << place if place >= 0 else c >> -place),
            ((re * y << up_y) - (im << up)) >> down,
        )
    return re, im


def _turn(quarter_turns: int, re: int, im: int) -> Tuple[int, int]:
    # i**quarter_turns (re + i im)
    for _ in range(quarter_turns % 4):
        re, im = -im, re
    return re, im


def _ek_complex(k: int, mu: float, dist: float, n: int,
                log_floor: Optional[float] = None) -> Tuple[int, int, int]:
    # (re, im, exp): i**k * e^(i mu/2) * E_k(1/2; e^(i mu)) = (re + i im)
    # 2**exp, mu at distance dist from the pole, within the allowance, or
    # within 2*k! * e**log_floor if given (Z at odd k, _sec_value): i**k
    # 2**-k sec(mu/2) sum_j T_k(j) w**j, w = -1/2 - (i/2) tan(mu/2)
    row = _difference_row(k, 1, 2)
    bits = _route_precision(k, dist, log_floor)
    t, e, m, f = _half_angle(mu, n, dist, _SEC, bits)
    y, shift = _scaled_point(-t, e, bits)
    re, im = _fixed_horner(row, y, bits, shift)
    return _turn(k, re * m, im * m) + (shift * k - bits - k + f,)


def _ektilde_complex(k: int, mu: float, dist: float, n: int) -> Tuple[int, int, int]:
    # (re, im, exp): i**(k+1) * e^(i mu) * E_k(1; -e^(i mu)), k >= 1, within
    # the same allowance; the difference equation lam E_k(1; lam) = -e_k(lam),
    # taken at -lam, makes it i**(k+1) e_k(-e^(i mu)) =
    # -i**k (cot(mu/2) - i) sum_j j! S(k, j) v**j, v = -1/2 + (i/2) cot(mu/2)
    row = _difference_row(k, 0, 1)
    bits = _route_precision(k, dist)
    t, e = _half_angle(mu, n, dist, _COT, bits)[:2]
    y, shift = _scaled_point(t, e, bits)
    re, im = _fixed_horner(row, y, bits, shift)
    # times (cot(mu/2) - i) 2**-shift, with cot(mu/2) = y 2**(shift + 1 - bits)
    re, im = ((y * re) >> (bits - 1)) + (im >> shift), ((y * im) >> (bits - 1)) - (re >> shift)
    return _turn(k + 2, re, im) + (shift * (k + 1) - bits,)


def _taylor(rows: "_DerivativeRows", k: int, mu: float, n: int, dist: float, poles) -> Tuple[int, int, int]:
    """(v, 0, exp): the Taylor route's v 2**exp, 2**-k sec(mu/2) Q_k(tan(mu/2))
    or -2**-k P_k(cot(mu/2)), 2*k! times Z or Ztilde.  The row's terms, of
    one sign once t**(d % 2) is taken out, are summed by Horner in u = t**2,
    exact from the point's integer t, at P fraction bits; past u = 1 it runs
    at u 2**-E, 2**E <= u, over coefficients times 2**(-E i) as
    _fixed_horner does.  Each step truncates a product and, at E > 0, a
    coefficient, under 2 units of the Horner's last place, which is at most
    u**n 2**-P past u = 1 and 2**-P below it, against a sum of at least
    u**n and at least 1 (the rows' nonzero integers): under 2n 2**-P
    relative over the n steps (_route_precision)."""
    bits = _route_precision(k, dist)
    t, e, m, f = _half_angle(mu, n, dist, poles, bits)
    row = rows.row(k)
    odd = len(row) % 2 == 0
    tt = t * t
    shift = max(0, tt.bit_length() - 1 + 2 * e)
    down = shift - 2 * e
    acc, place = abs(row[-1]) << bits, bits
    for c in row[-3::-2]:
        place -= shift
        acc = (acc * tt >> down) + (abs(c) << place if place >= 0 else abs(c) >> -place)
    # -P_k = (-1)**(k+1) |P_k|
    if poles is _COT and k % 2 == 0:
        acc = -acc
    return acc * m * (t if odd else 1), 0, f + (e if odd else 0) + shift * ((len(row) - 1) // 2) - bits - k


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


def _allowance(k: int, dist: float) -> Tuple[int, int]:
    # (a, e): 2*k! * e**_log_floor = a 2**e, the route's own noise on 2*k!
    # times a lattice sum, whose float underflows to 0 from k = 577 at
    # dist = pi and overflows near a pole: e**log = 2**n e**(log - n ln 2)
    log = _log_floor(k, dist)
    n = math.floor(log / _LN2)
    num, den = math.exp(log - n * _LN2).as_integer_ratio()
    return 2 * math.factorial(k) * num, n + 1 - den.bit_length()


def _check_residue(re: int, im: int, exp: int, k: int, dist: float, what: str) -> None:
    """Raise InternalConsistencyError unless z = (re + i im) 2**exp, 2*k!
    times a lattice sum from a route, has |Im z| <= TOL_IMAG * |Re z| + 2*k!
    * e**_log_floor: the floor is the route's own noise, all that is left
    where the value is 0.  An integer comparison, times td 2**-min(exp, e)
    for TOL_IMAG = tn / td and the floor a 2**e."""
    a, a_exp = _allowance(k, dist)
    tn, td = TOL_IMAG.as_integer_ratio()
    low = min(exp, a_exp)
    residue = abs(im) * td << (exp - low)
    allowed = (abs(re) * tn << (exp - low)) + (a * td << (a_exp - low))
    if residue > allowed:
        raise InternalConsistencyError(
            "%s should be real; imaginary residue %s exceeds the allowed %s"
            % (what, _nstr(1, math.log2(residue) - math.log2(td) + low),
               _nstr(1, math.log2(allowed) - math.log2(td) + low))
        )


def _finite_float(man: int, exp: int, den: int, what: str) -> float:
    """man 2**exp / den (den > 0) rounded once to the nearest double, as an
    integer ratio with no exponent limit; ToleranceUnreachable (achieved =
    inf) beyond the double range.  Every route's value leaves its integers
    for a double here."""
    num, den = (man << exp, den) if exp >= 0 else (man, den << -exp)
    out = _nearest_float(num, den)
    if math.isinf(out):
        raise ToleranceUnreachable(
            "%s, %s, lies beyond the double-precision range"
            % (what, _nstr(num, math.log2(abs(num)) - math.log2(den))),
            achieved=math.inf,
        )
    return out


def _finite_complex(value: "mpmath.mpc", what: str) -> complex:
    """value, an mpmath complex, rounded to a complex, each part through
    _finite_float; a non-finite part is past the double range too."""
    import mpmath
    from mpmath.libmp import to_rational

    parts = []
    for part, name in ((value.real, "the real part of "), (value.imag, "the imaginary part of ")):
        if not mpmath.isfinite(part):
            raise ToleranceUnreachable(
                "%s%s, %s, lies beyond the double-precision range" % (name, what, mpmath.nstr(part, 5)),
                achieved=math.inf,
            )
        num, den = to_rational(part._mpf_)
        # int(): mpmath's mantissas are gmpy integers when gmpy is installed
        parts.append(_finite_float(int(num), 0, int(den), name + what))
    return complex(*parts)


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
    k: int, route: Callable[[], Tuple[int, int, int]], certified: Tuple[float, float, float, float],
    dist: float, carrier: bool, what: str,
) -> float:
    """Re z for a carrier, else Re z / (2*k!), where z = (re + i im) 2**exp
    = route() is 2*k! times a lattice sum, built only once log_low, a lower
    bound on log |sum|, passes _gate; certified = (check, rel, log_floor,
    log_low) from the certified route.  z's imaginary residue must pass
    _check_residue, and z over 2*k! must agree with check to |value -
    check| <= (rel + 4u) * |check| + floor: rel bounds check's error, 4u
    this value's one rounding (_finite_float), and the floor, e**log_floor
    up to exp(700), the route's own error and subnormal rounding.
    """
    check, rel, log_floor, log_low = certified
    _gate(log_low, k, carrier, what)
    re, im, exp = route()
    _check_residue(re, im, exp, k, dist, what)
    value = _finite_float(re, exp, 2 * math.factorial(k), what)
    floor = math.exp(min(log_floor, 700.0))
    allowed = (rel + 4 * _U) * abs(check) + floor + _SUBNORMAL_FLOOR
    if abs(value - check) > allowed:
        raise InternalConsistencyError(
            "%s: the route gives %r, the certified derivative-polynomial route "
            "%r (allowed difference %.3e)" % (what, value, check, allowed)
        )
    return _finite_float(re, exp, 1, what) if carrier else value


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
    next to it; the Taylor route's error is relative.  At mu = 0 the complex
    route is exact."""
    _check_max_k(k)
    mu, dist, n = _pole_distance(mu, "mu", _SEC)[:3]
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
        route = lambda: _taylor(_SEC_ROWS, k, mu, n, dist, _SEC)
    else:
        route = lambda: _ek_complex(k, mu, dist, n, target)
    return _checked(k, route, (value, rel, log_floor, log_z), dist, carrier, what)


def _cot_value(k: int, mu: float, taylor: bool, carrier: bool) -> float:
    """Ztilde(k, mu), or ektilde_mu(k, mu) = 2*k! Ztilde(k, mu), as
    _sec_value; the certified value is -P_k(cot(mu/2)) / (2**(k+1) k!)."""
    _check_max_k(k)
    mu, dist, n = _pole_distance(mu, "mu", _COT)[:3]
    what = _label(("Ztilde", "ektilde_mu", "-cot"), k, mu, taylor, carrier)
    # cot(mu/2), never 0; mu/2 is 0 only at the least subnormal mu, past range
    t = 1.0 / math.tan(mu / 2.0) if mu / 2.0 else math.inf
    _gate(_log_row_low(k, k + 1, t), k, carrier, what)
    check, rel = _COT_ROWS.value(k, t)
    # -P_k = (-1)**(k+1) |P_k|
    certified = (check if k % 2 else -check, rel, _log_floor(k, dist), _log_abs(check))
    if taylor:
        route = lambda: _taylor(_COT_ROWS, k, mu, n, dist, _COT)
    else:
        route = lambda: _ektilde_complex(k, mu, dist, n)
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
    """|Im z| / max(1, |z|, allowance / TOL_IMAG) for z = (re + i im) 2**exp
    = route(k, mu, dist, n), k <= MAX_K, as one ratio of integers rounded
    once (|z| may be past the double range).  The allowance keeps the noise
    at a zero of the sum from reading as a fully imaginary value: whatever
    passes _check_residue reports <= 2 * TOL_IMAG."""
    _check_max_k(k)
    mu, dist, n = _pole_distance(mu, "mu", poles)[:3]
    re, im, exp = route(k, mu, dist, n)
    a, a_exp = _allowance(k, dist)
    tn, td = TOL_IMAG.as_integer_ratio()
    # every term times tn 2**-low
    low = min(0, exp, a_exp)
    size = math.isqrt(re * re + im * im)
    largest = max(tn << -low, size * tn << (exp - low), a * td << (a_exp - low))
    return (abs(im) * tn << (exp - low)) / largest


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


def sec_taylor_coeffs(mu: float, K: int) -> List[float]:
    """Derivatives 0..K of sec(mu/2), read from the derivative polynomials.

    Entry j, the j-th derivative with respect to mu (j! times the j-th
    Taylor coefficient of sec((mu + t)/2) at t = 0), is
    2**-j sec(mu/2) Q_j(tan(mu/2)) from the exact row Q_j in fixed point,
    2*j! Z(j, mu) by Z's taylor route: each entry passes Z's domain rule,
    range gate and cross-check (_sec_value) and is rounded once.  The first
    entry beyond the double range raises ToleranceUnreachable, and no row
    past it is built.
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
