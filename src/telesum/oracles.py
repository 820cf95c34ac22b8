"""Brute-force series summation with certified truncation bounds.

Every oracle returns a SumResult whose error_bound is an honest bound on
|value - true sum|: an analytic tail bound (Euler-Maclaurin integral plus
half-term for monotone tails, the Leibniz-interval midpoint for alternating
tails) plus a floating-point roundoff floor.  Each oracle builds its terms
and tail; one kernel sums them through math.fsum, fed chunk by chunk as one
stream, so the sum is exactly rounded at any length, independent of order,
and the roundoff floor only has to cover the rounding of the individual
terms.  A sum beyond the double range raises ToleranceUnreachable.

Terms that suffer cancellation against an irrational lattice (multiples of
pi minus the shift) are recomputed in mpmath and patched into the term
array before summation; integer-lattice terms (n + theta) need no patching
because a single float addition is exactly rounded even when it cancels.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import mpmath
import numpy as np

from .apostol_polys import DEFAULT_DPS, GUARD_BAND

__all__ = [
    "SumResult",
    "ToleranceUnreachable",
    "sinpi",
    "cospi",
    "sum_zeta",
    "sum_beta",
    "sum_Z",
    "sum_Ztilde",
    "sum_inverse_square",
    "sum_cotangent",
    "hurwitz_partial",
    "herglotz_residual",
    "herglotz_limit",
]

_EPS = sys.float_info.epsilon
_TWO_PI = 2.0 * math.pi

# Hard caps on term counts; tolerances that would need more raise
# ToleranceUnreachable instead of thrashing memory.
_ZETA_N_CAP = 20_000_000
_BETA_M_CAP = 20_000_000
_CHUNK = 1_000_000


@dataclass(frozen=True)
class SumResult:
    """Certified summation result: |value - true sum| <= error_bound."""

    value: float
    error_bound: float
    terms_used: int


class ToleranceUnreachable(ArithmeticError):
    """Requested tolerance cannot be certified; .achieved holds the best bound."""

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(message)
        self.achieved = achieved


def sinpi(y: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """sin(pi*y) with exact zeros at integer y and full relative accuracy
    near them, via range reduction of y rather than of pi*y."""
    arr = np.asarray(y, dtype=np.float64)
    r = np.mod(arr, 2.0)
    s = np.where(r > 1.0, -1.0, 1.0)
    r = np.where(r > 1.0, r - 1.0, r)
    r = np.where(r > 0.5, 1.0 - r, r)
    out = s * np.sin(np.pi * r)
    if np.ndim(y) == 0:
        return float(out)
    return out


def cospi(y: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """cos(pi*y) with exact zeros at half-integer y and exact +-1 at integers.

    Reduces y itself (never pi*y, and never y + 0.5, which is inexact for
    |y| >= 2**52): fold the period onto r in [0, 1/2] where every
    subtraction is exact (Sterbenz), then evaluate sin(pi*(1/2 - r)).
    """
    arr = np.asarray(y, dtype=np.float64)
    r = np.mod(arr, 2.0)
    r = np.where(r > 1.0, 2.0 - r, r)
    s = np.where(r > 0.5, -1.0, 1.0)
    r = np.where(r > 0.5, 1.0 - r, r)
    out = s * np.sin(np.pi * (0.5 - r))
    if np.ndim(y) == 0:
        return float(out)
    return out


def _power_tail(a: float, b: float, p: float, A: int) -> Tuple[float, float]:
    """Certified tail of sum_{m >= A} (a*m + b)**(-p) for a > 0, p > 1.

    Estimate is the integral plus half-term; the trapezoid-defect bound
    (|f'(A)| + f''(A)) / 12 is valid because f is convex decreasing with
    decreasing second derivative.  A tail beyond the double range comes back
    as (inf, inf), which the summation kernel reports as unreachable.
    """
    y = a * A + b
    if y <= 0:
        raise ValueError("tail start a*A + b must be positive")
    try:
        est = y ** (1.0 - p) / (a * (p - 1.0)) + 0.5 * y ** (-p)
        bound = (p * a * y ** (-p - 1.0) + p * (p + 1.0) * a * a * y ** (-p - 2.0)) / 12.0
    except OverflowError:
        return math.inf, math.inf
    return est, bound


def _alternating_tail(h0: float, h1: float) -> Tuple[float, float]:
    """Certified tail of sum_{i>=0} (-1)**i h(i) for h >= 0 convex decreasing.

    The Leibniz interval is [h0/2, h0/2 + (h0-h1)/2]; returning its midpoint
    halves the worst-case error to (h0-h1)/4.
    """
    d0 = max(h0 - h1, 0.0)
    est = 0.5 * h0 + 0.25 * d0
    bound = 0.25 * d0 + 4.0 * _EPS * h0
    return est, bound


def _exact_sum(values: np.ndarray) -> float:
    # one chunk's Python list is alive at a time; fsum sees a single stream,
    # so the result is exactly rounded however long the array is
    return math.fsum(itertools.chain.from_iterable(
        values[i : i + _CHUNK].tolist() for i in range(0, values.size, _CHUNK)
    ))


def _certified_sum(
    terms: np.ndarray,
    tail: Sequence[float],
    tail_bound: float,
    terms_used: int,
    *,
    magnitudes: Optional[np.ndarray] = None,
    per_term: float = 16.0,
    reverse: bool = False,
    tail_in_floor: bool = True,
) -> SumResult:
    """value = exactly rounded sum of the terms, then each tail estimate
    added in order; error_bound = tail_bound + roundoff floor over |terms|
    (or magnitudes) and, when tail_in_floor, |tail|."""
    if reverse:
        terms = terms[::-1]
    try:
        partial = _exact_sum(terms)
        # nonnegative terms are their own magnitudes: skip the second sum
        if magnitudes is None and np.signbit(terms).any():
            magnitudes = np.abs(terms)
        abs_accum = partial if magnitudes is None else _exact_sum(magnitudes)
    except (OverflowError, ValueError):
        # fsum raises on an overflowing sum and on infinities of both signs
        partial = abs_accum = math.inf
    value = partial
    for t in tail:
        value += t
        if tail_in_floor:
            abs_accum += abs(t)
    # per_term * eps covers the relative rounding of each summand; fsum
    # itself contributes only the final rounding, covered by the value term.
    bound = tail_bound + (per_term * _EPS * abs_accum + 4.0 * _EPS * abs(value))
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise ToleranceUnreachable(
            "the terms or the tail leave the double-precision range",
            achieved=math.inf,
        )
    return SumResult(value=value, error_bound=bound, terms_used=terms_used)


def _mp_floats(exact: Callable[[int], "mpmath.mpf"], ms: Iterable[int]) -> List[float]:
    # exact(m) at DEFAULT_DPS, rounded once: for values that cancel in doubles
    with mpmath.workdps(DEFAULT_DPS):
        return [float(exact(m)) for m in ms]


def _check_int(value: int, least: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError("%s must be an integer >= %d" % (name, least))
    return int(value)


def _check_order(order: str) -> bool:
    if order not in ("ascending", "descending"):
        raise ValueError("order must be 'ascending' or 'descending'")
    return order == "descending"


def _check_lattice_distance(x: float, spacing: float, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("%s must be finite" % what)
    if abs(math.remainder(x, spacing)) <= GUARD_BAND:
        raise ValueError(
            "%s must stay at least 1e-9 away from multiples of %s"
            % (what, "2*pi" if spacing == _TWO_PI else "1")
        )
    return x


def _check_theta_window(theta: float, N: int) -> Tuple[float, int]:
    theta = _check_lattice_distance(theta, 1.0, "theta")
    N = _check_int(N, 1, "N")
    if N + 1 <= abs(theta):
        raise ValueError("N too small: need N + 1 > |theta|")
    return theta, N


def _to_tolerance(target_tol: float, start: Callable[[float], int], cap: int,
                  cap_name: str, attempt: Callable[[int], SumResult]) -> SumResult:
    """attempt(n) from n = start(tol), doubling n up to cap, until it certifies target_tol."""
    target_tol = float(target_tol)
    if not (target_tol > 0.0) or not math.isfinite(target_tol):
        raise ValueError("target_tol must be a positive finite real")
    # cheapest possible bound: roundoff floor at abs sum ~ 1
    if 16.0 * _EPS > target_tol:
        raise ToleranceUnreachable(
            "tolerance %.3e is below the double-precision roundoff floor"
            % target_tol,
            achieved=16.0 * _EPS,
        )
    n = start(target_tol)
    while True:
        n = min(n, cap)
        result = attempt(n)
        if result.error_bound <= target_tol:
            return result
        if n >= cap:
            raise ToleranceUnreachable(
                "tolerance %.3e unreachable at the %s (achieved %.3e)"
                % (target_tol, cap_name, result.error_bound),
                achieved=result.error_bound,
            )
        n *= 2


# Every oracle builds its terms with floating-point warnings off: overflow
# shows up as a non-finite sum, which _certified_sum reports.
_quiet = np.errstate(all="ignore")


@_quiet
def sum_zeta(s: int, target_tol: float = 1e-10) -> SumResult:
    """Partial sum of m**(-s) over m >= 1 with a certified tail correction.

    The tail from N on is replaced by its integral-plus-half-term estimate
    N**(1-s)/(s-1) + N**(-s)/2; N is chosen so the certified remainder
    (trapezoid defect plus roundoff floor) is at most target_tol.
    """
    s = _check_int(s, 2, "s")

    def attempt(N: int) -> SumResult:
        tail_est, tail_bound = _power_tail(1.0, 0.0, float(s), N)
        terms = np.arange(1, N, dtype=np.float64) ** float(-s)
        return _certified_sum(terms, (tail_est,), tail_bound, N - 1)

    start = lambda tol: max(10, int(math.ceil((s / (6.0 * tol)) ** (1.0 / (s + 1)))))
    return _to_tolerance(target_tol, start, _ZETA_N_CAP, "N cap %d" % _ZETA_N_CAP, attempt)


@_quiet
def sum_beta(s: int, target_tol: float = 1e-10) -> SumResult:
    """Alternating sum of (-1)**m (2m+1)**(-s) with a certified tail.

    Terms are grouped pairwise (m even with m odd) so the grouped series has
    positive decreasing terms; the remaining alternating tail is certified
    by the Leibniz interval around its half-term midpoint.
    """
    s = _check_int(s, 1, "s")

    def attempt(J: int) -> SumResult:
        M = 2 * J
        j = np.arange(J, dtype=np.float64)
        lo = (4.0 * j + 1.0) ** float(-s)
        hi = (4.0 * j + 3.0) ** float(-s)
        # tail anchor M is even, so the omitted tail starts with + sign
        tail_est, tail_bound = _alternating_tail(
            (2.0 * M + 1.0) ** float(-s), (2.0 * M + 3.0) ** float(-s)
        )
        return _certified_sum(lo - hi, (tail_est,), tail_bound, M, magnitudes=lo + hi)

    # bound ~ (s/2)(2M+1)^(-s-1); solve for the anchor 2M+1
    start = lambda tol: max(8, int(math.ceil(((s / tol) ** (1.0 / (s + 1)) - 1.0) / 4.0)) + 2)
    return _to_tolerance(target_tol, start, _BETA_M_CAP // 2, "term cap %d" % _BETA_M_CAP, attempt)


@_quiet
def sum_Z(k: int, mu: float, N: int = 10000, order: str = "ascending") -> SumResult:
    """Bilateral alternating lattice sum (-1)**m / ((2m+1)*pi - mu)**(k+1).

    Lattice indices m and -m-1 are paired before summation (the pairing is
    part of the contract: it is what gives the conditionally convergent
    k = 0 case its symmetric-limit meaning).  N pairs cover the window
    m = -N..N-1; the paired tail is alternating with a convex decreasing
    magnitude, certified by the Leibniz midpoint.  The first few pairs are
    recomputed in mpmath because (2m+1)*pi - mu cancels against float pi.
    """
    k = _check_int(k, 0, "k")
    mu = float(mu)
    if not (abs(mu) < math.pi):
        raise ValueError("mu must satisfy |mu| < pi")
    N = _check_int(N, 1, "N")
    reverse = _check_order(order)

    p = k + 1
    sgnk = 1.0 if k % 2 == 0 else -1.0
    m = np.arange(N, dtype=np.float64)
    base = (2.0 * m + 1.0) * np.pi
    pair = (base - mu) ** (-p) + sgnk * (base + mu) ** (-p)
    signs = 1.0 - 2.0 * (m.astype(np.int64) % 2).astype(np.float64)
    terms = signs * pair
    mmu = mpmath.mpf(mu)

    def exact(j: int) -> "mpmath.mpf":
        b = (2 * j + 1) * mpmath.pi
        return (-1) ** j * ((b - mmu) ** (-p) + sgnk * (b + mmu) ** (-p))

    terms[:3] = _mp_floats(exact, range(min(3, N)))
    # every pair has the sign of mu (k odd) or is positive (k even), so the
    # paired tail has the sign of its first term; at k odd, mu = 0 it is 0
    t0, t1 = _mp_floats(exact, (N, N + 1))
    tail_mag, tail_bound = _alternating_tail(abs(t0), abs(t1))
    # the Leibniz bound already carries the rounding of the tail estimate
    return _certified_sum(
        terms, (math.copysign(tail_mag, t0),), tail_bound, 2 * N,
        per_term=16.0 + 4.0 * k, reverse=reverse, tail_in_floor=False,
    )


@_quiet
def sum_Ztilde(k: int, mu: float, N: int = 10000, order: str = "ascending") -> SumResult:
    """Bilateral lattice sum 1 / (2*m*pi - mu)**(k+1) over m = -N..N.

    For k >= 1 the terms are summed directly (absolute convergence); both
    one-sided tails get integral-plus-half-term corrections.  For k = 0 the
    conditionally convergent sum is given its symmetric-limit meaning by
    pairing m with -m, which yields terms 2*mu/((2*m*pi)^2 - mu^2).  Terms
    nearest the lattice singularity are recomputed in mpmath.
    """
    k = _check_int(k, 0, "k")
    mu = _check_lattice_distance(mu, _TWO_PI, "mu")
    N = _check_int(N, 1, "N")
    reverse = _check_order(order)
    A = N + 1
    if A <= abs(mu) / _TWO_PI:
        raise ValueError("N too small: need N + 1 > |mu| / (2*pi)")

    p = k + 1
    mmu = mpmath.mpf(mu)
    if k == 0:
        m = np.arange(1, N + 1, dtype=np.float64)
        lo = _TWO_PI * m - mu
        hi = _TWO_PI * m + mu
        terms = np.append(2.0 * mu / (lo * hi), -1.0 / mu)

        near = int(round(abs(mu) / _TWO_PI))
        ms = range(max(1, near - 1), min(N, near + 1) + 1)
        terms[ms.start - 1 : ms.stop - 1] = _mp_floats(
            lambda mm: 2 * mmu / ((2 * mm * mpmath.pi - mmu) * (2 * mm * mpmath.pi + mmu)), ms
        )

        yl = _TWO_PI * A - mu
        yh = _TWO_PI * A + mu
        tail = (math.log1p(2.0 * mu / yl) / _TWO_PI + 0.5 * (1.0 / yl - 1.0 / yh),)
        hp = _TWO_PI * abs(yl ** -2 - yh ** -2)
        hpp = 8.0 * math.pi ** 2 * abs(yl ** -3 - yh ** -3)
        tail_bound = (hp + hpp) / 12.0
    else:
        m = np.arange(-N, N + 1, dtype=np.float64)
        terms = 1.0 / (_TWO_PI * m - mu) ** p
        near = int(round(mu / _TWO_PI))
        ms = range(max(-N, near - 1), min(N, near + 1) + 1)
        terms[ms.start + N : ms.stop + N] = _mp_floats(
            lambda mm: (2 * mm * mpmath.pi - mmu) ** (-p), ms
        )
        up_est, up_bound = _power_tail(_TWO_PI, -mu, float(p), A)
        dn_est, dn_bound = _power_tail(_TWO_PI, mu, float(p), A)
        tail = (up_est, (1.0 if p % 2 == 0 else -1.0) * dn_est)
        tail_bound = up_bound + dn_bound
    return _certified_sum(
        terms, tail, tail_bound, 2 * N + 1, per_term=16.0 + 4.0 * k, reverse=reverse
    )


@_quiet
def sum_inverse_square(theta: float, N: int = 100000) -> SumResult:
    """Bilateral sum of (n + theta)**(-2) over n = -N..N with certified tails.

    Converges to pi**2 / sin(pi*theta)**2.  Integer-lattice terms need no
    extended precision: n + theta is a single exactly-rounded addition.
    """
    theta, N = _check_theta_window(theta, N)
    n = np.arange(-N, N + 1, dtype=np.float64)
    up_est, up_bound = _power_tail(1.0, theta, 2.0, N + 1)
    dn_est, dn_bound = _power_tail(1.0, -theta, 2.0, N + 1)
    return _certified_sum(
        1.0 / (n + theta) ** 2, (up_est, dn_est), up_bound + dn_bound, 2 * N + 1
    )


@_quiet
def sum_cotangent(theta: float, N: int = 100000) -> SumResult:
    """Symmetrically paired partial-fraction sum 1/theta + sum 2*theta/(theta^2 - n^2).

    Converges to pi / tan(pi*theta).  The paired tail is monotone; its
    integral-plus-half-term estimate uses the exact antiderivative
    log((x - theta)/(x + theta)).
    """
    theta, N = _check_theta_window(theta, N)
    n = np.arange(1, N + 1, dtype=np.float64)
    terms = np.append(2.0 * theta / ((theta - n) * (theta + n)), 1.0 / theta)

    A = N + 1
    hA = 1.0 / (A - theta) - 1.0 / (A + theta)
    tail_est = -(math.log1p(2.0 * theta / (A - theta)) + 0.5 * hA)
    hp = abs((A + theta) ** -2 - (A - theta) ** -2)
    hpp = 2.0 * abs((A - theta) ** -3 - (A + theta) ** -3)
    return _certified_sum(terms, (tail_est,), (hp + hpp) / 12.0, 2 * N + 1)


_HURWITZ_KINDS = ("B_even", "B_odd", "E_even", "E_odd")


def hurwitz_partial(kind: str, k: int, x: float, M: int = 100000) -> float:
    """Truncated trigonometric expansion of a Bernoulli/Euler polynomial.

    kind selects the target: B_even -> B_{2k}(x), B_odd -> B_{2k+1}(x),
    E_even -> E_{2k}(x), E_odd -> E_{2k-1}(x), each valid for k >= 1 and
    x in [0, 1].  Returns the M-term partial sum including the leading
    constant (applied after the exactly-rounded summation, so lattice points
    where every term vanishes come out as exact zeros).
    """
    if kind not in _HURWITZ_KINDS:
        raise ValueError("kind must be one of %s" % (_HURWITZ_KINDS,))
    k = _check_int(k, 1, "k")
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    M = _check_int(M, 1, "M")

    sign = -1.0 if k % 2 == 0 else 1.0  # (-1)**(k-1)
    if kind == "B_even":
        m = np.arange(1, M + 1, dtype=np.float64)
        s = _exact_sum(cospi(2.0 * x * m) / m ** (2 * k))
        const = 2.0 * sign * math.factorial(2 * k) / _TWO_PI ** (2 * k)
    elif kind == "B_odd":
        m = np.arange(1, M + 1, dtype=np.float64)
        s = _exact_sum(sinpi(2.0 * x * m) / m ** (2 * k + 1))
        const = 2.0 * sign * math.factorial(2 * k + 1) / _TWO_PI ** (2 * k + 1)
    elif kind == "E_even":
        odd = 2.0 * np.arange(M, dtype=np.float64) + 1.0
        s = _exact_sum(sinpi(odd * x) / odd ** (2 * k + 1))
        const = -4.0 * sign * math.factorial(2 * k) / math.pi ** (2 * k + 1)
    else:  # E_odd, target E_{2k-1}
        odd = 2.0 * np.arange(M, dtype=np.float64) + 1.0
        s = _exact_sum(cospi(odd * x) / odd ** (2 * k))
        const = -4.0 * sign * math.factorial(2 * k - 1) / math.pi ** (2 * k)
    return const * s


def herglotz_residual(theta: float, N: int = 10000) -> Tuple[float, float]:
    """Functional-equation defects of pi^2/sin^2 and its truncated lattice sum.

    Returns (|f(t/2) + f((t+1)/2) - 4 f(t)|, same with f replaced by the
    tail-corrected truncated sum g_N from sum_inverse_square).  The f-defect
    is an exact trig identity, so it measures pure roundoff; the g-defect
    shrinks as N grows.
    """
    theta = _check_lattice_distance(theta, 1.0, "theta")

    def f(t: float) -> float:
        sp = sinpi(t)
        return math.pi ** 2 / (sp * sp)

    f_res = abs(math.fsum([f(theta / 2.0), f((theta + 1.0) / 2.0), -4.0 * f(theta)]))
    g1 = sum_inverse_square(theta / 2.0, N).value
    g2 = sum_inverse_square((theta + 1.0) / 2.0, N).value
    g3 = sum_inverse_square(theta, N).value
    g_res = abs(math.fsum([g1, g2, -4.0 * g3]))
    return f_res, g_res


def herglotz_limit(theta: float, N: int = 1000000) -> float:
    """Truncated lattice sum minus its pole term: g_N(theta) - 1/theta**2.

    Tends to pi**2 / 3 as theta -> 0 (with N large enough that the
    truncation error at the given theta is negligible).
    """
    theta = _check_lattice_distance(theta, 1.0, "theta")
    return sum_inverse_square(theta, N).value - 1.0 / theta ** 2
