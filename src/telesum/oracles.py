"""Brute-force series summation with certified truncation bounds.

Every oracle returns a SumResult whose error_bound is an honest bound on
|value - true sum|: an analytic tail bound (Euler-Maclaurin integral plus
half-term for monotone tails, the Leibniz-interval midpoint for alternating
tails) plus a floating-point roundoff floor.  Each oracle writes its terms
in blocks of at most 2**15 into one buffer per call and computes its tail;
one kernel sums each block as it is written, exactly, so the sum is exactly
rounded at any length, independent of order, and the roundoff floor only has
to cover the rounding of the individual terms.  No oracle builds an array
whose length grows with its term count.  The kernel picks a path for each
block from the block's own range.  Let 2**e be the power of two above the
block's largest magnitude.  A narrow block, whose nonzero terms all have
their lowest bit within 2 * 38 bits below 2**e (the least term within 23
binades of the top), is cut at that scale into two fixed-point slices of
_SLICE = 53 - 15 = 38 bits (Rump, Ogita & Oishi 2008), and each slice is
added with a plain numpy sum: a slice is below 2**38 and a block holds at
most 2**15 of them, so every partial sum is an integer below 2**53 and hence
exact.  Every other block is binned by exponent (Demmel & Hida 2003): each
significand splits into two integer limbs below 2**27, summed per exponent
and lane slot with numpy, again as integers below 2**53; the lanes keep a
monotone series, whose terms share a bin in long runs, from serialising the
per-bin additions.  Both paths meet as one integer, rounded once.  A sum
beyond the double range raises ToleranceUnreachable.

Terms that suffer cancellation against an irrational lattice (multiples of
pi minus the shift) are recomputed in mpmath and patched, by their index,
into whichever block holds them before it is summed.  The integer-lattice
oracles are sum_Ztilde's body at spacing 1, and their terms (n + theta) need
no patching: a single float addition is exactly rounded even when it cancels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import mpmath
import numpy as np

from .apostol_polys import DEFAULT_DPS, _check_lattice_distance
from .exact_core import PiScalar, ToleranceUnreachable, _check_int

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
_TINY = math.ulp(0.0)  # 2**-1074, the least subnormal
_TWO_PI = 2.0 * math.pi

# Hard caps on term counts; tolerances that would need more raise
# ToleranceUnreachable instead of thrashing memory.
_ZETA_N_CAP = 20_000_000
_BETA_M_CAP = 20_000_000


@dataclass(frozen=True)
class SumResult:
    """Certified summation result: |value - true sum| <= error_bound."""

    value: float
    error_bound: float
    terms_used: int


def _trig_into(r: np.ndarray, sign: np.ndarray, t: np.ndarray, cos: bool) -> None:
    """Overwrite r, holding y, with sinpi(y) or cospi(y); sign and t are
    work arrays of r's shape.  y mod 2 from halving, floor and doubling
    (exact) and one rounded difference has np.mod(y, 2.0)'s bits, except at
    -2**-1074, whose half underflows to -0.0: it stays itself, where np.mod
    gives 2.0.  r is then folded onto [0, 1/2], where every subtraction is
    exact (Sterbenz); no y + 1/2 is formed (inexact for |y| >= 2**52)."""
    np.multiply(r, 0.5, out=t)
    np.floor(t, out=t)
    t *= 2.0
    r -= t
    if cos:
        np.minimum(r, np.subtract(2.0, r, out=t), out=r)  # cos(pi r) = cos(pi (2 - r))
        np.subtract(0.5, r, out=sign)  # cos(pi r) < 0 on (1/2, 1]
        np.minimum(r, np.subtract(1.0, r, out=t), out=r)
        np.subtract(0.5, r, out=r)  # cos(pi r) = sin(pi (1/2 - r))
    else:
        # sin(pi r) = -sin(pi (2 - r)) on (1, 2]; the +-1 multiplies, as at
        # -2**-1074 the sine is negative under a positive sign
        np.copysign(1.0, np.subtract(1.0, r, out=sign), out=sign)
        np.minimum(r, np.subtract(2.0, r, out=t), out=r)
        np.minimum(r, np.subtract(1.0, r, out=t), out=r)
    r *= np.pi
    np.sin(r, out=r)
    if cos:
        np.copysign(r, sign, out=r)
    else:
        r *= sign


def sinpi(y: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """sin(pi*y) with exact zeros at integer y and full relative accuracy
    near them, via range reduction of y rather than of pi*y."""
    r = np.array(y, dtype=np.float64)
    _trig_into(r, np.empty_like(r), np.empty_like(r), cos=False)
    return float(r) if r.ndim == 0 else r


def cospi(y: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """cos(pi*y) with exact zeros at half-integer y and exact +-1 at integers,
    by the same reduction of y as sinpi."""
    r = np.array(y, dtype=np.float64)
    _trig_into(r, np.empty_like(r), np.empty_like(r), cos=True)
    return float(r) if r.ndim == 0 else r


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


def _pair_tail(a: float, c: float, A: int) -> Tuple[float, float]:
    """Certified tail of sum_{m >= A} 1/(a*m - c) - 1/(a*m + c) for a > 0,
    a*A > |c|: the integral log((a*A + c)/(a*A - c)) / a plus half-term, and
    the trapezoid-defect bound of _power_tail."""
    yl, yh = a * A - c, a * A + c
    est = math.log1p(2.0 * c / yl) / a + 0.5 * (1.0 / yl - 1.0 / yh)
    hp = a * abs(yl ** -2 - yh ** -2)
    hpp = 2.0 * a * a * abs(yl ** -3 - yh ** -3)
    return est, (hp + hpp) / 12.0


def _alternating_tail(h0: float, h1: float) -> Tuple[float, float]:
    """Certified tail of sum_{i>=0} (-1)**i h(i) for h >= 0 convex decreasing.

    The Leibniz interval is [h0/2, h0/2 + (h0-h1)/2]; returning its midpoint
    halves the worst-case error to (h0-h1)/4.
    """
    d0 = max(h0 - h1, 0.0)
    est = 0.5 * h0 + 0.25 * d0
    bound = 0.25 * d0 + 4.0 * _EPS * h0
    return est, bound


# Every oracle builds its terms with floating-point warnings off: overflow
# shows up as a non-finite sum, which _certified_sum reports.  The summation
# kernel runs with them off too and reports a non-finite term as ValueError.
_quiet = np.errstate(all="ignore")


# Exact summation in blocks of _BLOCK terms, each block by one of two paths
# chosen from what the block itself shows.  Every total is an integer in
# units of 2**-_UNIT, below the lowest bit of any double; all of them meet
# as one Python int, rounded once.
#
# Narrow blocks (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008): let
# 2**e be the power of two just above the block's largest magnitude.  When
# every nonzero term's lowest bit lies within 2 * _SLICE bits below 2**e,
# each term p is exactly t_1 * 2**(e - S) + t_2 * 2**(e - 2S), S = _SLICE,
# with t_1 = trunc(p * 2**(S - e)) and t_2 = (p * 2**(S - e) - t_1) * 2**S,
# both integers.  Every |t_r| < 2**S and a block holds at most _BLOCK terms,
# so with S = 53 - log2(_BLOCK) = 38 every partial sum of a plain numpy sum
# of a slice is an integer below 2**53, hence exact in any order: the least
# term may lie 2S - 53 = 23 binades below the top.  A mixed-sign block sums
# |t_r| the same way for its magnitude.
#
# Wide blocks, and blocks whose scale 2**(S - e) would leave the normal
# range, are binned by exponent (Demmel & Hida, SIAM J. Sci. Comput. 25,
# 2003).  Each double is |m| * 2**e * sign with |m| in [1/2, 1) from frexp;
# |m| * 2**27 splits exactly into an integer hi < 2**27 and a fraction that,
# times 2**26, is an integer lo < 2**26.  bincount sums the limbs per
# (exponent, sign) bin and lane: term i of a block goes to lane i % _LANES of
# its bin, because terms of a monotone series fall into one bin in long runs
# and a single accumulator slot would make each addition wait for the one
# before.  A slot total stays an integer below 2**53, hence exact in float64,
# while a block holds fewer than 2**26 terms, and the totals of all blocks add
# up in int64 (exact below 2**36 terms); integer sums are exact in any
# grouping, so folding the lanes changes no bit.
#
# The oracles never build a whole term array: each writes its terms block by
# block into a buffer that _stream_sum allocates once per call, and every
# block is summed as soon as it is written, while it is still in cache.
# 2**15 beat 2**16 and 2**14 in alternating series_grid runs: the buffer of
# a call stays within the L2 cache, and the per-block Python costs stay few
_BLOCK = 1 << 15
_SLICE = 53 - (_BLOCK.bit_length() - 1)
_LANES = 4
_LANE = np.arange(_BLOCK, dtype=np.int32) % _LANES
# read-only offsets 0 .. _BLOCK - 1: term start + j of a block is formed as
# _OFFSETS[j] + start, exact for every index below 2**53
_OFFSETS = np.arange(_BLOCK, dtype=np.float64)
_OFFSETS.flags.writeable = False
_EXP_BIAS = 1074  # frexp exponents run from -1073 (least subnormal) to 1024
_BINS = 2 * (1024 + _EXP_BIAS + 1)  # bin 2 * (e + _EXP_BIAS) + sign bit
_UNIT = _EXP_BIAS + 53


def _fixed_block(block: np.ndarray, scratch: np.ndarray) -> Optional[Tuple[int, int]]:
    """(sum, sum of magnitudes) of a narrow block in units of 2**-_UNIT, or
    None for a block the slices cannot hold exactly, a non-finite one
    included.  scratch holds two rows at least as long as the block."""
    top, bottom = float(block.max()), float(block.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        return None
    if top == bottom == 0.0:
        return 0, 0
    e = math.frexp(max(top, -bottom))[1]
    if bottom > 0.0:
        least = bottom
    elif top < 0.0:
        least = -top
    else:
        magnitudes = np.abs(block, out=scratch[0, : block.size])
        least = float(magnitudes.min())
        if least == 0.0:
            least = float(magnitudes[magnitudes > 0.0].min())
    # the least term's lowest bit is 2**(f - 53) or coarser; the scale
    # 2**(_SLICE - e) must be a normal double
    if math.frexp(least)[1] - 53 < e - 2 * _SLICE or _SLICE - e > 1023:
        return None
    rows = scratch[:, : block.size]
    scaled, high = rows
    np.multiply(block, 2.0 ** (_SLICE - e), out=scaled)
    np.trunc(scaled, out=high)
    scaled -= high  # the low slice times 2**-_SLICE, exact
    value = (int(high.sum()) << _SLICE) + int(scaled.sum() * 2.0**_SLICE)
    if bottom >= 0.0 or top <= 0.0:
        magnitude = abs(value)
    else:
        np.abs(rows, out=rows)
        magnitude = (int(high.sum()) << _SLICE) + int(scaled.sum() * 2.0**_SLICE)
    shift = e - 2 * _SLICE + _UNIT
    return value << shift, magnitude << shift


def _binned_block(block: np.ndarray, scratch: np.ndarray, slots: np.ndarray,
                  limbs: np.ndarray) -> int:
    """Add a wide block's hi and lo limb sums per slot into the two rows of
    limbs, using scratch (two float rows) and slots (an int64 row) as work
    space; returns the number of slots used."""
    m, hi = scratch[:, : block.size]
    slots = slots[: block.size]
    np.frexp(block, out=(m, slots))
    slots += _EXP_BIAS
    slots *= 2
    slots += np.signbit(m)
    slots *= _LANES
    slots += _LANE[: block.size]
    np.abs(m, out=m)
    m *= 2.0**27
    np.trunc(m, out=hi)
    m -= hi
    m *= 2.0**26  # the low limb
    for row, limb in zip(limbs, (hi, m)):
        sums = np.bincount(slots, weights=limb)
        if not np.isfinite(sums).all():  # an infinite or nan term
            raise ValueError("non-finite term")
        row[: sums.size] += sums.astype(np.int64)
    return sums.size


def _bin_total(limbs: np.ndarray) -> int:
    # exponent bin b holds (hi * 2**26 + lo) * 2**(b - _UNIT)
    hi, lo = limbs
    nz = np.flatnonzero(hi | lo)
    per_bin = zip(nz.tolist(), hi[nz].tolist(), lo[nz].tolist())
    return sum(((h << 26) + l) << b for b, h, l in per_bin)


# (first index, values) pairs to write over the terms from that index on
_Patches = Sequence[Tuple[int, Sequence[float]]]


@_quiet
def _stream_sum(count: int, fill: Callable[..., None], rows: int = 1, spare: int = 0,
                patches: _Patches = ()) -> List[Tuple[float, float]]:
    """(sum, sum of magnitudes) of each of rows sequences of count terms,
    each exactly rounded to the nearest double whatever the length or order.

    fill(start, *blocks) writes terms start, start + 1, ... of sequence r
    into blocks[r], at most _BLOCK of them, and may use the spare blocks
    after those as work space.  Each (first, values) patch then overwrites
    terms first, first + 1, ... of the first sequence wherever they fall.
    Raises ValueError on a non-finite term and OverflowError on a sum beyond
    the double range.
    """
    # one buffer per call, reused by every block, with the kernel's two
    # scratch rows and its slot row last: the allocator keeps a buffer of
    # the size it last freed for the next call, while fresh temporaries for
    # every block would cost about as much in page faults as the arithmetic
    work = np.empty((rows + spare + 3, min(count, _BLOCK)))
    scratch, slots = work[-3:-1], work[-1].view(np.int64)
    exact = [[0, 0] for _ in range(rows)]  # narrow totals in units of 2**-_UNIT
    limbs, used = None, 0  # per sequence, the limb sums of the wide blocks
    for start in range(0, count, _BLOCK):
        blocks = work[: rows + spare, : min(_BLOCK, count - start)]
        fill(start, *blocks)
        for first, values in patches:
            lo, hi = max(first, start), min(first + len(values), start + blocks.shape[1])
            if lo < hi:
                blocks[0, lo - start : hi - start] = values[lo - first : hi - first]
        for r in range(rows):
            fixed = _fixed_block(blocks[r], scratch)
            if fixed is not None:
                exact[r][0] += fixed[0]
                exact[r][1] += fixed[1]
                continue
            if limbs is None:
                limbs = np.zeros((rows, 2, _BINS * _LANES), dtype=np.int64)
            used = max(used, _binned_block(blocks[r], scratch, slots, limbs[r]))
    sums = []
    for r, (value, magnitude) in enumerate(exact):
        if limbs is not None:
            # fold the lanes of the occupied (+, -) bin pairs only: strided adds,
            # as a reduction over the short lane axis is several times slower
            occupied = limbs[r, :, : -(-used // (2 * _LANES)) * 2 * _LANES]
            folded = sum(occupied[:, lane::_LANES] for lane in range(_LANES))
            pos, neg = folded[:, 0::2], folded[:, 1::2]
            value += _bin_total(pos - neg)
            magnitude += _bin_total(pos + neg)
        # int true division rounds correctly and raises OverflowError past the
        # double range
        sums.append((value / (1 << _UNIT), magnitude / (1 << _UNIT)))
    return sums


def _exact_sum(values: np.ndarray) -> Tuple[float, float]:
    """(sum of values, sum of |values|) of an existing array, through
    _stream_sum block by block."""
    values = np.asarray(values, dtype=np.float64)

    def fill(start: int, block: np.ndarray) -> None:
        block[:] = values[start : start + block.size]

    return _stream_sum(values.size, fill)[0]


def _certified_sum(count: int, fill: Callable[..., None], tail: Sequence[float],
                   tail_bound: float, terms_used: int, *, spare: int = 0,
                   patches: _Patches = (), magnitudes: bool = False,
                   per_term: float = 16.0, tail_in_floor: bool = True) -> SumResult:
    """value = exactly rounded sum of the count terms fill writes, as in
    _stream_sum, then each tail estimate added in order; error_bound =
    tail_bound + roundoff floor over |terms| (or, when magnitudes, over the
    second sequence fill writes) and, when tail_in_floor, |tail|."""
    try:
        (partial, abs_accum), *rest = _stream_sum(count, fill, 1 + magnitudes, spare, patches)
        if rest:
            abs_accum = rest[0][0]
    except (OverflowError, ValueError):
        # a non-finite term or a sum beyond the double range
        partial = abs_accum = math.inf
    value = partial
    for t in tail:
        value += t
        if tail_in_floor:
            abs_accum += abs(t)
    # per_term * eps covers the relative rounding of each summand; the exact
    # kernel contributes only its one final rounding, covered by the value term.
    # Below the normal range neither rounding is relative: a term may err by
    # up to 2**-1074 absolutely, and each later rounding by half that.
    bound = tail_bound + (per_term * _EPS * abs_accum + 4.0 * _EPS * abs(value))
    bound += (count + len(tail) + 1) * _TINY
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


def _check_window(x: float, spacing: float, N: int, what: str) -> Tuple[float, int]:
    # the window m = -N..N must hold the pole's nearest lattice point, or
    # the dominant term would fall into the tail estimate
    x = _check_lattice_distance(x, spacing, what)
    N = _check_int(N, "N", 1)
    if N < round(abs(x) / spacing):
        ratio = "|%s|" % what if spacing == 1.0 else "|%s| / (2*pi)" % what
        raise ValueError("N too small: need N >= round(%s)" % ratio)
    return x, N


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


@_quiet
def sum_zeta(s: int, target_tol: float = 1e-10) -> SumResult:
    """Partial sum of m**(-s) over m >= 1 with a certified tail correction.

    The tail from N on is replaced by its integral-plus-half-term estimate
    N**(1-s)/(s-1) + N**(-s)/2; N is chosen so the certified remainder
    (trapezoid defect plus roundoff floor) is at most target_tol.
    """
    s = _check_int(s, "s", 2)

    def fill(start: int, terms: np.ndarray) -> None:
        np.add(_OFFSETS[: terms.size], start + 1, out=terms)
        terms **= float(-s)

    def attempt(N: int) -> SumResult:
        tail_est, tail_bound = _power_tail(1.0, 0.0, float(s), N)
        return _certified_sum(N - 1, fill, (tail_est,), tail_bound, N - 1)

    start = lambda tol: max(10, int(math.ceil((s / (6.0 * tol)) ** (1.0 / (s + 1)))))
    return _to_tolerance(target_tol, start, _ZETA_N_CAP, "N cap %d" % _ZETA_N_CAP, attempt)


@_quiet
def sum_beta(s: int, target_tol: float = 1e-10) -> SumResult:
    """Alternating sum of (-1)**m (2m+1)**(-s) with a certified tail.

    Terms are grouped pairwise (m even with m odd) so the grouped series has
    positive decreasing terms; the remaining alternating tail is certified
    by the Leibniz interval around its half-term midpoint.
    """
    s = _check_int(s, "s", 1)

    def fill(start: int, terms: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
        # term j is lo - hi with lo = (4j + 1)**-s, hi = (4j + 3)**-s; its
        # magnitude, the second sequence, lo + hi
        np.add(_OFFSETS[: terms.size], start, out=hi)
        hi *= 4.0
        np.add(hi, 1.0, out=lo)
        hi += 3.0
        lo **= float(-s)
        hi **= float(-s)
        np.subtract(lo, hi, out=terms)
        hi += lo

    def attempt(J: int) -> SumResult:
        M = 2 * J
        # tail anchor M is even, so the omitted tail starts with + sign
        tail_est, tail_bound = _alternating_tail(
            (2.0 * M + 1.0) ** float(-s), (2.0 * M + 3.0) ** float(-s)
        )
        return _certified_sum(J, fill, (tail_est,), tail_bound, M, spare=1, magnitudes=True)

    # bound ~ (s/2)(2M+1)^(-s-1); solve for the anchor 2M+1
    start = lambda tol: max(8, int(math.ceil(((s / tol) ** (1.0 / (s + 1)) - 1.0) / 4.0)) + 2)
    return _to_tolerance(target_tol, start, _BETA_M_CAP // 2, "term cap %d" % _BETA_M_CAP, attempt)


@_quiet
def sum_Z(k: int, mu: float, N: int = 10000) -> SumResult:
    """Bilateral alternating lattice sum (-1)**m / ((2m+1)*pi - mu)**(k+1).

    Lattice indices m and -m-1 are paired before summation (the pairing is
    part of the contract: it is what gives the conditionally convergent
    k = 0 case its symmetric-limit meaning).  N pairs cover the window
    m = -N..N-1; the paired tail is alternating with a convex decreasing
    magnitude, certified by the Leibniz midpoint.  The first three pairs
    are computed in mpmath because (2m+1)*pi - mu cancels against float pi.

    With b = (2m+1)*pi and p = k + 1, a pair is (b-mu)**-p + (b+mu)**-p at
    even k.  At odd k it is the difference, formed without cancellation as
    -sign(mu) * (b-|mu|)**-p * expm1(-2p*atanh(|mu|/b)): the farther power
    over the nearer one is ((b-|mu|)/(b+|mu|))**p = exp(-2p*atanh(|mu|/b)),
    and expm1 of an argument <= 0 neither overflows nor amplifies its
    argument's error.  So the rounding floor of each float pair is relative
    to the pair itself.  In units of eps = 2**-52, with 4 eps for each of
    numpy's atanh, expm1 and pow, and m >= 3, so b >= 7*pi > 7|mu|, the
    accumulated relative errors are:
      b = (2m+1)*pi rounded                      0.7
      |mu|/b                                     1.2
      atanh(|mu|/b), condition < 49/48           5.3
      y = 2p*atanh(|mu|/b)                       5.8
      expm1(-y), condition y/(e**y - 1) <= 1     9.8
      b - |mu|, cancelling by < 7/6              1.4
      (b-|mu|)**-p                               1.4p + 4
      their product                              9.8 + 1.4p + 4 + 0.5
    that is 15.7 + 1.4k; at even k each power is 1.4p + 4 and their sum
    5.9 + 1.4k.  Both stay under the 16 + 4k of the other lattice sums.
    """
    k = _check_int(k, "k", 0)
    mu = float(mu)
    if not (abs(mu) < math.pi):
        raise ValueError("mu must satisfy |mu| < pi")
    N = _check_int(N, "N", 1)

    p = k + 1
    # term m is (-1)**m times its pair: negate the odd ones, except that at
    # odd k the pairs come out as -|pair|, so for mu > 0 negate the even ones
    flip = 0 if k % 2 and mu > 0 else 1

    def fill(start: int, terms: np.ndarray, base: np.ndarray) -> None:
        np.add(_OFFSETS[: terms.size], start, out=base)
        base *= 2.0
        base += 1.0
        base *= np.pi
        if k % 2:
            np.divide(abs(mu), base, out=terms)
            np.arctanh(terms, out=terms)
            terms *= -2.0 * p
            np.expm1(terms, out=terms)
            base -= abs(mu)
            base **= -p
            terms *= base
        else:
            np.subtract(base, mu, out=terms)
            terms **= -p
            base += mu
            base **= -p
            terms += base
        terms[(flip - start) % 2 :: 2] *= -1.0

    mmu = mpmath.mpf(mu)

    def exact(j: int) -> "mpmath.mpf":
        b = (2 * j + 1) * mpmath.pi
        if k % 2:  # the difference, without cancellation, as above
            pair = -(b - mmu) ** (-p) * mpmath.expm1(-2 * p * mpmath.atanh(mmu / b))
        else:
            pair = (b - mmu) ** (-p) + (b + mmu) ** (-p)
        return (-1) ** j * pair

    # every pair has the sign of mu (k odd) or is positive (k even), so the
    # paired tail has the sign of its first term; at k odd, mu = 0 it is 0
    t0, t1 = _mp_floats(exact, (N, N + 1))
    tail_mag, tail_bound = _alternating_tail(abs(t0), abs(t1))
    # the Leibniz bound already carries the rounding of the tail estimate
    return _certified_sum(
        N, fill, (math.copysign(tail_mag, t0),), tail_bound, 2 * N,
        spare=1, patches=((0, _mp_floats(exact, range(min(3, N)))),),
        per_term=16.0 + 4.0 * k, tail_in_floor=False,
    )


@_quiet
def _lattice_sum(k: int, a: float, c: float, N: int, patches: _Patches = ()) -> SumResult:
    """sum_Ztilde's body: the sum of (m*a - c)**-(k+1) over m = -N..N, a > 0.
    Term i is that of m = i - N, or at k = 0 the pair of m = i + 1 and -m,
    and term N the m = 0 term; patches as in _stream_sum."""
    p = k + 1
    if k == 0:
        def fill(start: int, terms: np.ndarray, m: np.ndarray) -> None:
            np.add(_OFFSETS[: terms.size], start + 1, out=m)
            if a != 1.0:
                m *= a
            np.subtract(m, c, out=terms)
            m += c
            terms *= m
            np.divide(2.0 * c, terms, out=terms)

        est, tail_bound = _pair_tail(a, c, N + 1)
        count, tail, patches = N + 1, (est,), (*patches, (N, [-1.0 / c]))
    else:
        # numpy's vectorised pow takes only positive bases (a negative one
        # falls back to scalar libm): odd powers raise |x|, then copy x's sign
        def fill(start: int, terms: np.ndarray, *spare: np.ndarray) -> None:
            x = spare[0] if p % 2 else terms
            np.add(_OFFSETS[: terms.size], start - N, out=x)
            if a != 1.0:
                x *= a
            x -= c
            if p == 2:
                np.square(x, out=terms)
            else:
                np.abs(x, out=terms)
                terms **= p
            np.divide(1.0, terms, out=terms)
            if p % 2:
                np.copysign(terms, x, out=terms)

        up_est, up_bound = _power_tail(a, -c, float(p), N + 1)
        dn_est, dn_bound = _power_tail(a, c, float(p), N + 1)
        count, tail = 2 * N + 1, (up_est, (1.0 if p % 2 == 0 else -1.0) * dn_est)
        tail_bound = up_bound + dn_bound
    # n - c on the integer lattice is one rounding; m*a - c adds the rounding
    # of m*a, which the power multiplies
    return _certified_sum(
        count, fill, tail, tail_bound, 2 * N + 1, spare=p % 2, patches=patches,
        per_term=16.0 if a == 1.0 else 16.0 + 4.0 * k,
    )


def sum_Ztilde(k: int, mu: float, N: int = 10000) -> SumResult:
    """Bilateral lattice sum 1 / (2*m*pi - mu)**(k+1) over m = -N..N.

    For k >= 1 the terms are summed directly (absolute convergence); both
    one-sided tails get integral-plus-half-term corrections.  For k = 0 the
    conditionally convergent sum is given its symmetric-limit meaning by
    pairing m with -m, which yields terms 2*mu/((2*m*pi)^2 - mu^2).  Terms
    nearest the lattice singularity are recomputed in mpmath.
    """
    k = _check_int(k, "k", 0)
    mu, N = _check_window(mu, _TWO_PI, N, "mu")
    mmu = mpmath.mpf(mu)
    # term m - least holds m, or at k = 0 the pair of m and -m
    least, near = (1, round(abs(mu) / _TWO_PI)) if k == 0 else (-N, round(mu / _TWO_PI))
    ms = range(max(least, near - 1), min(N, near + 1) + 1)
    if k == 0:
        exact = lambda m: 2 * mmu / ((2 * m * mpmath.pi - mmu) * (2 * m * mpmath.pi + mmu))
    else:
        exact = lambda m: (2 * m * mpmath.pi - mmu) ** (-k - 1)
    return _lattice_sum(k, _TWO_PI, mu, N, ((ms.start - least, _mp_floats(exact, ms)),))


def sum_inverse_square(theta: float, N: int = 100000) -> SumResult:
    """Bilateral sum of (n + theta)**(-2) over n = -N..N with certified tails.

    Converges to pi**2 / sin(pi*theta)**2.  sum_Ztilde's body at spacing 1,
    shift -theta: n + theta is a single exactly-rounded addition, so no term
    needs extended precision.
    """
    theta, N = _check_window(theta, 1.0, N, "theta")
    return _lattice_sum(1, 1.0, -theta, N)


def sum_cotangent(theta: float, N: int = 100000) -> SumResult:
    """Symmetrically paired partial-fraction sum 1/theta + sum 2*theta/(theta^2 - n^2).

    Converges to pi / tan(pi*theta).  It is the negation of sum_Ztilde's
    paired body at spacing 1, shift theta and k = 0, whose monotone tail
    estimate uses the exact antiderivative log((x - theta)/(x + theta)).
    """
    theta, N = _check_window(theta, 1.0, N, "theta")
    r = _lattice_sum(0, 1.0, theta, N)
    # exactly rounded, the negated terms sum to the negated value; 0.0 - v
    # keeps +0.0 for a sum that cancels to zero
    return SumResult(0.0 - r.value, r.error_bound, r.terms_used)


# kind -> (p - 2k, Euler kind): even powers p pair with cosines, odd ones
# with sines; the Bernoulli kinds run over every harmonic of 2*pi*x, the
# Euler kinds over the odd harmonics of pi*x
_HURWITZ = {"B_even": (0, False), "B_odd": (1, False), "E_even": (1, True), "E_odd": (0, True)}


@_quiet
def hurwitz_partial(kind: str, k: int, x: float, M: int = 100000) -> float:
    """Truncated trigonometric expansion of a Bernoulli/Euler polynomial.

    kind selects the target: B_even -> B_{2k}(x), B_odd -> B_{2k+1}(x),
    E_even -> E_{2k}(x), E_odd -> E_{2k-1}(x), each valid for k >= 1 and
    x in [0, 1].  Returns the M-term partial sum including the leading
    constant (applied after the exactly-rounded summation, so lattice points
    where every term vanishes come out as exact zeros).  Raises
    ToleranceUnreachable when the result is beyond the double range.
    """
    if kind not in _HURWITZ:
        raise ValueError("kind must be one of %s" % (tuple(_HURWITZ),))
    k = _check_int(k, "k", 1)
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    M = _check_int(M, "M", 1)

    extra, euler = _HURWITZ[kind]
    p = 2 * k + extra
    sign = -1 if k % 2 == 0 else 1  # (-1)**(k-1)
    if euler:  # E_{p-1}(x): -4 sign (p-1)! / pi**p times sum_h trig(pi h x) / h**p, h odd
        scale, c, n, den = x, -4, p - 1, 1
    else:  # B_p(x): 2 sign p! / (2 pi)**p times sum_h trig(2 pi h x) / h**p, h >= 1
        scale, c, n, den = 2.0 * x, 2, p, 2 ** p

    def fill(start: int, terms: np.ndarray, h: np.ndarray, *temps: np.ndarray) -> None:
        # term i is that of h = 2i + 1 (Euler) or h = i + 1 (Bernoulli)
        np.add(_OFFSETS[: terms.size], start, out=h)
        if euler:
            h *= 2.0
        h += 1.0
        np.multiply(h, scale, out=terms)
        _trig_into(terms, *temps, cos=not extra)
        h **= p
        terms /= h

    s = _stream_sum(M, fill, spare=3)[0][0]
    value = float(PiScalar(Fraction(c * sign * math.factorial(n), den), -p)) * s
    if not math.isfinite(value):
        raise ToleranceUnreachable(
            "hurwitz_partial(%r, %d) leaves the double-precision range" % (kind, k),
            achieved=math.inf,
        )
    return value


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
