"""Brute-force series summation with certified truncation bounds.

Every oracle returns a SumResult whose error_bound is an honest bound on
|value - true sum|: an analytic tail bound (Euler-Maclaurin integral plus
half-term for monotone tails, the Leibniz-interval midpoint for alternating
tails) plus a floating-point roundoff floor.  Each oracle writes its terms
in blocks of at most 2**15 into one buffer per call, as long as the blocks
read, and computes its tail; one kernel sums each block as it is written,
exactly, so the sum is exactly rounded at any length, independent of order,
and the roundoff floor only has to cover the rounding of the individual
terms, scaled by the sum of their magnitudes that the kernel takes
alongside.  Each oracle writes one sequence: an alternating series
(sum_beta, sum_Z) writes its own signed terms.  No oracle builds an array
whose length grows with its term count.  The kernel takes one of two
routes for each block, by its length alone.  (1) A short block, of at most
_SHORT = 64 terms, is summed exactly in Python ints, each term's
significand shifted to one common scale.  (2) A longer block is cut into
two fixed-point slices of _SLICE = 53 - 15 = 38 bits (Rump, Ogita & Oishi
2008), one window of 24 binades at a time, and each slice is added with a
plain numpy sum: a slice is below 2**38 and a block holds at most 2**15 of
them, so every partial sum is an integer below 2**53 and hence exact.  A
block that one window holds is sliced whole; a wider one is sliced in the
window above its least nonzero term, and its terms above that window are
taken out and summed as a block of their own, by the same two routes.  Each
route gives the block's exact sum and sum of magnitudes as two Python ints,
which add up over the blocks and are rounded once.  A sum beyond the double
range raises ToleranceUnreachable.

A sum stops early once its rounding is decided (Ziv, ACM TOMS 17, 1991).
hurwitz_partial, and sum_Z and sum_Ztilde at k >= 1, hand the kernel a
majorant of the terms not yet read, as their fill computes them in floats:
an analytic bound on the exact terms (sum over h >= H of h**-p, 2 (2*m*pi)**-p
for each pair of sum_Z, twice (|m - n|*2*pi - |r|)**-p for sum_Ztilde's
terms, which then run centre-out from the pole) with a relative slack for
each term's rounding and one 2**-1074 per term for underflow.  After a block
the kernel takes its exact running integers S (the sum) and A (the sum of
magnitudes) and the majorant T in the same units; when S - T and S + T
round to one double, and A and A + T to one double, these are the doubles
the whole sum would give, since rounding is monotone, so value, error_bound
and terms_used are bit-identical to summing every term.  The first block of
such a sum is the least power of two n from 32 to 2**10 terms by which the
majorant has fallen to 2**-54 of its value after the first term, rest(n) *
2**54 <= rest(1): 32 or 64 terms at high powers, which the Python ints sum,
2**10 at low ones.  The kernel keeps the majorant only where it can decide
before the last term, judged against that block's exact magnitude (the
terms decay like h**-p with p >= 5 or so, or the first few dwarf the rest),
and then reads blocks doubling up to 2**15.

The lattice oracles reduce their shift once, through
exact_core._pole_distance, the one reduction of every shifted argument:
with the shift c = n*a + r against the nearest pole n*a, r correctly rounded,
term m is formed as (m - n)*a - r, so no term cancels against the double pi
and each is accurate relative to itself, however large |c| is; the tails
start at N + 1 -+ n.  The integer-lattice oracles are sum_Ztilde's body at
spacing 1, where m - c is already one rounding, so there n = 0 and r = c.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .exact_core import (_COT, _INT, _SEC, PiScalar, ToleranceUnreachable, _beyond_range, _check_int,
                         _check_tol, _pole_distance, _Record)

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


class SumResult(_Record):
    """Certified summation result: |value - true sum| <= error_bound."""

    __slots__ = ("value", "error_bound", "terms_used")

    def __init__(self, value: float, error_bound: float, terms_used: int) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error_bound", error_bound)
        object.__setattr__(self, "terms_used", terms_used)


def _trig_into(r: np.ndarray, sign: np.ndarray, t: np.ndarray, cos: bool) -> None:
    """Overwrite r, holding y, with sinpi(y) or cospi(y); sign and t are
    work arrays of r's shape.  For y >= 0, y mod 2 from halving, floor and
    doubling (exact) and one difference, exact too, has np.mod(y, 2.0)'s
    bits.  r is then folded onto [0, 1/2], where every subtraction is exact
    (Sterbenz); no y + 1/2 is formed (inexact for |y| >= 2**52)."""
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
        # sin(pi r) = -sin(pi (2 - r)) on (1, 2]
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
    near them, via range reduction of y rather than of pi*y; a negative y
    is reflected first, sinpi(y) = -sinpi(-y), so its reduction is exact."""
    r = np.array(y, dtype=np.float64)
    reflect = np.copysign(1.0, r)
    np.abs(r, out=r)
    _trig_into(r, np.empty_like(r), np.empty_like(r), cos=False)
    r *= reflect
    return float(r) if r.ndim == 0 else r


def cospi(y: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """cos(pi*y) with exact zeros at half-integer y and exact +-1 at integers,
    by the same reduction of |y| as sinpi."""
    r = np.array(y, dtype=np.float64)
    np.abs(r, out=r)
    _trig_into(r, np.empty_like(r), np.empty_like(r), cos=True)
    return float(r) if r.ndim == 0 else r


def _power_tail(a: float, b: float, p: float, A: int) -> Tuple[float, float]:
    """Certified tail of sum_{m >= A} (a*m + b)**(-p) for a > 0, p > 1.

    Estimate is the integral plus half-term; the trapezoid-defect bound
    (|f'(A)| + f''(A)) / 12 is valid because f is convex decreasing with
    decreasing second derivative.  The tail start y = a*A + b must be at
    least 1/2, and at least pi unless p = 2, so no power overflows: sum_zeta
    has y = N >= 10, sum_Ztilde's window keeps y >= pi, and
    sum_inverse_square's keeps y >= 1/2 at p = 2.
    """
    y = a * A + b
    est = y ** (1.0 - p) / (a * (p - 1.0)) + 0.5 * y ** (-p)
    bound = (p * a * y ** (-p - 1.0) + p * (p + 1.0) * a * a * y ** (-p - 2.0)) / 12.0
    return est, bound


def _pair_tail(a: float, c: float, yl: float, yh: float) -> Tuple[float, float]:
    """Certified tail of sum_{m >= A} 1/(a*m - c) - 1/(a*m + c) for a > 0,
    a*A > |c|, from its first factors yl = a*A - c and yh = a*A + c: the
    integral log(yh/yl) / a plus half-term, and the trapezoid-defect bound
    of _power_tail."""
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


# Every oracle builds its terms in fill, which only _stream_sum calls, so
# the kernel's floating-point warnings are off for them too: overflow shows
# up as a non-finite term, which _stream_sum reports as ValueError and
# _certified_sum as unreachable.
_quiet = np.errstate(all="ignore")


# Exact summation in blocks of at most _BLOCK terms, each block by one of
# two routes chosen by the block's length: a short block in Python ints
# (_SHORT below), and a longer one in two fixed-point slices, one window at
# a time.  Every total is an integer in units of 2**-_UNIT, below the lowest
# bit of any double; all of them meet as one Python int, rounded once.
#
# Slices (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008): at a window
# E, every term p below 2**E whose lowest bit lies within 2 * _SLICE bits
# below 2**E is exactly t_1 * 2**(E - S) + t_2 * 2**(E - 2S), S = _SLICE,
# with t_1 = trunc(p * 2**(S - E)) and t_2 = (p * 2**(S - E) - t_1) * 2**S,
# both integers.  Every |t_r| < 2**S and a block holds at most _BLOCK terms,
# so with S = 53 - log2(_BLOCK) = 38 every partial sum of a plain numpy sum
# of a slice is an integer below 2**53, hence exact in any order: a term of
# frexp exponent f has its lowest bit at 2**(f - 53) or above, so the window
# holds the terms with E - _SPAN <= f <= E, 24 binades.  A mixed-sign block
# sums |t_r| the same way for its magnitude.
#
# Window by window: let 2**e be the power of two just above the block's
# largest magnitude and f the frexp exponent of its least nonzero one.  A
# block with f >= e - _SPAN is sliced whole at E = e.  A wider one is sliced
# at E = f + _SPAN, the window above its least term, with its terms at or
# above 2**E zeroed in the scaled row; those are taken out and summed as a
# block of their own, in ints or by the same rule again.  Each window starts
# above the one before, so a block over b binades takes at most b / 24 + 1
# windows: a block of decaying terms, as 1/m**2 below its first few, takes
# the window of its tail and then ints for the few, and a block with a few
# terms near zero, where hurwitz_partial's trigonometric factor crosses it,
# takes their window and then one for the rest.  E is at least 2 * _SLICE -
# _UNIT, so that the shift into units is never negative, and a scale
# 2**(S - E) past 2**1023 is applied as two exact power-of-two multiplies.
# A block spread evenly over many binades costs a pass per window, where
# exponent bins (Demmel & Hida, SIAM J. Sci. Comput. 25, 2003) cost one,
# but the oracles write none: each block after the first at most doubles h,
# so its power of h spans at most p binades, and the first block of a high
# power is short.  A non-finite term raises ValueError from the block's max
# and min, before any window is scaled.
#
# The oracles never build a whole term array: each writes its terms block by
# block into a buffer that _stream_sum allocates per call, as long as the
# blocks it reads, and every block is summed as soon as it is written, while
# it is still in cache.
# 2**15 beat 2**16 and 2**14 in alternating series_grid runs: the buffer of
# a call stays within the L2 cache, and the per-block Python costs stay few
_BLOCK = 1 << 15
_SLICE = 53 - (_BLOCK.bit_length() - 1)
_SPAN = 2 * _SLICE - 53  # binades between the top and the least term of a window
# read-only offsets 0 .. _BLOCK - 1: term start + j of a block is formed as
# _OFFSETS[j] + start, exact for every index below 2**53
_OFFSETS = np.arange(_BLOCK, dtype=np.float64)
_OFFSETS.flags.writeable = False
_UNIT = 1074 + 53  # 53 binades below the least subnormal, 2**-1074
# A block of at most _SHORT terms is summed in Python ints instead: up to
# _FEW terms each term's integer ratio shifted to one scale (_units), about
# 0.5 us a term on a 2-core Xeon, and past _FEW numpy's significands, each
# shifted from the block's least exponent, about 5 us and 0.15 us a term.
# The first block of a Ziv sum at a high power is wide, 32 or 64 terms, and
# so are the first few terms above a window of a decaying block: one more
# window costs about 10 us.  A short block that one window holds costs
# 11-12 us by either route (series_grid, seeds 1-8), so the length alone
# picks the route
_SHORT = 64
_FEW = 20


def _sliced_block(block: np.ndarray, scratch: np.ndarray) -> Tuple[int, int]:
    """(sum, sum of magnitudes) of a block in units of 2**-_UNIT by the
    slices, window by window; ValueError for a non-finite term.  scratch
    holds two rows at least as long as the block."""
    top, bottom = float(block.max()), float(block.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("non-finite term")
    if top == bottom == 0.0:
        return 0, 0
    e = math.frexp(max(top, -bottom))[1]
    if bottom > 0.0:
        least, magnitudes = bottom, block
    elif top < 0.0:
        least, magnitudes = -top, None
    else:
        magnitudes = np.abs(block, out=scratch[0, : block.size])
        least = float(magnitudes.min())
        if least == 0.0:
            least = float(magnitudes[magnitudes > 0.0].min())
    E = max(min(e, math.frexp(least)[1] + _SPAN), 2 * _SLICE - _UNIT)
    if E < e:  # the terms at or above 2**E, to be summed on their own
        if magnitudes is None:
            magnitudes = np.negative(block, out=scratch[0, : block.size])
        outside = (magnitudes >= 2.0**E).nonzero()[0]
        above = block.take(outside)
    rows = scratch[:, : block.size]
    scaled, high = rows
    np.multiply(block, 2.0 ** min(_SLICE - E, 1023), out=scaled)
    if _SLICE - E > 1023:
        scaled *= 2.0 ** (_SLICE - E - 1023)
    if E < e:
        scaled[outside] = 0.0
    np.trunc(scaled, out=high)
    scaled -= high  # the low slice times 2**-_SLICE, exact
    # both rows' sums in one call: each is exact in any order
    lo, hi = rows.sum(axis=1).tolist()
    value = (int(hi) << _SLICE) + int(lo * 2.0**_SLICE)
    if bottom >= 0.0 or top <= 0.0:
        magnitude = abs(value)
    else:
        np.abs(rows, out=rows)
        lo, hi = rows.sum(axis=1).tolist()
        magnitude = (int(hi) << _SLICE) + int(lo * 2.0**_SLICE)
    shift = E - 2 * _SLICE + _UNIT
    value, magnitude = value << shift, magnitude << shift
    if E < e:
        sums = _block_sums(above, scratch)
        value, magnitude = value + sums[0], magnitude + sums[1]
    return value, magnitude


def _units(x: float) -> int:
    # a finite x in units of 2**-_UNIT, exactly: x = num / den with den a
    # power of two at most 2**1074
    num, den = x.as_integer_ratio()
    return num << (_UNIT + 1 - den.bit_length())


def _short_block(block: np.ndarray) -> Tuple[int, int]:
    """(sum, sum of magnitudes) of at most _SHORT terms in units of
    2**-_UNIT, in Python ints; ValueError for a non-finite term, before any
    is summed."""
    if block.size > _FEW:
        # numpy's significands and exponents, m * 2**ex with |m| in
        # [1/2, 1) (0 * 2**0 for a zero), each m * 2**53 an integer
        m, ex = np.frexp(block)
        if not math.isfinite(m.sum()):  # inf or nan
            raise ValueError("non-finite term")
        low = int(ex.min())
        units = [i << s for i, s in zip((m * 2.0**53).astype(np.int64).tolist(), (ex - low).tolist())]
        shift = low - 53 + _UNIT
        return sum(units) << shift, sum(map(abs, units)) << shift
    try:
        units = list(map(_units, block.tolist()))
    except (OverflowError, ValueError):  # inf, nan
        raise ValueError("non-finite term") from None
    return sum(units), sum(map(abs, units))


def _block_sums(block: np.ndarray, scratch: np.ndarray) -> Tuple[int, int]:
    """(sum, sum of magnitudes) of a block in units of 2**-_UNIT, by the
    route its length picks; ValueError for a non-finite term."""
    if block.size > _SHORT:
        return _sliced_block(block, scratch)
    return _short_block(block)


def _settled(lo: int, hi: int) -> Optional[float]:
    """The double that lo / 2**_UNIT and hi / 2**_UNIT both round to, signed
    zero included, or None when they round apart or past the double range.
    Rounding is monotone, so every integer between them rounds to it too."""
    try:
        a, b = lo / (1 << _UNIT), hi / (1 << _UNIT)
    except OverflowError:
        return None
    return a if a == b and math.copysign(1.0, a) == math.copysign(1.0, b) else None


def _majorant(bound: float, rel: float, left: int) -> float:
    """An upper bound on the sum of |t| over left float terms t, from bound,
    a float within rel (relatively) of a bound on the exact terms'
    magnitudes, when each float term is within rel of its exact value, or,
    below the normal range, within 2**-1074: (1 + rel)**2 and the two
    roundings here stay under 1 + 4 rel for rel >= 2 eps, and each term's
    2**-1074 is added, with four more for the bound's own underflows."""
    return bound * (1.0 + 4.0 * rel) + (left + 4) * _TINY


# A majorant settles a sum well before its last term only if by then it
# falls 2**-_SETTLE below the sum's magnitude: seven bits past the double's
# 53, where the ones that fell less were seen to settle late or not at all
_SETTLE = 60


# A sum with a majorant reads first a block of n terms, the least power of
# two from 32 up, at most _FIRST, by which the majorant has fallen to 2**-54
# of that of the terms after the first, rest(n) * 2**54 <= rest(1); then, if
# it keeps the majorant, blocks as long as all it has read, up to _BLOCK.
# Most such sums are settled within a few thousand terms, those of high
# powers within the first 32 or 64 (hurwitz_partial at k = 6..8, M = 10**5,
# went from 0.10-0.20 ms to 0.05-0.12 ms on a 2-core Xeon); a probe block
# read before sizing the first made low powers (k <= 3) 1.2-1.5 times slower
_FIRST = 1 << 10
_FIRSTS = tuple(1 << j for j in range(5, _FIRST.bit_length()))  # 32 .. _FIRST


@_quiet
def _stream_sum(count: int, fill: Callable[..., None], spare: int = 0,
                rest: Optional[Callable[[int], float]] = None) -> Tuple[float, float]:
    """(sum, sum of magnitudes) of the count terms fill writes, each exactly
    rounded to the nearest double whatever the length or order.

    fill(start, block, *spares) writes terms start, start + 1, ... into
    block, at most _BLOCK of them, and may use the spare blocks after it as
    work space.  Raises ValueError on a non-finite term and OverflowError on
    a sum beyond the double range.

    rest(start), if given, is a majorant (_majorant): a float at or above
    the sum of |term i| over start <= i < count, as fill writes them.  With
    it the sum stops once its rounding is decided (Ziv, ACM TOMS 17, 1991):
    with S and A the exact sums read so far and T = rest(start), all in
    units of 2**-_UNIT, the whole sum lies in [S - T, S + T] and its
    magnitude in [A, A + T], so when each interval's ends round to one
    double, those doubles are the ones the whole sum gives, bit for bit.
    After the first block the majorant is dropped unless T at the last term,
    rest(count), is within 2**-_SETTLE of that block's exact magnitude: a
    sum it cannot settle early pays one short block for it, and no more.
    """
    if rest is not None:
        # the first block (_FIRST), found by bisection as the majorant
        # falls with n: a scan up from 32 cost the low powers, which reach
        # _FIRST, 4-5 us more; a sum of at most n terms is read whole
        after = rest(1)
        first = _FIRSTS[bisect_left(_FIRSTS, True, 0, len(_FIRSTS) - 1,
                                    key=lambda n: n >= count or rest(n) * 2.0**54 <= after)]
    value = magnitude = 0  # the exact sums in units of 2**-_UNIT
    start = 0  # the terms read
    columns = 0  # of the buffer
    while start < count:
        # blocks end at multiples of _BLOCK, so a dropped majorant leaves
        # the later blocks where a plain sum has them
        size = min(_BLOCK - start % _BLOCK, count - start)
        if rest is not None:
            size = min(size, max(start, first))
        if size > columns:
            # one buffer for the blocks to come, with the kernel's two
            # scratch rows last, grown only for a longer block: while the
            # majorant is kept the blocks double, without it they reach
            # _BLOCK.  The allocator keeps a buffer of the size it last
            # freed for the next call, while fresh temporaries for every
            # block would cost about as much in page faults as the
            # arithmetic
            columns = size if rest is not None else min(count - start, _BLOCK)
            work = np.empty((1 + spare + 2, columns))
            scratch = work[-2:]
        blocks = work[: 1 + spare, :size]
        fill(start, *blocks)
        start += size
        sums = _block_sums(blocks[0], scratch)
        value += sums[0]
        magnitude += sums[1]
        if rest is None or start == count:
            continue
        if start == size and _units(rest(count)) << _SETTLE > magnitude:
            rest = None  # it cannot settle the sum before its end
            continue
        T = _units(rest(start))
        settled = _settled(value - T, value + T), _settled(magnitude, magnitude + T)
        if None not in settled:
            return settled
    # int true division rounds correctly and raises OverflowError past the
    # double range
    return value / (1 << _UNIT), magnitude / (1 << _UNIT)


def _exact_sum(values: np.ndarray) -> Tuple[float, float]:
    """(sum of values, sum of |values|) of an existing array, through
    _stream_sum block by block."""
    values = np.asarray(values, dtype=np.float64)

    def fill(start: int, block: np.ndarray) -> None:
        block[:] = values[start : start + block.size]

    return _stream_sum(values.size, fill)


def _certified_sum(count: int, fill: Callable[..., None], tail: Sequence[float],
                   tail_bound: float, terms_used: int, *, spare: int = 0,
                   per_term: float = 16.0,
                   rest: Optional[Callable[[int], float]] = None) -> SumResult:
    """value = exactly rounded sum of the count terms fill writes, as in
    _stream_sum (with its majorant rest), then each tail estimate added in
    order; error_bound = tail_bound + roundoff floor over |terms| and |tail|."""
    try:
        partial, abs_accum = _stream_sum(count, fill, spare, rest)
    except (OverflowError, ValueError):
        # a non-finite term or a sum beyond the double range
        partial = abs_accum = math.inf
    value = partial
    for t in tail:
        value += t
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


def _check_window(x: float, spacing: float, N: int,
                  what: str) -> Tuple[Tuple[float, float, int, float], int]:
    # the window m = -N..N must hold the pole's nearest lattice point, or
    # the dominant term would fall into the tail estimate; returns x's
    # reduction (_pole_distance) and N
    reduced = _pole_distance(x, what, _INT if spacing == 1.0 else _COT)
    N = _check_int(N, "N", 1)
    if N < round(abs(reduced[0]) / spacing):
        ratio = "|%s|" % what if spacing == 1.0 else "|%s| / (2*pi)" % what
        raise ValueError("N too small: need N >= round(%s)" % ratio)
    return reduced, N


def _to_tolerance(target_tol: float, start: Callable[[float], int], cap: int,
                  cap_name: str,
                  attempt: Callable[[int], Tuple[SumResult, float]]) -> SumResult:
    """attempt(n) from n = start(tol), doubling n up to cap, until it certifies target_tol.

    attempt(n) returns its result and the tail bound within its error bound;
    the rest of that bound is the roundoff floor, which only grows with n, so
    the first attempt whose floor alone exceeds target_tol, or the attempt at
    the cap, raises ToleranceUnreachable with achieved = its bound.
    """
    target_tol = _check_tol(target_tol, "target_tol")
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
        result, tail_bound = attempt(n)
        if result.error_bound <= target_tol:
            return result
        floor = result.error_bound - tail_bound
        if floor > target_tol or n >= cap:
            where = "the roundoff floor %.3e" % floor if floor > target_tol else "the " + cap_name
            raise ToleranceUnreachable(
                "tolerance %.3e unreachable at %s (achieved %.3e)"
                % (target_tol, where, result.error_bound),
                achieved=result.error_bound,
            )
        n *= 2


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

    def attempt(N: int) -> Tuple[SumResult, float]:
        tail_est, tail_bound = _power_tail(1.0, 0.0, float(s), N)
        return _certified_sum(N - 1, fill, (tail_est,), tail_bound, N - 1), tail_bound

    start = lambda tol: max(10, int(math.ceil((s / (6.0 * tol)) ** (1.0 / (s + 1)))))
    return _to_tolerance(target_tol, start, _ZETA_N_CAP, "N cap %d" % _ZETA_N_CAP, attempt)


def sum_beta(s: int, target_tol: float = 1e-10) -> SumResult:
    """Alternating sum of (-1)**m (2m+1)**(-s) with a certified tail.

    The first M terms, M even, are summed as they are; the alternating tail
    from M on, whose magnitudes are convex decreasing, is certified by the
    Leibniz interval around its half-term midpoint.
    """
    s = _check_int(s, "s", 1)

    def fill(start: int, terms: np.ndarray) -> None:
        # term i is (-1)**i (2i + 1)**-s
        np.add(_OFFSETS[: terms.size], start, out=terms)
        terms *= 2.0
        terms += 1.0
        terms **= float(-s)
        terms[(1 - start) % 2 :: 2] *= -1.0

    def attempt(M: int) -> Tuple[SumResult, float]:
        # tail anchor M is even, so the omitted tail starts with + sign
        tail_est, tail_bound = _alternating_tail(
            (2.0 * M + 1.0) ** float(-s), (2.0 * M + 3.0) ** float(-s)
        )
        return _certified_sum(M, fill, (tail_est,), tail_bound, M), tail_bound

    # bound ~ (s/2)(2M+1)^(-s-1); solve for the anchor 2M+1 = 4J+1, M = 2J
    start = lambda tol: 2 * max(8, int(math.ceil(((s / tol) ** (1.0 / (s + 1)) - 1.0) / 4.0)) + 2)
    return _to_tolerance(target_tol, start, _BETA_M_CAP, "term cap %d" % _BETA_M_CAP, attempt)


def sum_Z(k: int, mu: float, N: int = 10000) -> SumResult:
    """Bilateral alternating lattice sum (-1)**m / ((2m+1)*pi - mu)**(k+1).

    Lattice indices m and -m-1 are paired before summation (the pairing is
    part of the contract: it is what gives the conditionally convergent
    k = 0 case its symmetric-limit meaning).  N pairs cover the window
    m = -N..N-1; the paired tail is alternating with a convex decreasing
    magnitude, certified by the Leibniz midpoint of pairs N and N + 1, which
    the same fill writes.

    With b = (2m+1)*pi and p = k + 1, a pair is (b-|mu|)**-p + (b+|mu|)**-p
    at even k.  At odd k it is the difference, formed without cancellation
    as -sign(mu) * (b-|mu|)**-p * expm1(-p*log1p(2|mu|/(b-|mu|))): the
    farther power over the nearer one is ((b-|mu|)/(b+|mu|))**p, and expm1
    of an argument <= 0 neither overflows nor amplifies its argument's
    error.  At m = 0, b - |mu| = pi - |mu| would cancel against the double
    pi; it is the distance to the pole from _pole_distance instead, the
    double dist = |r| with the rest r_lo of the residual r, and the nearer
    power is dist**-p * (1 + r_lo/r)**-p, formed as dist**-p plus
    dist**-p * expm1(-p*log1p(r_lo/r)), so that dist's half-ulp is not
    raised to the power p next to +-pi.  So the rounding floor of each
    float pair is relative to the pair itself.  In units of eps = 2**-52,
    with 4 eps for each of numpy's log1p, expm1 and pow, and m >= 1, so
    b >= 3*pi >= 3|mu|, the accumulated relative errors are:
      b = (2m+1)*pi rounded                      0.7
      b - |mu|, cancelling by <= 3/2             1.6  (m = 0: 0.5)
      q = 2|mu|/(b - |mu|)                       2.1
      log1p(q), condition q/((1+q) log1p(q)) <= 1   6.1
      y = p*log1p(q)                             6.6
      expm1(-y), condition y/(e**y - 1) <= 1     10.6
      (b-|mu|)**-p                               1.6p + 4  (m = 0: 4.5)
      their product                              10.6 + 1.6p + 4 + 0.5
    that is 16.7 + 1.6k; at even k the farther power, from
    b + |mu| = (b - |mu|) + 2|mu|, is 2.1p + 4 and their sum 6.6 + 2.1k.
    The m = 0 pair is smaller in each row.  Both totals stay under the
    16 + 4k of the other lattice sums, the odd-k one because k >= 1.

    At k >= 1 the kernel stops once its rounding is decided: b - |mu| >
    2*m*pi, so pair m is at most 2 (2*m*pi)**-p, and the pairs from m on at
    most twice the first of these plus the integral beyond it.
    """
    k = _check_int(k, "k", 0)
    mu, dist, _, r, r_lo = _pole_distance(mu, "mu", _SEC)
    N = _check_int(N, "N", 1)

    p = k + 1
    # the exact distance's power is dist**-p * (1 + correction), and adding
    # the small dist**-p * correction rounds once
    correction = math.expm1(-p * math.log1p(r_lo / r))
    shift, twice = abs(mu), 2.0 * abs(mu)
    # term m is (-1)**m times its pair: negate the odd ones, except that at
    # odd k the pairs come out as -|pair|, so for mu > 0 negate the even ones
    flip = 0 if k % 2 and mu > 0 else 1

    def fill(start: int, terms: np.ndarray, near: np.ndarray) -> None:
        np.add(_OFFSETS[: terms.size], start, out=near)
        near *= 2.0
        near += 1.0
        near *= np.pi
        near -= shift
        if start == 0:
            near[0] = dist
        if k % 2:
            np.divide(twice, near, out=terms)
            np.log1p(terms, out=terms)
            terms *= -p
            np.expm1(terms, out=terms)
        else:
            np.add(near, twice, out=terms)
            terms **= -p
        near **= -p
        if start == 0:
            near[0] += near[0] * correction
        if k % 2:
            terms *= near
        else:
            terms += near
        terms[(flip - start) % 2 :: 2] *= -1.0

    # every pair has the sign of mu (k odd) or is positive (k even), so the
    # paired tail has the sign of its first term; at k odd, mu = 0 it is 0
    pairs = np.empty((2, 2))
    fill(N, *pairs)  # b - |mu| >= 2*pi there: nothing overflows
    t0, t1 = pairs[0].tolist()
    h0 = abs(t0)
    tail_mag, tail_bound = _alternating_tail(h0, abs(t1))
    # h0 and h1 are float pairs, each within per_term eps of itself: that
    # moves the midpoint and its bound by up to 1.5 per_term eps h0, of
    # which the floor over the tail (>= h0/2) covers a third
    per_term = 16.0 + 4.0 * k
    tail_bound += per_term * _EPS * h0

    def rest(start: int) -> float:
        y = _TWO_PI * start
        pairs = 2.0 * (y ** -p + y ** (1 - p) / (_TWO_PI * (p - 1)))
        return _majorant(pairs, per_term * _EPS, N - start)

    return _certified_sum(
        N, fill, (math.copysign(tail_mag, t0),), tail_bound, 2 * N,
        spare=1, per_term=per_term, rest=rest if k else None,
    )


def _lattice_sum(k: int, a: float, N: int, c: float, n: int, r: float, r_lo: float = 0.0) -> SumResult:
    """sum_Ztilde's body: the sum of (m*a - c)**-(k+1) over m = -N..N, a > 0,
    with c = n*a + r: each term is formed as (m - n)*a - r.  Term i is that
    of m = i - N, or at k = 0 the pair of m = i + 1 and -m, and term N the
    m = 0 term.  At k >= 1 with a majorant the terms run centre-out, and the
    first, (-r)**-p, is corrected by r_lo, the rest of the residual, as
    sum_Z corrects its m = 0 pair."""
    p = k + 1
    if k == 0:
        # the pair is 2c / ((m*a - |c|) * (m*a + |c|)), with |c| = n1*a + r1:
        # the nearer factor recentred, the farther one (m - n1)*a + 2*n1*a + r1
        # (at spacing 1, n1 = 0: m - |c| and m + |c|, one rounding each)
        n1, r1 = (n, r) if c > 0.0 else (-n, -r)
        far_shift = 2.0 * n1 * a + r1

        def fill(start: int, terms: np.ndarray, x: np.ndarray) -> None:
            np.add(_OFFSETS[: terms.size], start + 1 - n1, out=x)
            if a != 1.0:
                x *= a
            np.add(x, far_shift, out=terms)
            x -= r1
            terms *= x
            np.divide(2.0 * c, terms, out=terms)
            if start + terms.size > N:
                terms[-1] = -1.0 / c

        est, tail_bound = _pair_tail(a, c, (N + 1 - n) * a - r, (N + 1 + n) * a + r)
        count, tail, rest = N + 1, (est,), None
    else:
        count = 2 * N + 1
        both = min(N + n, N - n)  # |m - n| <= both on either side of n
        correction = math.expm1(-p * math.log1p(r_lo / r))

        def rest(start: int) -> float:
            # the unread terms, at most two for each |m - n| >= the next one
            # in the order below, have |x| >= |m - n|*a - |r| > 0, as
            # |r| <= pi at spacing 2*pi: twice the first power plus the
            # integral beyond it
            y = max((start + 1) // 2, start - both) * a - abs(r)
            powers = 2.0 * (y ** -p + y ** (1 - p) / (a * (p - 1)))
            return _majorant(powers, (16.0 + 4.0 * k) * _EPS, count - start)

        # the integer lattice's one sum at k >= 1, p = 2, cannot settle early
        if a == 1.0:
            rest = None

        # with a majorant the terms run centre-out, so that the largest come
        # first: m - n = 0, -1, 1, -2, 2, ... while both sides of the window
        # last, then the longer side on its own; numpy's vectorised pow takes
        # only positive bases (a negative one falls back to scalar libm): odd
        # powers raise |x|, then copy x's sign
        def fill(start: int, terms: np.ndarray, *spare: np.ndarray) -> None:
            x = spare[0] if p % 2 else terms
            if rest is None:
                np.add(_OFFSETS[: terms.size], start - N - n, out=x)
            else:
                np.add(_OFFSETS[: terms.size], start, out=x)  # term i
                paired = x[: min(max(2 * both + 1 - start, 0), x.size)]
                paired[start % 2 :: 2] *= 0.5  # i even: m - n = i/2
                odd = paired[1 - start % 2 :: 2]
                odd += 1.0
                odd *= -0.5  # i odd: m - n = -(i + 1)/2
                single = x[paired.size :]
                single -= both  # then |m - n| = i - both
                if n > 0:  # the side below n is the longer one
                    np.negative(single, out=single)
            if a != 1.0:
                x *= a
            x -= r
            if p == 2:
                np.square(x, out=terms)
            else:
                np.abs(x, out=terms)
                terms **= p
            np.divide(1.0, terms, out=terms)
            if p % 2:
                np.copysign(terms, x, out=terms)
            if start == 0 and r_lo:  # m = n: the exact residual's power
                terms[0] += terms[0] * correction

        up_est, up_bound = _power_tail(a, -r, float(p), N + 1 - n)
        dn_est, dn_bound = _power_tail(a, r, float(p), N + 1 + n)
        tail = (up_est, (1.0 if p % 2 == 0 else -1.0) * dn_est)
        tail_bound = up_bound + dn_bound
    # (m - n) - r on the integer lattice is one rounding; (m - n)*a - r adds
    # the rounding of (m - n)*a, which the power multiplies
    return _certified_sum(
        count, fill, tail, tail_bound, 2 * N + 1, spare=p % 2,
        per_term=16.0 if a == 1.0 else 16.0 + 4.0 * k, rest=rest,
    )


def sum_Ztilde(k: int, mu: float, N: int = 10000) -> SumResult:
    """Bilateral lattice sum 1 / (2*m*pi - mu)**(k+1) over m = -N..N.

    For k >= 1 the terms are summed directly (absolute convergence); both
    one-sided tails get integral-plus-half-term corrections.  For k = 0 the
    conditionally convergent sum is given its symmetric-limit meaning by
    pairing m with -m, which yields terms 2*mu/((2*m*pi)^2 - mu^2).  Every
    term is formed from mu's reduction against the nearest pole 2*n*pi, as
    (m - n)*2*pi - r, so none cancels against the double pi at any |mu|;
    at k >= 1 the m = n term, (-r)**-(k+1), is corrected by the rest r_lo
    of the residual, as sum_Z's m = 0 pair is, so that r's half-ulp is not
    raised to the power next to a pole 2*n*pi, n != 0.
    """
    k = _check_int(k, "k", 0)
    (mu, _, n, r, r_lo), N = _check_window(mu, _TWO_PI, N, "mu")
    return _lattice_sum(k, _TWO_PI, N, mu, n, r, r_lo)


def sum_inverse_square(theta: float, N: int = 100000) -> SumResult:
    """Bilateral sum of (n + theta)**(-2) over n = -N..N with certified tails.

    Converges to pi**2 / sin(pi*theta)**2.  sum_Ztilde's body at spacing 1,
    shift -theta: n + theta is a single exactly-rounded addition, so no term
    needs extended precision.
    """
    (theta, *_), N = _check_window(theta, 1.0, N, "theta")
    return _lattice_sum(1, 1.0, N, -theta, 0, -theta)


def sum_cotangent(theta: float, N: int = 100000) -> SumResult:
    """Symmetrically paired partial-fraction sum 1/theta + sum 2*theta/(theta^2 - n^2).

    Converges to pi / tan(pi*theta).  It is the negation of sum_Ztilde's
    paired body at spacing 1, shift theta and k = 0, whose monotone tail
    estimate uses the exact antiderivative log((x - theta)/(x + theta)).
    """
    (theta, *_), N = _check_window(theta, 1.0, N, "theta")
    r = _lattice_sum(0, 1.0, N, theta, 0, theta)
    # exactly rounded, the negated terms sum to the negated value; 0.0 - v
    # keeps +0.0 for a sum that cancels to zero
    return SumResult(0.0 - r.value, r.error_bound, r.terms_used)


# kind -> (p - 2k, Euler kind): even powers p pair with cosines, odd ones
# with sines; the Bernoulli kinds run over every harmonic of 2*pi*x, the
# Euler kinds over the odd harmonics of pi*x
_HURWITZ = {"B_even": (0, False), "B_odd": (1, False), "E_even": (1, True), "E_odd": (0, True)}


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

    step = 2.0 if euler else 1.0  # between the harmonics h

    def rest(start: int) -> float:
        # |trig| <= 1, so the unread terms are at most h**-p summed over
        # h >= H: the first power plus the integral beyond it; the float
        # term carries the roundings of h * scale, the power and the quotient
        H = step * start + 1.0
        powers = H ** -p + H ** (1 - p) / (step * (p - 1))
        return _majorant(powers, 16.0 * _EPS, M - start)

    s = _stream_sum(M, fill, spare=3, rest=rest)[0]
    value = float(PiScalar(Fraction(c * sign * math.factorial(n), den), -p)) * s
    if not math.isfinite(value):
        raise _beyond_range("hurwitz_partial(%r, %d)" % (kind, k))
    return value


def herglotz_residual(theta: float, N: int = 10000) -> Tuple[float, float]:
    """Functional-equation defects of pi^2/sin^2 and its truncated lattice sum.

    Returns (|f(t/2) + f((t+1)/2) - 4 f(t)|, same with f replaced by the
    tail-corrected truncated sum g_N from sum_inverse_square).  The f-defect
    is an exact trig identity, so it measures pure roundoff; the g-defect
    shrinks as N grows.
    """
    theta = _pole_distance(theta, "theta", _INT)[0]

    def f(t: float) -> float:
        sp = sinpi(t)
        return math.pi ** 2 / (sp * sp)

    # the sums first: they raise where f is past the double range
    g1 = sum_inverse_square(theta / 2.0, N).value
    g2 = sum_inverse_square((theta + 1.0) / 2.0, N).value
    g3 = sum_inverse_square(theta, N).value
    g_res = abs(math.fsum([g1, g2, -4.0 * g3]))
    f_res = abs(math.fsum([f(theta / 2.0), f((theta + 1.0) / 2.0), -4.0 * f(theta)]))
    return f_res, g_res


def herglotz_limit(theta: float, N: int = 1000000) -> float:
    """Truncated lattice sum minus its pole term: g_N(theta) - 1/theta**2.

    Tends to pi**2 / 3 as theta -> 0 (with N large enough that the
    truncation error at the given theta is negligible).
    """
    theta = _pole_distance(theta, "theta", _INT)[0]
    return sum_inverse_square(theta, N).value - 1.0 / theta ** 2
