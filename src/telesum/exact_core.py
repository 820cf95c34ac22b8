"""Exact arithmetic building blocks.

Rational values are ``fractions.Fraction`` instances, which already guarantee
the canonical lowest-terms form (positive denominator, gcd 1) and exact
closed arithmetic; this module layers on top of them:

* ``PiScalar`` -- exact scalars of the form (rational) * pi**n, the result
  type of every closed-form evaluation in this package; ``float()`` of one
  is correctly rounded by _ziv_float, the package's one Ziv loop;
* ``Poly`` -- dense univariate polynomials with rational coefficients;
* pi in integers: its floor at 1152 fraction bits from Machin's formula
  (more on demand), directed bounds on its powers, each grown from the last
  one formed at its precision, and _pole_distance, the one domain check and
  reduction of every argument shifted by a pole lattice;
* serialization helpers shared by the CLI renderers, which print every
  digit of an integer, however many.

It needs nothing beyond the standard library.

Everything here is immutable after construction and safe for unrestricted
concurrent use; the one kept state, the last bracket of a power of pi at
each precision, is an immutable triple swapped whole.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Rational",
    "RationalLike",
    "InternalConsistencyError",
    "ToleranceUnreachable",
    "binomial",
    "PiScalar",
    "Poly",
    "poly_eval",
    "poly_derivative",
    "poly_integral_01",
    "poly_reflect",
    "collapse_pi_terms",
    "format_rational",
    "format_pi_scalar",
]

# Canonical rational type: Fraction already enforces lowest terms.
Rational = Fraction

RationalLike = Union[Fraction, int]


class InternalConsistencyError(ArithmeticError):
    """Two independent computations of the same quantity disagree."""


class ToleranceUnreachable(ArithmeticError):
    """Requested tolerance cannot be certified; .achieved holds the best bound.

    Also raised, with achieved = inf, for a value beyond the double range.
    """

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(message)
        self.achieved = achieved


def _check_int(value: object, name: str, least: Optional[int] = None) -> int:
    """value as a Python int, for every integer parameter of the package.

    An int or anything with __index__ (numpy integers) passes, when it is at
    least ``least``; a bool, a float, a Fraction, a string or a smaller
    integer raises ValueError, so one bad index gets one answer everywhere.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or least is not None and n < least:
        bound = "" if least is None else " >= %d" % least
        raise ValueError("%s must be an integer%s, got %r" % (name, bound, value))
    return n


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); zero when k > n."""
    n, k = _check_int(n, "n", 0), _check_int(k, "k", 0)
    return math.comb(n, k) if k <= n else 0


class PiScalar:
    """Exact scalar ``coeff * pi**pi_power``.

    The zero scalar is canonicalized to ``pi_power == 0`` so that structural
    equality coincides with value equality.  Addition and subtraction are
    defined only between scalars carrying the same power of pi (a zero
    operand is always compatible); nothing downstream needs mixed-power
    addition, and refusing it keeps the type exact.
    """

    __slots__ = ("coeff", "pi_power")

    def __init__(self, coeff: RationalLike, pi_power: int = 0) -> None:
        if type(coeff) is not Fraction:  # a Fraction, immutable, is kept
            coeff = Fraction(coeff)
        pi_power = _check_int(pi_power, "pi_power")
        if coeff == 0:
            pi_power = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_power", pi_power)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PiScalar is immutable")

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self.coeff == other.coeff and self.pi_power == other.pi_power

    def __hash__(self) -> int:
        return hash((self.coeff, self.pi_power))

    def _check_addable(self, other: "PiScalar") -> int:
        if self.is_zero:
            return other.pi_power
        if other.is_zero:
            return self.pi_power
        if self.pi_power != other.pi_power:
            raise ValueError(
                "cannot add pi^%d and pi^%d terms exactly"
                % (self.pi_power, other.pi_power)
            )
        return self.pi_power

    def __add__(self, other: "PiScalar") -> "PiScalar":
        if not isinstance(other, PiScalar):
            return NotImplemented
        power = self._check_addable(other)
        return PiScalar(self.coeff + other.coeff, power)

    def __sub__(self, other: "PiScalar") -> "PiScalar":
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff, self.pi_power)

    def __mul__(self, other: object) -> "PiScalar":
        if isinstance(other, PiScalar):
            return PiScalar(self.coeff * other.coeff, self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiScalar(self.coeff * other, self.pi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "PiScalar":
        if isinstance(other, PiScalar):
            if other.is_zero:
                raise ZeroDivisionError("division by zero PiScalar")
            return PiScalar(self.coeff / other.coeff, self.pi_power - other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiScalar(self.coeff / other, self.pi_power)
        return NotImplemented

    def __float__(self) -> float:
        """The double nearest to coeff * pi**pi_power: +-inf or +-0.0 only
        when the exact value lies beyond the double range."""
        num = self.coeff.numerator
        value = _pi_power_float(abs(num), self.coeff.denominator, self.pi_power)
        return -value if num < 0 else value

    def __repr__(self) -> str:
        return "PiScalar(%s, %d)" % (self.coeff, self.pi_power)

    def __str__(self) -> str:
        return format_pi_scalar(self)


def _nearest_float(num: int, den: int) -> float:
    # int / int is correctly rounded, subnormals included.
    try:
        return num / den
    except OverflowError:
        return math.inf


_LOG2_PI = math.log2(math.pi)


def _ziv_float(bracket: Callable[[int], Tuple[Tuple[int, int], ...]], log2: float) -> float:
    """The double nearest a value v >= 0, given log2 within 1 of log2 v and
    bracket(prec), integer ratios ((a, b), (c, d)) with a/b <= v <= c/d that
    close in on v as prec grows.  Past the double range by log2, inf or 0.0,
    before any bracket; otherwise Ziv's strategy (ACM TOMS 17, 1991): when
    both ends round to one double so does v, else prec doubles from 64."""
    if log2 > 1026:
        return math.inf
    if log2 < -1077:
        return 0.0
    prec = 64
    while True:
        (a, b), (c, d) = bracket(prec)
        value = _nearest_float(a, b)
        if value == _nearest_float(c, d):
            return value
        prec *= 2


def _pi_power_float(num: int, den: int, n: int) -> float:
    """The double nearest to (num/den) * pi**n for num >= 0, den > 0, by
    _ziv_float over _pi_power_bounds: for n != 0 the value is irrational, so
    the loop ends, and for n = 0 the bracket is exact."""

    def bracket(prec: int) -> Tuple[Tuple[int, int], ...]:
        (a, b), (c, d) = _pi_power_bounds(n, prec)
        return (num * a, den * b), (num * c, den * d)

    return _ziv_float(bracket, num.bit_length() - den.bit_length() + n * _LOG2_PI)


# floor(pi * 2**_PI_BITS) serves _pole_distance at any double's exponent
# plus _GUARD bits
_GUARD = 128
_PI_BITS = 1024 + _GUARD


@functools.lru_cache(maxsize=8)
def _machin_pi(bits: int) -> int:
    """floor(pi * 2**bits), from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) summed in integers with ``guard`` more
    bits.  Every truncated term is off by less than 3 units and each
    series' tail by less than 2, so the sum lies within ``err`` units of
    pi * 2**(bits + guard); the floor is taken once both ends of that
    interval agree on it."""
    guard = 32
    while True:
        one = 1 << (bits + guard)
        total, terms = 0, 0
        for weight, x in ((16, 5), (-4, 239)):
            power, j = one // x, 0
            while power:
                total += weight * (-1 if j % 2 else 1) * (power // (2 * j + 1))
                power //= x * x
                j += 1
            terms += j
        err = 16 * (3 * terms + 2)
        if (total - err) >> guard == (total + err) >> guard:
            return total >> guard
        guard *= 2


_PI_FIXED = _machin_pi(_PI_BITS)


def _pi_fixed(bits: int) -> int:
    """floor(pi * 2**bits): the stored bits, or Machin's formula past them."""
    return _PI_FIXED >> (_PI_BITS - bits) if bits <= _PI_BITS else _machin_pi(bits)


def _cut(man: int, exp: int, bits: int, up: bool) -> Tuple[int, int]:
    # man * 2**exp cut to a mantissa of at most ``bits`` bits, floored, or
    # ceiled when ``up``
    drop = man.bit_length() - bits
    if drop <= 0:
        return man, exp
    return (-(-man >> drop) if up else man >> drop), exp + drop


def _raise(man: int, exp: int, n: int, keep: int, up: bool) -> Tuple[int, int]:
    """(man * 2**exp)**n (n >= 0) as a mantissa and an exponent, by
    square-and-multiply from the left on mantissas cut to ``keep`` bits,
    floored, or ceiled when ``up``.  A cut at a partial power x**e moves the
    result by its relative error, under 2**(1 - keep), raised to n / e; the
    base's cut counts n, the squares' and the products' each under n in
    all, as e at least doubles per bit: under 3n cuts' worth, or 6n
    2**-keep relative."""
    if not n:
        return 1, 0
    base_man, base_exp = acc_man, acc_exp = _cut(man, exp, keep, up)
    for bit in bin(n)[3:]:
        acc_man, acc_exp = _cut(acc_man * acc_man, 2 * acc_exp, keep, up)
        if bit == "1":
            acc_man, acc_exp = _cut(acc_man * base_man, acc_exp + base_exp, keep, up)
    return acc_man, acc_exp


def _ratio(man: int, exp: int) -> Tuple[int, int]:
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _power_bounds(lo: int, hi: int, exp: int, n: int, prec: int) -> Tuple[Tuple[int, int], ...]:
    """Integer ratios ((a, b), (c, d)), a/b <= x**n <= c/d for every x in
    [lo, hi] * 2**exp (0 < lo <= hi, n >= 0), to about prec bits: _raise
    on lo floored and on hi ceiled, at prec + log2(n) + 4 bits."""
    keep = prec + n.bit_length() + 4
    return tuple(_ratio(*_raise(man, exp, n, keep, up)) for man, up in ((lo, False), (hi, True)))


# prec -> (m, low, high): the last bracket of pi**m formed at each prec, each
# end a mantissa and an exponent; one immutable triple per prec, swapped
# whole, so a thread reads some rigorous bracket, if not the latest
_LAST_PI_POWER: Dict[int, Tuple[int, Tuple[int, int], Tuple[int, int]]] = {}


@functools.lru_cache(maxsize=256)
def _pi_power_bounds(n: int, prec: int) -> Tuple[Tuple[int, int], ...]:
    """Integer ratios a/b <= pi**n <= c/d to about prec bits, as
    ((a, b), (c, d)), inverted for n < 0, from a bracket of pi**m, m = |n|,
    whose ends are floored and ceiled mantissas of K = prec + b + 4 bits, b
    the bits of m, raised from pi's floor and ceiling at F = K + 2 fraction
    bits.

    The bracket grows from the last one formed at this prec, of pi**m0, when
    m0 <= m has b bits too: it is that bracket times pi**(m - m0)'s, raised
    by _raise at the same K and F, each end cut once more to K bits.  A
    first or a descending call raises pi**m's from pi's instead.  Each end
    stays within m u' relative, u' = 8.1
    * 2**-K: a raised one within m (6 * 2**-K + 2**-F / 3) (_raise, and
    pi's floor within 2**-F of pi), and a grown one within m0 u' + (m - m0)
    (u' - 2 * 2**-K) + 2**(1 - K), as m - m0 >= 1.  So whatever chain led to
    it, at most m products long, each end is within 0.51 * 2**-prec, as m <
    2**b, and the bracket is under 2**(2 - prec) wide.  Exact repeats are
    cached."""
    m = abs(n)
    keep = prec + m.bit_length() + 4
    bits = keep + 2
    pi = _pi_fixed(bits)
    m0, kept_low, kept_high = _LAST_PI_POWER.get(prec, (0, None, None))
    if m0 > m or m0.bit_length() != m.bit_length():
        m0 = 0
    low, high = _raise(pi, -bits, m - m0, keep, False), _raise(pi + 1, -bits, m - m0, keep, True)
    if m0:  # the kept bracket times pi**(m - m0)'s
        low = _cut(kept_low[0] * low[0], kept_low[1] + low[1], keep, False)
        high = _cut(kept_high[0] * high[0], kept_high[1] + high[1], keep, True)
    _LAST_PI_POWER[prec] = (m, low, high)
    low, high = _ratio(*low), _ratio(*high)
    return (low, high) if n >= 0 else (high[::-1], low[::-1])


# Pole lattices j * h as (parity of j, h = pi or else 1/2, x in (-pi, pi)):
# Z and its kin, Z_table, Ztilde and its kin, and theta
_SEC, _ODD_PI, _COT, _INT = (1, True, True), (1, True, False), (0, True, False), (0, False, False)


def _reduce(x: float, bits: int, poles: Tuple[int, bool, bool]) -> Tuple[int, int]:
    """(rest, j): the pole j h nearest the double x on the lattice of
    _pole_distance, and rest, x - j h in fixed point at ``bits`` fraction
    bits, from floor(|x| 2**bits) and h's floor: within |j| + 1 units of it,
    and exact at j = 0 once x 2**bits is an integer."""
    odd, pi = poles[:2]
    num, den = abs(x).as_integer_ratio()
    fixed = (num << bits) // den
    h = _pi_fixed(bits) if pi else 1 << (bits - 1)
    j = 2 * ((fixed + (1 - odd) * h) // (2 * h)) + odd  # the pole j h of |x|
    if x < 0.0:
        fixed, j = -fixed, -j
    return fixed - j * h, j


def _pole_distance(x: float, what: str,
                   poles: Tuple[int, bool, bool]) -> Tuple[float, float, int, float, float]:
    """(x as a float, its distance to the nearest pole (2n + odd) h, n, the
    signed residual r = x - (2n + odd) h, and r_lo, the double nearest the
    rest of the residual): the one domain check, and the one reduction, of
    every shifted argument.  ValueError only for a non-finite x, a pole (no
    double is an odd multiple of pi, and only 0 one of 2*pi), or x outside
    (-pi, pi) where the lattice asks.  r is x at the pole 0 (r_lo = 0), else
    the double nearest x - (2n + odd) h from x and h in fixed point at
    e + _GUARD bits, 2**e > |x| (Payne & Hanek, SIGNUM Newsletter 18, 1983),
    2**-127 at most off, where no double lies within 2**-62 of a nonzero
    multiple of pi/2 (J.-M. Muller, Elementary Functions, ch. 11); r + r_lo
    is off by that and r_lo's rounding.  The distance is |r|."""
    odd, _, window = poles
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("%s must be finite" % what)
    if window and abs(x) > math.pi:  # the double pi lies below pi
        raise ValueError("%s must lie in (-pi, pi)" % what)
    bits = max(math.frexp(x)[1], 0) + _GUARD
    rest, j = _reduce(x, bits, poles)
    if not j:
        r, r_lo = x, 0.0
    else:
        # r is at least 2**-62, so r * 2**bits is an integer
        r = rest / (1 << bits)
        num, den = r.as_integer_ratio()
        r_lo = (rest - (num << bits) // den) / (1 << bits)
    if not r:
        raise ValueError("%s = %r is a pole" % (what, x))
    return x, abs(r), (j - odd) // 2, r, r_lo


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` multiplies x**i.  Trailing zero coefficients are trimmed at
    construction, so the zero polynomial is the empty tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()) -> None:
        # a Fraction, immutable, is kept as it is
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @staticmethod
    def monomial(n: int, c: RationalLike = 1) -> "Poly":
        return Poly([0] * _check_int(n, "n", 0) + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> Fraction:
        return poly_eval(self, x)

    def __repr__(self) -> str:
        return "Poly(%r)" % ([str(c) for c in self.coeffs],)


def poly_eval(p: Poly, x: RationalLike) -> Fraction:
    """Exact Horner evaluation of p at a rational point."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    """Exact formal derivative."""
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def poly_integral_01(p: Poly) -> Fraction:
    """Exact integral of p over [0, 1]: sum of c_i / (i + 1)."""
    return sum((c / (i + 1) for i, c in enumerate(p.coeffs)), Fraction(0))


def poly_reflect(p: Poly) -> Poly:
    """Exact coefficients of the reflected polynomial p(1 - x)."""
    n = len(p.coeffs)
    out = [Fraction(0)] * n
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        # expand c * (1 - x)**i
        for j in range(i + 1):
            sign = -1 if j % 2 else 1
            out[j] += sign * math.comb(i, j) * c
    return Poly(out)


def collapse_pi_terms(
    terms: Dict[int, Fraction]
) -> Union[PiScalar, List[Tuple[Fraction, int]]]:
    """Collapse a pi_power -> coefficient map to its simplest exact form.

    Returns a single PiScalar when at most one power survives, otherwise the
    full list of (coefficient, pi_power) pairs sorted by increasing power.
    """
    live = {p: c for p, c in terms.items() if c != 0}
    if not live:
        return PiScalar(0)
    if len(live) == 1:
        (power, coeff), = live.items()
        return PiScalar(coeff, power)
    return [(live[p], p) for p in sorted(live)]


# n < 2**_STR_BITS has at most 600 digits, which str() converts under any
# setting of sys.set_int_max_str_digits (its least limit is 640)
_STR_BITS = 1993


def _decimal(n: int) -> str:
    """The decimal digits of the integer n, whatever the interpreter's limit
    on int-to-str conversion: str() of pieces under _STR_BITS bits, split at
    a power of ten near the middle of n's digits."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    low = n.bit_length() * 3 // 20  # about half of n's digits
    high, rest = divmod(n, 10**low)
    return _decimal(high) + _decimal(rest).zfill(low)


def format_rational(q: RationalLike) -> str:
    """Render a rational as "p/q", omitting the denominator when it is 1;
    every digit, however many (_decimal)."""
    q = Fraction(q)
    if q.denominator == 1:
        return _decimal(q.numerator)
    return "%s/%s" % (_decimal(q.numerator), _decimal(q.denominator))


def format_pi_scalar(x: PiScalar) -> str:
    """Render a PiScalar as "p/q * pi^n"; the pi factor is omitted for n=0."""
    if x.pi_power == 0:
        return format_rational(x.coeff)
    return "%s * pi^%d" % (format_rational(x.coeff), x.pi_power)
