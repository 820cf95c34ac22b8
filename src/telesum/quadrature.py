"""Exact polynomial-oscillation integrals and one-panel Gauss-Legendre quadrature.

The exact half: integrals of a rational-coefficient polynomial against
cos(m*pi*x) or sin(m*pi*x) on [0, 1] via the full integration-by-parts
ladder, carried out in integers over one common denominator so results
are exact finite sums of rational multiples of powers of pi.  For the
Apostol-Euler polynomials against the exponential kernel
lambda^x e^(-(2m+1) pi i x) the same ladder telescopes to a closed form,
which is rounded correctly in integers from pi's bits in exact_core.

The numeric half: the 15-point Gauss-Legendre rule on [0, 1], checked
against the same rule on each half, used for the non-elementary integral
representations of zeta(2k+1) and beta(2k+2).  Both integrands are analytic
in a Bernstein ellipse with rho about 5.83 around [0, 1], so that one panel
settles them at every k and every tol down to 1e-15; below that the error
is rounding, not the rule's, and no subdivision takes it below tol.
Each integrand is arranged so that its
removable singularity sits on an edge of [0, 1], where no Gauss-Legendre
node lands, and takes math.sin only at arguments in (0, pi/2), which need
no range reduction.  The rule's nodes and weights are stored doubles, so no
integral loads numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .classical_polys import bernoulli_poly, euler_poly
from .exact_core import (
    _SEC,
    PiScalar,
    Poly,
    ToleranceUnreachable,
    _beyond_range,
    _check_int,
    _check_tol,
    _horner,
    _pi_fixed,
    _pole_distance,
    _power_bounds,
    _Record,
    _ziv_float,
    collapse_pi_terms,
    poly_integral_01,
)

__all__ = [
    "OscKernel",
    "QuadratureError",
    "exact_poly_trig_integral",
    "exact_apostol_integral",
    "j_integral",
    "adaptive_integrate",
    "MAX_INTEGRAL_K",
    "zeta_odd_integral",
    "beta_even_integral",
]

_KERNEL_KINDS = ("cos", "sin")

# Largest k of zeta_odd_integral and beta_even_integral: their scale divides
# by the double (2k+1)!, and 171! leaves the double range.
MAX_INTEGRAL_K = 84
_MAX_K_WHY = "where (2k+1)! leaves the double range"

_LN2 = math.log(2.0)


class OscKernel(_Record):
    """Oscillatory factor on [0, 1]: cos(m*pi*x) or sin(m*pi*x)."""

    __slots__ = ("kind", "m")

    def __init__(self, kind: str, m: int = 0) -> None:
        if kind not in _KERNEL_KINDS:
            raise ValueError("kind must be one of %s" % (_KERNEL_KINDS,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", _check_int(m, "m"))

    @staticmethod
    def cos(m: int) -> "OscKernel":
        return OscKernel(kind="cos", m=m)

    @staticmethod
    def sin(m: int) -> "OscKernel":
        return OscKernel(kind="sin", m=m)


class QuadratureError(ToleranceUnreachable):
    """The 15-point rule on [0, 1] and on its halves differ by more than tol.
    .achieved is inf: no bound on the integral's error is known there (an
    estimate is not one)."""


def _parts_ladder(p: Poly, m: int, cos: bool) -> Dict[int, Fraction]:
    # Step j integrates the j-th derivative by parts against cos or sin,
    # alternating.  Every step divides by m*pi, a cos step flips the sign of
    # all later ones, and only sin steps leave a boundary term, because
    # sin(m*pi*x) vanishes at both endpoints.  The derivatives are carried as
    # integer numerators over one denominator, the lcm of p's, which every
    # step multiplies by m.
    den = math.lcm(*(c.denominator for c in p.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in p.coeffs]
    parity = -1 if m % 2 else 1
    out: Dict[int, Fraction] = {}
    sign = 1
    power = -1
    while nums:
        den *= m
        if cos:
            sign = -sign
        else:
            boundary = nums[0] - parity * sum(nums)  # p(0) - (-1)^m p(1)
            if boundary:
                out[power] = Fraction(sign * boundary, den)
        nums = [i * c for i, c in enumerate(nums)][1:]
        power -= 1
        cos = not cos
    return out


def exact_poly_trig_integral(
    p: Poly, kernel: OscKernel
) -> Union[PiScalar, List[Tuple[Fraction, int]]]:
    """Exact integral of p(x) * cos(m*pi*x) or p(x) * sin(m*pi*x) over [0, 1].

    Each integration by parts trades a derivative of p for one power of
    1/(m*pi) plus a rational boundary term; after degree+1 steps nothing is
    left, so the value is an exact finite sum of rational multiples of pi
    powers.  Returns a single PiScalar when one power survives (the usual
    case here), otherwise the sorted coefficient list.
    """
    if kernel.m < 1:
        raise ValueError("kernel m must be >= 1")
    return collapse_pi_terms(_parts_ladder(p, kernel.m, kernel.kind == "cos"))


def exact_apostol_integral(k: int, m: int, mu: float) -> complex:
    """Integral over [0, 1] of lambda^x * (Apostol-Euler poly of degree k at
    lambda = e^(i*mu)) * e^(-(2m+1) pi i x), in closed form.

    The integrand is q(x) e^(a x) with a = i*d, d = mu - (2m+1)*pi, and
    repeated integration by parts terminates.  With e^a = -lambda, the Appell
    property q^(j) = k!/(k-j)! E_{k-j} and the difference equation
    lambda E_n(1) + E_n(0) = 2 [n == 0], every boundary term but the last is
    zero, so the ladder telescopes to 2 k! / (-a)^(k+1) = 2 k! i^(k+1) /
    d^(k+1): one real number, on the real axis for odd k and on the
    imaginary axis for even k, the other part an exact 0.0.  That number, an
    irrational, is correctly rounded (_ziv_float); one beyond the double
    range raises ToleranceUnreachable.
    """
    k, m = _check_int(k, "k", 0), _check_int(m, "m")
    mu, dist = _pole_distance(mu, "mu", _SEC)[:2]
    odd = 2 * m + 1
    # i^(k+1) / d^(k+1) is (-1)^((k+1)//2) / |d|^(k+1), and at odd k + 1
    # also the sign of d, which is negative exactly when m >= 0
    sign = (-1.0 if (k + 1) // 2 % 2 else 1.0) * (-1.0 if k % 2 == 0 and m >= 0 else 1.0)
    # |d| >= dist, so with these fraction bits the bracket on |d|, |odd| + 2
    # units wide, holds |d|**(k+1) to about 2**-64
    bits = 64 + (k + 1).bit_length() + abs(odd).bit_length() + max(1 - math.frexp(dist)[1], 0)

    def bracket(prec: int) -> Tuple[Tuple[int, int], ...]:
        fraction = bits * prec // 64  # likewise, to about 2**-prec
        (a, b), (c, d) = _power_bounds(*_distance_bounds(mu, odd, fraction), -fraction, k + 1, prec)
        twice = 2 * math.factorial(k)
        return (twice * d, c), (twice * b, a)

    low = _distance_bounds(mu, odd, bits)[0]
    log2 = 1.0 + math.lgamma(k + 1) / _LN2 - (k + 1) * (math.log2(low) - bits)
    value = _ziv_float(bracket, log2)
    if math.isinf(value):
        part = "real" if k % 2 else "imaginary"
        raise _beyond_range("the %s part of the Apostol integral" % part, sign, log2)
    value = math.copysign(value, sign)
    return complex(value, 0.0) if k % 2 else complex(0.0, value)


def _distance_bounds(mu: float, odd: int, bits: int) -> Tuple[int, int]:
    """Integers low <= |mu - odd * pi| * 2**bits <= high, from mu's floor
    and pi's floor and ceiling in fixed point; |mu| < pi, so the sign of
    mu - odd * pi is that of -odd."""
    num, den = mu.as_integer_ratio()
    pi = _pi_fixed(bits)
    near, far = sorted((odd * pi, odd * (pi + 1)))  # odd * pi * 2**bits between
    floor = (num << bits) // den
    low, high = floor - far, floor + 1 - near
    return (-high, -low) if odd > 0 else (low, high)


def j_integral(
    k: int, m: int, family: str
) -> Union[PiScalar, List[Tuple[Fraction, int]]]:
    """Exact integral of an odd-degree Bernoulli or Euler polynomial against
    its oscillating kernel: B_{2k+1}(x) sin(m*pi*x) or E_{2k+1}(x) cos(m*pi*x).
    """
    if family not in ("bernoulli_odd", "euler_odd"):
        raise ValueError("family must be 'bernoulli_odd' or 'euler_odd'")
    k, m = _check_int(k, "k", 0), _check_int(m, "m")
    if family == "bernoulli_odd":
        if m < 1:
            raise ValueError("bernoulli_odd requires m >= 1")
        return exact_poly_trig_integral(bernoulli_poly(2 * k + 1), OscKernel.sin(m))
    if m < 0:
        raise ValueError("euler_odd requires m >= 0")
    if m == 0:
        return PiScalar(poly_integral_01(euler_poly(2 * k + 1)), 0)
    return exact_poly_trig_integral(euler_poly(2 * k + 1), OscKernel.cos(m))


# The 15-point Gauss-Legendre rule on [-1, 1] as (node, weight) pairs, the
# doubles numpy.polynomial.legendre.leggauss(15) returns
_GL15 = (
    (-0.9879925180204854, 0.030753241996117203),
    (-0.9372733924007058, 0.0703660474881084),
    (-0.8482065834104272, 0.10715922046717141),
    (-0.7244177313601701, 0.13957067792615444),
    (-0.5709721726085388, 0.16626920581699398),
    (-0.3941513470775634, 0.1861610000155622),
    (-0.20119409399743451, 0.1984314853271116),
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203),
)


def _gl15(f: Callable[[float], float], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(w * f(mid + half * t) for t, w in _GL15)


def adaptive_integrate(f: Callable[[float], float], tol: float) -> float:
    """Integral of f over [0, 1] from one 15-point Gauss-Legendre panel,
    absolute tolerance.

    The rule is applied to [0, 1] and to each of its halves (45 calls of f);
    the sum over the halves is returned when the two results differ by at
    most tol, and otherwise QuadratureError is raised with achieved = inf.
    Gauss-Legendre nodes are interior to their panel, so f is never
    evaluated at x = 0 or x = 1 and may have a removable singularity there.
    """
    return _one_panel(f, 1.0, _check_tol(tol, "tol"))


def _one_panel(f: Callable[[float], float], scale: float, tol: float) -> float:
    """scale times the integral of f over [0, 1], the rule's defect and tol
    both in the units of the result."""
    coarse = _gl15(f, 0.0, 1.0)
    fine = _gl15(f, 0.0, 0.5) + _gl15(f, 0.5, 1.0)
    defect = abs(scale) * abs(coarse - fine)
    if defect <= tol:
        return scale * fine
    raise QuadratureError("the rule on [0, 1] and on its halves differ by %.3e > tol %.3e"
                          % (defect, tol), achieved=math.inf)


def _scaled_integral(
    coeffs: Sequence[Fraction],
    integrand: Callable[[float, float], float],
    scale: float,
    tol: float,
) -> float:
    """scale times the integral over [0, 1] of integrand(p(x), x), p the
    polynomial with the given coefficients, to absolute tolerance tol."""
    fc = [float(c) for c in coeffs]
    return _one_panel(lambda x: integrand(_horner(fc, x, 0.0), x), scale, _check_tol(tol, "tol"))


def _cospi_half(u: float) -> float:
    # cos(pi u / 2) for u in (0, 1), as sin(pi (1 - u) / 2): 1 - u is exact
    # for u >= 1/2, so the zero at u = 1 keeps its relative accuracy; both
    # arguments lie in (0, pi/2), where math.sin needs no range reduction
    return math.sin(0.5 * math.pi * (1.0 - u))


def zeta_odd_integral(k: int, tol: float = 1e-8) -> float:
    """zeta(2k+1) from its half-angle cotangent integral representation.

    Evaluates (-1)^(k-1) 2^(2k) pi^(2k+1) / (2k+1)! times the integral over
    [0, 1] of B_{2k+1}(x) * cot(pi x / 2), whose singularity at the edge
    x = 0 is removable.  Needs 1 <= k <= MAX_INTEGRAL_K.
    """
    k = _check_int(k, "k", 1, MAX_INTEGRAL_K, _MAX_K_WHY)
    sign = 1.0 if k % 2 == 1 else -1.0
    scale = sign * 2.0 ** (2 * k) * math.pi ** (2 * k + 1) / math.factorial(2 * k + 1)
    return _scaled_integral(
        bernoulli_poly(2 * k + 1).coeffs,
        lambda h, x: h * _cospi_half(x) / math.sin(0.5 * math.pi * x),
        scale,
        tol,
    )


def beta_even_integral(k: int, tol: float = 1e-8) -> float:
    """beta(2k+2) from its secant integral representation.

    Evaluates (-1)^(k-1) pi^(2k+2) / (4 (2k+1)!) times the integral over
    [0, 1] of E_{2k+1}(x) / cos(pi x).  That integrand is symmetric about
    x = 1/2, so the integral equals the one over [0, 1] of
    E_{2k+1}(u/2) / cos(pi u / 2), whose singularity at the edge u = 1 is
    removable; E_{2k+1}(u/2) has the exact coefficients c_i / 2^i.  Needs
    0 <= k <= MAX_INTEGRAL_K.
    """
    k = _check_int(k, "k", 0, MAX_INTEGRAL_K, _MAX_K_WHY)
    sign = 1.0 if k % 2 == 1 else -1.0
    scale = sign * math.pi ** (2 * k + 2) / (4.0 * math.factorial(2 * k + 1))
    return _scaled_integral(
        [c / 2 ** i for i, c in enumerate(euler_poly(2 * k + 1).coeffs)],
        lambda h, u: h / _cospi_half(u),
        scale,
        tol,
    )
