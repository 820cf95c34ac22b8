"""Exact polynomial-oscillation integrals and adaptive panel quadrature.

The exact half: integrals of a rational-coefficient polynomial against
cos(m*pi*x) or sin(m*pi*x) on [0, 1] via the full integration-by-parts
ladder, carried out entirely in Fraction arithmetic so results are exact
finite sums of rational multiples of powers of pi.  For the Apostol-Euler
polynomials against the exponential kernel lambda^x e^(-(2m+1) pi i x) the
same ladder telescopes to a closed form.

The numeric half: adaptive bisection with a 15-point Gauss-Legendre rule
per panel, used for the non-elementary integral representations of
zeta(2k+1) and beta(2k+2).  Removable singularities are declared up front
with their exact limits and become forced panel boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple, Union

import mpmath
import numpy as np

from .apostol_polys import DEFAULT_DPS
from .classical_polys import bernoulli_poly, euler_poly
from .exact_core import (
    PiScalar,
    Poly,
    collapse_pi_terms,
    poly_derivative,
    poly_eval,
    poly_integral_01,
)
from .oracles import cospi, sinpi

__all__ = [
    "OscKernel",
    "QuadratureError",
    "exact_poly_trig_integral",
    "exact_apostol_integral",
    "j_integral",
    "adaptive_integrate",
    "zeta_odd_integral",
    "beta_even_integral",
]

_KERNEL_KINDS = ("cos", "sin", "complex_exp")


@dataclass(frozen=True)
class OscKernel:
    """Oscillatory factor on [0, 1]: cos(m*pi*x), sin(m*pi*x), or e^(a*x)."""

    kind: str
    m: int = 0
    exponent: complex = 0j

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_KINDS:
            raise ValueError("kind must be one of %s" % (_KERNEL_KINDS,))
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise ValueError("m must be an integer")
        if self.kind == "complex_exp" and self.exponent == 0:
            raise ValueError("complex_exp kernel needs a nonzero exponent")

    @staticmethod
    def cos(m: int) -> "OscKernel":
        return OscKernel(kind="cos", m=m)

    @staticmethod
    def sin(m: int) -> "OscKernel":
        return OscKernel(kind="sin", m=m)

    @staticmethod
    def complex_exp(exponent: complex) -> "OscKernel":
        return OscKernel(kind="complex_exp", exponent=exponent)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature hit the depth cap; .achieved holds the estimate."""

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(message)
        self.achieved = achieved


def _parts_ladder(p: Poly, m: int, cos: bool) -> Dict[int, Fraction]:
    # Step j integrates the j-th derivative by parts against cos or sin,
    # alternating.  Every step divides by m*pi, a cos step flips the sign of
    # all later ones, and only sin steps leave a boundary term, because
    # sin(m*pi*x) vanishes at both endpoints.
    out: Dict[int, Fraction] = {}
    scale = Fraction(1)
    power = -1
    while not p.is_zero:
        scale /= m
        if cos:
            scale = -scale
        else:
            boundary = p.coeffs[0] - (-1) ** m * sum(p.coeffs)  # p(0) - (-1)^m p(1)
            if boundary:
                out[power] = boundary * scale
        p = poly_derivative(p)
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
    if kernel.kind == "complex_exp":
        raise ValueError("complex_exp kernels go through exact_apostol_integral")
    if kernel.m < 1:
        raise ValueError("kernel m must be >= 1")
    return collapse_pi_terms(_parts_ladder(p, kernel.m, kernel.kind == "cos"))


def exact_apostol_integral(k: int, m: int, mu: float, dps: int = None) -> complex:
    """Integral over [0, 1] of lambda^x * (Apostol-Euler poly of degree k at
    lambda = e^(i*mu)) * e^(-(2m+1) pi i x), in closed form.

    The integrand is q(x) e^(a x) with a = i*(mu - (2m+1)*pi), and repeated
    integration by parts terminates.  With e^a = -lambda, the Appell property
    q^(j) = k!/(k-j)! E_{k-j} and the difference equation
    lambda E_n(1) + E_n(0) = 2 [n == 0], every boundary term but the last is
    zero, so the ladder telescopes to 2 k! / ((2m+1) pi i - mu i)^(k+1),
    which is evaluated at ``dps`` digits (DEFAULT_DPS if not given).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError("m must be an integer")
    mu = float(mu)
    if not (abs(mu) < math.pi):
        raise ValueError("mu must satisfy |mu| < pi")
    with mpmath.workdps(dps or DEFAULT_DPS):
        a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
        return complex(2 * mpmath.factorial(k) / (-a) ** (k + 1))


def j_integral(
    k: int, m: int, family: str
) -> Union[PiScalar, List[Tuple[Fraction, int]]]:
    """Exact integral of an odd-degree Bernoulli or Euler polynomial against
    its oscillating kernel: B_{2k+1}(x) sin(m*pi*x) or E_{2k+1}(x) cos(m*pi*x).
    """
    if family not in ("bernoulli_odd", "euler_odd"):
        raise ValueError("family must be 'bernoulli_odd' or 'euler_odd'")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError("m must be an integer")
    if family == "bernoulli_odd":
        if m < 1:
            raise ValueError("bernoulli_odd requires m >= 1")
        return exact_poly_trig_integral(bernoulli_poly(2 * k + 1), OscKernel.sin(m))
    if m < 0:
        raise ValueError("euler_odd requires m >= 0")
    if m == 0:
        return PiScalar(poly_integral_01(euler_poly(2 * k + 1)), 0)
    return exact_poly_trig_integral(euler_poly(2 * k + 1), OscKernel.cos(m))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GL_PAIRS = tuple(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))


def _gl15(f: Callable[[float], float], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(w * f(mid + half * t) for t, w in _GL_PAIRS)


def adaptive_integrate(
    f: Callable[[float], float],
    tol: float,
    singular_points: Sequence[Tuple[float, float]] = (),
    max_depth: int = 40,
) -> float:
    """Adaptive bisection quadrature of f over [0, 1], absolute tolerance.

    singular_points lists (x, limit) pairs where f has a removable
    singularity; each x becomes a forced panel boundary and the declared
    limit is substituted should a node land exactly on it (Gauss-Legendre
    nodes are interior, so panels never probe the singularity itself).
    A panel is accepted when its 1-vs-2 subdivision defect is within the
    width-proportional share of tol; panels still unsettled at max_depth
    raise QuadratureError carrying the best estimate.
    """
    tol = float(tol)
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValueError("tol must be a positive finite real")
    limits = {}
    for x, limit in singular_points:
        x = float(x)
        if not (0.0 <= x <= 1.0):
            raise ValueError("singular points must lie in [0, 1]")
        limits[x] = float(limit)

    def g(x: float) -> float:
        if x in limits:
            return limits[x]
        return f(x)

    boundaries = sorted({0.0, 1.0} | set(limits))
    panels: List[Tuple[float, float, int]] = [
        (boundaries[i], boundaries[i + 1], 0) for i in range(len(boundaries) - 1)
    ]
    pieces: List[float] = []
    while panels:
        a, b, depth = panels.pop()
        mid = 0.5 * (a + b)
        coarse = _gl15(g, a, b)
        fine = _gl15(g, a, mid) + _gl15(g, mid, b)
        defect = abs(coarse - fine)
        if defect <= tol * (b - a):
            pieces.append(fine)
            continue
        if depth >= max_depth:
            achieved = math.fsum(pieces) + fine + math.fsum(
                _gl15(g, pa, pb) for pa, pb, _ in panels
            )
            raise QuadratureError(
                "no convergence on [%g, %g] at depth %d (defect %.3e)"
                % (a, b, depth, defect),
                achieved=achieved,
            )
        panels.append((mid, b, depth + 1))
        panels.append((a, mid, depth + 1))
    return math.fsum(pieces)


def _float_poly(p: Poly) -> List[float]:
    return [float(c) for c in p.coeffs]


def _horner(coeffs: List[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def zeta_odd_integral(k: int, tol: float = 1e-8) -> float:
    """zeta(2k+1) from its half-angle cotangent integral representation.

    Evaluates (-1)^(k-1) 2^(2k) pi^(2k+1) / (2k+1)! times the integral over
    [0, 1] of B_{2k+1}(x) * cot(pi x / 2), whose x = 0 singularity is
    removable with exact limit (2/pi) (2k+1) B_{2k}(0).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be an integer >= 1")
    coeffs = _float_poly(bernoulli_poly(2 * k + 1))
    limit = (2.0 / math.pi) * (2 * k + 1) * float(poly_eval(bernoulli_poly(2 * k), 0))
    sign = 1.0 if k % 2 == 1 else -1.0
    scale = sign * 2.0 ** (2 * k) * math.pi ** (2 * k + 1) / math.factorial(2 * k + 1)

    def f(x: float) -> float:
        return _horner(coeffs, x) * cospi(0.5 * x) / sinpi(0.5 * x)

    integral = adaptive_integrate(
        f, float(tol) / abs(scale), singular_points=((0.0, limit),)
    )
    return scale * integral


def beta_even_integral(k: int, tol: float = 1e-8) -> float:
    """beta(2k+2) from its secant integral representation.

    Evaluates (-1)^(k-1) pi^(2k+2) / (4 (2k+1)!) times the integral over
    [0, 1] of E_{2k+1}(x) / cos(pi x), whose x = 1/2 singularity is
    removable with exact limit -(2k+1) E_{2k}(1/2) / pi.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
    coeffs = _float_poly(euler_poly(2 * k + 1))
    elim = float(poly_eval(euler_poly(2 * k), Fraction(1, 2)))
    limit = -(2 * k + 1) * elim / math.pi
    sign = 1.0 if k % 2 == 1 else -1.0
    scale = sign * math.pi ** (2 * k + 2) / (4.0 * math.factorial(2 * k + 1))

    def f(x: float) -> float:
        return _horner(coeffs, x) / cospi(x)

    integral = adaptive_integrate(
        f, float(tol) / abs(scale), singular_points=((0.5, limit),)
    )
    return scale * integral
