"""Bernoulli and Euler polynomials and numbers, computed exactly, and the
classical constants they give in closed form: zeta(2k), beta(2k+1), eta(2k)
and lambda(2k), each B_2k or E_2k times a power of pi.

Both families are Appell sequences, P_n(x) = sum_i C(n, i) p_{n-i} x**i, so
each is fixed by its numbers p_n = P_n(0).  Those numbers are all read from
the zigzag numbers A_n (1, 1, 1, 2, 5, 16, 61, ...; sec x + tan x =
sum_n A_n x**n / n!), which the Seidel-Entringer boustrophedon triangle
gives by additions alone (D. E. Knuth and T. J. Buckholtz, Math. Comp. 21
(1967) 663-688; J. Millar, N. J. A. Sloane and N. E. Young, J. Combin.
Theory Ser. A 76 (1996) 44-54): row n starts at 0 and each next entry adds
the previous one to row n - 1 read backwards,

    T(n, 0) = 0,  T(n, j) = T(n, j-1) + T(n-1, n-j),  A_n = T(n, n).

With m >= 1:

    E_{2m-1}(0) = (-1)**m A_{2m-1} / 2**(2m-1),  E_{2m}(0) = 0,
    B_{2m} = (-1)**(m-1) 2m A_{2m-1} / (2**(2m) (2**(2m) - 1)),
    Euler number E_{2m} = (-1)**m A_{2m}.

The zigzag numbers and the last triangle row are the only cache: an
append-only list and one row, grown on demand under one lock, so readers
always observe a fully built prefix.  Nothing is built at import, and
polynomials are expanded from the numbers when asked for.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from typing import List

from .exact_core import PiScalar, Poly, _check_int

__all__ = [
    "DEFAULT_CACHE_DEPTH",
    "precompute",
    "bernoulli_poly",
    "euler_poly",
    "bernoulli_number",
    "euler_number",
    "zeta_even",
    "beta_odd",
    "eta_even",
    "lambda_even",
]

DEFAULT_CACHE_DEPTH = 64

_lock = threading.Lock()
_zigzag: List[int] = [1]
_row: List[int] = [1]  # the triangle row that ends in _zigzag[-1]; guarded by _lock


def _zigzag_number(n: int) -> int:
    global _row
    if n >= len(_zigzag):
        with _lock:
            while len(_zigzag) <= n:
                _row = list(itertools.accumulate(reversed(_row), initial=0))
                _zigzag.append(_row[-1])
    return _zigzag[n]


def _euler_zero(k: int) -> Fraction:
    if k % 2 == 0:
        return Fraction(1 if k == 0 else 0)
    sign = 1 if k % 4 == 3 else -1
    return Fraction(sign * _zigzag_number(k), 1 << k)


def precompute(depth: int = DEFAULT_CACHE_DEPTH) -> None:
    """Fill the number cache behind both families through index ``depth``."""
    _zigzag_number(_check_int(depth, "depth", 0))


def _bernoulli(k: int) -> Fraction:
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    sign = 1 if k % 4 == 2 else -1
    return Fraction(sign * k * _zigzag_number(k - 1), ((1 << k) - 1) << k)


def bernoulli_number(k: int) -> Fraction:
    """Bernoulli number B_k = B_k(0), exactly."""
    return _bernoulli(_check_int(k, "k", 0))


def bernoulli_poly(k: int) -> Poly:
    """Exact Bernoulli polynomial B_k(x); monic of degree k."""
    k = _check_int(k, "k", 0)
    return Poly(math.comb(k, i) * _bernoulli(k - i) for i in range(k + 1))


def euler_poly(k: int) -> Poly:
    """Exact Euler polynomial E_k(x); monic of degree k."""
    k = _check_int(k, "k", 0)
    return Poly(math.comb(k, i) * _euler_zero(k - i) for i in range(k + 1))


def euler_number(k: int) -> Fraction:
    """Integer Euler number of even index: 2**k * E_k(1/2).

    Only even indices are defined in this normalization; odd indices are
    rejected (their value would be 0 in the secant-series convention, but the
    closed forms downstream never use them).
    """
    k = _check_int(k, "k", 0)
    if k % 2:
        raise ValueError("Euler number index must be even")
    return Fraction(_zigzag_number(k) if k % 4 == 0 else -_zigzag_number(k))


def zeta_even(k: int) -> PiScalar:
    """zeta(2k) = sum n**(-2k) as an exact rational multiple of pi**(2k)."""
    k = _check_int(k, "k", 1)
    sign = -1 if k % 2 == 0 else 1
    coeff = sign * Fraction(2 ** (2 * k - 1), math.factorial(2 * k)) * bernoulli_number(2 * k)
    return PiScalar(coeff, 2 * k)


def beta_odd(k: int) -> PiScalar:
    """beta(2k+1) = sum (-1)**n (2n+1)**(-2k-1) as a rational multiple of pi**(2k+1)."""
    k = _check_int(k, "k", 0)
    sign = -1 if k % 2 == 1 else 1
    coeff = Fraction(sign * euler_number(2 * k), 2 ** (2 * k + 2) * math.factorial(2 * k))
    return PiScalar(coeff, 2 * k + 1)


def eta_even(k: int) -> PiScalar:
    """eta(2k) = sum (-1)**(n-1) n**(-2k), via (1 - 2**(1-2k)) * zeta(2k)."""
    k = _check_int(k, "k", 1)
    return zeta_even(k) * (1 - Fraction(1, 2 ** (2 * k - 1)))


def lambda_even(k: int) -> PiScalar:
    """lambda(2k) = sum over odd n of n**(-2k), via (1 - 2**(-2k)) * zeta(2k)."""
    k = _check_int(k, "k", 1)
    return zeta_even(k) * (1 - Fraction(1, 2 ** (2 * k)))
