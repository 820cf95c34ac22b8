"""Bernoulli and Euler polynomials and numbers, computed exactly.

Both families are Appell sequences, P_n(x) = sum_i C(n, i) p_{n-i} x**i, so
each is fixed by its numbers p_n = P_n(0).  One number recurrence serves the
classical and the parameter-deformed (Apostol) families: the Apostol-Euler
numbers e_n = E_n(0; lam) of the generating function 2 / (lam e^z + 1) obey

    e_n = (2 [n == 0] - lam * sum_{j<n} C(n, j) e_j) / (1 + lam),

which is O(n^2).  At lam = 1 it runs on Fractions and gives the classical
E_n(0); the Bernoulli numbers follow from E_{n-1}(0) = -2 (2**n - 1) B_n / n.

Only the numbers E_n(0) are cached, in an append-only list grown on demand
under a lock, so readers always observe a fully built prefix.  Polynomials
are expanded from the numbers when asked for.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import List

from .exact_core import InternalConsistencyError, Poly, binomial, poly_eval

__all__ = [
    "DEFAULT_CACHE_DEPTH",
    "precompute",
    "bernoulli_poly",
    "euler_poly",
    "bernoulli_number",
    "euler_number",
]

DEFAULT_CACHE_DEPTH = 64

_lock = threading.Lock()
_euler_at_zero: List[Fraction] = []


def _appell_numbers(numbers: list, upto: int, lam) -> list:
    """Extend ``numbers`` with the Apostol-Euler numbers e_n(lam) through
    index ``upto`` and return it.

    ``lam`` fixes the arithmetic: a Fraction gives exact numbers, an mpmath
    value gives numbers at the active working precision.
    """
    for n in range(len(numbers), upto + 1):
        acc = sum(binomial(n, j) * numbers[j] for j in range(n))
        numbers.append(((2 if n == 0 else 0) - lam * acc) / (1 + lam))
    return numbers


def _euler_zero(k: int) -> Fraction:
    if k >= len(_euler_at_zero):
        with _lock:
            _appell_numbers(_euler_at_zero, k, Fraction(1))
    return _euler_at_zero[k]


def precompute(depth: int = DEFAULT_CACHE_DEPTH) -> None:
    """Fill the number cache behind both families through index ``depth``."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _euler_zero(depth)


def bernoulli_number(k: int) -> Fraction:
    """Bernoulli number B_k = B_k(0), exactly."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    return -k * _euler_zero(k - 1) / (2 * (2 ** k - 1))


def bernoulli_poly(k: int) -> Poly:
    """Exact Bernoulli polynomial B_k(x); monic of degree k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Poly(binomial(k, i) * bernoulli_number(k - i) for i in range(k + 1))


def euler_poly(k: int) -> Poly:
    """Exact Euler polynomial E_k(x); monic of degree k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Poly(binomial(k, i) * _euler_zero(k - i) for i in range(k + 1))


def euler_number(k: int) -> Fraction:
    """Integer Euler number of even index: 2**k * E_k(1/2).

    Only even indices are defined in this normalization; odd indices are
    rejected (their value would be 0 in the secant-series convention, but the
    closed forms downstream never use them).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k % 2:
        raise ValueError("Euler number index must be even")
    value = 2 ** k * poly_eval(euler_poly(k), Fraction(1, 2))
    if value.denominator != 1:
        raise InternalConsistencyError(
            "Euler number at index %d is not an integer: %s" % (k, value)
        )
    return value
