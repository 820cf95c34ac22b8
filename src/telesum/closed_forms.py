"""Closed-form values.

Exact pi-power closed forms for the classical even-index Dirichlet sums
(zeta, beta, eta, and the odd-harmonic lambda variants), and float
evaluators for two bilateral lattice sums:

  Z(k; mu)      = sum over all integers m of (-1)**m / ((2m+1)*pi - mu)**(k+1)
  Ztilde(k; mu) = sum over all integers m of 1 / (2*m*pi - mu)**(k+1)

Z equals the k-th derivative of sec(mu/2) divided by 2*k!, and Ztilde (for
k >= 1) the k-th derivative of -cot(mu/2) divided by 2*k!.  Each value
comes from one of two high-precision routes -- the paper's complex
Apostol-Euler identity, evaluated from its explicit finite-difference form
(one fixed-point Horner over an exact integer row), or the exact rows of the
derivative polynomials of apostol_polys (sec^(k) x = sec x Q_k(tan x),
cot^(k) x = P_k(cot x)) in mpmath --
and every call checks it against the certified route: the same rows over
2**(k+1) k!, rounded to doubles and evaluated by a float Horner at
|tan(mu/2)| or |cot(mu/2)| whose terms share one sign, with an a-priori
relative error bound; it costs microseconds.  A small table of explicit
trigonometric ratios is a further, independent fixture for low k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .apostol_polys import GUARD_BAND, MAX_K, _check_lattice_distance, _cot_value, _sec_value
from .classical_polys import bernoulli_number, euler_number
from .exact_core import PiScalar, Rational, _check_int

__all__ = [
    "MAX_K",
    "zeta_even",
    "beta_odd",
    "eta_even",
    "lambda_even",
    "Z",
    "Ztilde",
    "Ztilde0",
    "TableEntry",
    "Z_TABLE",
    "ZTILDE_TABLE",
    "Z_table",
    "Ztilde_table",
]

_TWO_PI = 2.0 * math.pi


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


def _check_method(method: str) -> None:
    if method not in {"auto", "complex", "taylor", "table"}:
        raise ValueError(
            "unknown method %r; expected auto, complex, taylor, or table" % (method,)
        )


def Z(k: int, mu: float, method: str = "auto") -> float:
    """Bilateral alternating sum over odd multiples of pi shifted by mu.

    Returns sum over all integers m of (-1)**m / ((2m+1)*pi - mu)**(k+1),
    which equals the k-th derivative of sec(mu/2) divided by 2*k!.

    "auto" and "complex" return the paper's complex Apostol-Euler value,
    "taylor" the derivative polynomial 2**-k sec(mu/2) Q_k(tan(mu/2)) from
    its exact row; both run in mpmath to at least DEFAULT_DPS digits and
    are rounded once, the division by 2*k! included, to the nearest double
    (not yet a certified rounding: see apostol_polys).  Each is checked
    against the certified value sec(mu/2) Q_k(tan(mu/2)) / (2**(k+1) k!),
    the same row rounded to doubles, to within its error bound (see
    apostol_polys._checked).  For "auto" and "complex" that compares two
    independent algorithms; for "taylor" it compares one row in two
    precisions, which tests the certified bound (verify's dual-route checks
    compare the routes).  These methods need 0 <= k <= MAX_K and
    -pi < mu < pi (at least 1e-9 from the endpoint poles).  method="table"
    uses the explicit trig-ratio fixtures for k = 0..6 unchecked, and
    accepts any mu away from odd multiples of pi.

    Raises ValueError outside the domain, ToleranceUnreachable (achieved =
    inf) when the sum lies beyond the double range, and
    InternalConsistencyError when the routes disagree.
    """
    k = _check_int(k, "k", 0)
    _check_method(method)
    if method == "table":
        return Z_table(k, mu)
    return _sec_value(k, mu, method == "taylor", False)


def Ztilde(k: int, mu: float, method: str = "auto") -> float:
    """Bilateral sum over even multiples of pi shifted by mu, k >= 1.

    Returns sum over all integers m of 1 / (2*m*pi - mu)**(k+1), which
    equals the k-th derivative of -cot(mu/2) divided by 2*k!.  Requires mu
    away from multiples of 2*pi (the m = 0 pole).  The k = 0 sum does not
    converge pointwise; its symmetric-limit convention lives in Ztilde0.

    Methods, rounding, checks and errors are those of Z, with "taylor" the
    value -2**-k P_k(cot(mu/2)) from the exact row, the certified value
    -P_k(cot(mu/2)) / (2**(k+1) k!) and 1 <= k <= MAX_K; method="table"
    covers k = 1..7.
    """
    k = _check_int(k, "k")
    if k < 1:
        raise ValueError(
            "k must be >= 1; for k = 0 use Ztilde0, the symmetric-limit "
            "convention -1/(2*tan(mu/2))"
        )
    _check_method(method)
    if method == "table":
        return Ztilde_table(k, mu)
    return _cot_value(k, mu, method == "taylor", False)


def Ztilde0(mu: float) -> float:
    """Symmetric-limit value of the k = 0 even-lattice sum: -1/(2*tan(mu/2))."""
    mu = _check_lattice_distance(mu, _TWO_PI, "mu")
    return -1.0 / (2.0 * math.tan(mu / 2.0))


@dataclass(frozen=True)
class TableEntry:
    """Closed trigonometric ratio sum(c * trig(j*mu/2)) / (d * base(mu/2)**p).

    terms holds (coefficient, kind, j) triples with kind in
    {"const", "cos", "sin"}; "const" ignores j.  denominator_constant is d,
    trig_power is p = k + 1, trig_base names the base function.
    """

    terms: Tuple[Tuple[Rational, str, int], ...]
    denominator_constant: int
    trig_power: int
    trig_base: str


def _entry(base: str, power: int, denom: int, *terms) -> TableEntry:
    return TableEntry(
        terms=tuple((Fraction(c), kind, j) for (c, kind, j) in terms),
        denominator_constant=denom,
        trig_power=power,
        trig_base=base,
    )


# Explicit low-order ratios for Z(k; mu); denominators follow 2**(2k) * k!
# for k >= 1 (the k = 0 entry is the bare 2).
Z_TABLE: Dict[int, TableEntry] = {
    0: _entry("cos", 1, 2, (1, "const", 0)),
    1: _entry("cos", 2, 4, (1, "sin", 1)),
    2: _entry("cos", 3, 32, (3, "const", 0), (-1, "cos", 2)),
    3: _entry("cos", 4, 384, (23, "sin", 1), (-1, "sin", 3)),
    4: _entry("cos", 5, 6144, (115, "const", 0), (-76, "cos", 2), (1, "cos", 4)),
    5: _entry("cos", 6, 122880, (1682, "sin", 1), (-237, "sin", 3), (1, "sin", 5)),
    6: _entry(
        "cos",
        7,
        2949120,
        (11774, "const", 0),
        (-10543, "cos", 2),
        (722, "cos", 4),
        (-1, "cos", 6),
    ),
}

# Explicit low-order ratios for Ztilde(k; mu); denominators follow 2**k * k!
# for k >= 2 (the k = 1 entry is the bare 4).
ZTILDE_TABLE: Dict[int, TableEntry] = {
    1: _entry("sin", 2, 4, (1, "const", 0)),
    2: _entry("sin", 3, 8, (-1, "cos", 1)),
    3: _entry("sin", 4, 48, (2, "const", 0), (1, "cos", 2)),
    4: _entry("sin", 5, 384, (-11, "cos", 1), (-1, "cos", 3)),
    5: _entry("sin", 6, 3840, (33, "const", 0), (26, "cos", 2), (1, "cos", 4)),
    6: _entry(
        "sin", 7, 46080, (-302, "cos", 1), (-57, "cos", 3), (-1, "cos", 5)
    ),
    7: _entry(
        "sin",
        8,
        645120,
        (1208, "const", 0),
        (1191, "cos", 2),
        (120, "cos", 4),
        (1, "cos", 6),
    ),
}


# term kind or base -> its function of the angle
_TRIG = {"const": lambda _: 1.0, "cos": math.cos, "sin": math.sin}


def _eval_entry(entry: TableEntry, mu: float) -> float:
    half = mu / 2.0
    parts = [float(coeff) * _TRIG[kind](j * half) for coeff, kind, j in entry.terms]
    base = _TRIG[entry.trig_base](half)
    return math.fsum(parts) / (entry.denominator_constant * base ** entry.trig_power)


def Z_table(k: int, mu: float) -> float:
    """Evaluate Z(k; mu) from the explicit trig-ratio table, k = 0..6."""
    k = _check_int(k, "k")
    if k not in Z_TABLE:
        raise ValueError("table covers k = 0..6 only")
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if abs(math.remainder(mu - math.pi, _TWO_PI)) <= GUARD_BAND:
        raise ValueError(
            "mu must stay at least 1e-9 away from odd multiples of pi"
        )
    return _eval_entry(Z_TABLE[k], mu)


def Ztilde_table(k: int, mu: float) -> float:
    """Evaluate Ztilde(k; mu) from the explicit trig-ratio table, k = 1..7."""
    k = _check_int(k, "k")
    if k not in ZTILDE_TABLE:
        raise ValueError("table covers k = 1..7 only")
    mu = _check_lattice_distance(mu, _TWO_PI, "mu")
    return _eval_entry(ZTILDE_TABLE[k], mu)
