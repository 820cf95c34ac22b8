"""Apostol-Euler and Apostol-Bernoulli polynomials at a fixed complex
parameter, plus the real Taylor-coefficient engines for the expansions of
sec(w/2) and -cot(w/2) about a real center.

The deformed families come from the Apostol-Euler numbers e_n(lam) of the
number recurrence shared with classical_polys; a polynomial is expanded from
them only when one is asked for, and the carriers ek_mu (x = 1/2) and
ektilde_mu (x = 1) read the numbers directly.  The Taylor carriers use none
of this: they are the lattice sums' independent "taylor" route.

All complex work runs in mpmath at a configurable working precision
(DEFAULT_DPS significant digits).  Double precision is not enough here: the
number recurrence and the final combination i**k * e^(i mu/2) * E_k(1/2)
suffer factorial-scale growth, and downstream consumers need small *absolute*
error on values that reach 1e7 near the poles of sec(mu/2).  Results are
converted to float only at the API boundary.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import mpmath

from .classical_polys import _appell_numbers, bernoulli_poly
from .exact_core import InternalConsistencyError, ToleranceUnreachable, binomial

__all__ = [
    "DEFAULT_DPS",
    "TOL_IMAG",
    "GUARD_BAND",
    "CPoly",
    "TruncSeries",
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

# Half-width of the excluded neighbourhoods around parameter singularities.
GUARD_BAND = 1e-9

_TWO_PI = 2.0 * math.pi


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


ComplexLike = Union[complex, float, int, "mpmath.mpc", "mpmath.mpf"]


def _as_mpc(value: ComplexLike, name: str = "lambda") -> mpmath.mpc:
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

    def __call__(self, x: ComplexLike) -> mpmath.mpc:
        acc = mpmath.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "CPoly":
        if len(self.coeffs) <= 1:
            return CPoly([mpmath.mpc(0)])
        return CPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        return "CPoly(%r)" % (list(self.coeffs),)


def _apostol_euler_coeffs(k: int, lam: mpmath.mpc) -> List[mpmath.mpc]:
    """Coefficients, low to high, of E_k(x; lam) = sum_i C(k,i) e_{k-i} x**i."""
    numbers = _appell_numbers([], k, lam)
    return [binomial(k, i) * numbers[k - i] for i in range(k + 1)]


def apostol_euler_poly(
    k: int, lam: ComplexLike, dps: Optional[int] = None
) -> CPoly:
    """Lambda-deformed Euler polynomial of index k at fixed parameter lam.

    lam = -1 is a pole of the generating function and lam = 0 degenerates it;
    both are rejected.  At lam = 1 the classical Euler polynomial is
    recovered.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    lam = _as_mpc(lam)
    if lam == 0:
        raise ValueError("parameter lambda = 0 is excluded")
    if lam == -1:
        raise ValueError("parameter lambda = -1 is excluded (pole)")
    with mpmath.workdps(dps or DEFAULT_DPS):
        return CPoly(_apostol_euler_coeffs(k, lam))


def apostol_bernoulli_poly(
    k: int, lam: ComplexLike, dps: Optional[int] = None
) -> CPoly:
    """Lambda-deformed Bernoulli polynomial of index k >= 1.

    For lam != 1 it is -(k/2) times the index-(k-1) deformed Euler polynomial
    at parameter -lam (and has degree k-1); at lam = 1 the classical
    Bernoulli polynomial is returned, lifted to complex coefficients.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lam = _as_mpc(lam)
    if lam == 0:
        raise ValueError("parameter lambda = 0 is excluded")
    with mpmath.workdps(dps or DEFAULT_DPS):
        if lam == 1:
            return CPoly(
                [
                    mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator)
                    for c in bernoulli_poly(k).coeffs
                ]
            )
        scale = -mpmath.mpf(k) / 2
        return CPoly([scale * c for c in _apostol_euler_coeffs(k - 1, -lam)])


def _check_sec_domain(mu: float) -> float:
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if abs(mu) >= math.pi - GUARD_BAND:
        raise ValueError(
            "mu must lie in (-pi, pi), at least 1e-9 away from the "
            "endpoints where sec(mu/2) blows up"
        )
    return mu


def _check_cot_domain(mu: float) -> float:
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    r = abs(math.fmod(mu, _TWO_PI))
    if min(r, _TWO_PI - r) <= GUARD_BAND:
        raise ValueError(
            "mu must stay at least 1e-9 away from multiples of 2*pi, "
            "where cot(mu/2) blows up"
        )
    return mu


_I_POWERS = (mpmath.mpc(1), mpmath.mpc(0, 1), mpmath.mpc(-1), mpmath.mpc(0, -1))


def _ek_complex(k: int, mu: float) -> mpmath.mpc:
    # i**k * e^(i mu / 2) * E_k(1/2; e^(i mu)), in the active precision
    lam = mpmath.expj(mpmath.mpf(mu))
    acc = mpmath.mpc(0)
    half = mpmath.mpf(1) / 2
    for c in reversed(_apostol_euler_coeffs(k, lam)):
        acc = acc * half + c
    return _I_POWERS[k % 4] * mpmath.expj(mpmath.mpf(mu) / 2) * acc


def _ektilde_complex(k: int, mu: float) -> mpmath.mpc:
    # i**(k+1) * e^(i mu) * E_k(1; -e^(i mu)), in the active precision; for
    # k >= 1 the difference equation lam E_k(1; lam) = -e_k(lam), taken at
    # -lam, turns lam * E_k(1; -lam) into the number e_k(-lam)
    lam = mpmath.expj(mpmath.mpf(mu))
    return _I_POWERS[(k + 1) % 4] * _appell_numbers([], k, -lam)[k]


def _real_part_checked(
    z: mpmath.mpc, tol_imag: float, what: str
) -> float:
    # compared in mpmath, so a value past the double range cannot overflow
    # the check; the value itself then raises a typed error
    scale = max(1, abs(z))
    if abs(z.imag) > tol_imag * scale:
        raise InternalConsistencyError(
            "%s should be real; imaginary residue %.3e exceeds %.1e * %.3e"
            % (what, abs(z.imag), tol_imag, scale)
        )
    value = float(z.real)
    if not math.isfinite(value):
        raise ToleranceUnreachable(
            "%s %s lies beyond the double-precision range"
            % (what, mpmath.nstr(z.real, 5)),
            achieved=math.inf,
        )
    return value


def ek_mu(
    k: int,
    mu: float,
    tol_imag: float = TOL_IMAG,
    dps: Optional[int] = None,
) -> float:
    """k-th derivative of sec(mu/2) via the complex polynomial route.

    Computes i**k * e^(i mu/2) * E_k(1/2; e^(i mu)) at working precision and
    returns the real part after checking that the imaginary residue is below
    tol_imag * max(1, |value|).  A value beyond the double range raises
    ToleranceUnreachable; Z divides by 2*k! before it rounds, so it stays
    finite where this one cannot.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    mu = _check_sec_domain(mu)
    with mpmath.workdps(dps or DEFAULT_DPS):
        z = _ek_complex(k, mu)
        return _real_part_checked(z, tol_imag, "sec-derivative value")


def ektilde_mu(
    k: int,
    mu: float,
    tol_imag: float = TOL_IMAG,
    dps: Optional[int] = None,
) -> float:
    """k-th derivative of -cot(mu/2) via the complex polynomial route, k >= 1.

    The k = 0 combination i * e^(i mu) * E_0(1; -e^(i mu)) is not real (its
    imaginary part is identically -1), so k = 0 is rejected; use the direct
    convention -1/tan(mu/2) instead.
    """
    if k < 1:
        raise ValueError(
            "k must be >= 1; the k = 0 value is the convention -1/tan(mu/2)"
        )
    mu = _check_cot_domain(mu)
    with mpmath.workdps(dps or DEFAULT_DPS):
        z = _ektilde_complex(k, mu)
        return _real_part_checked(z, tol_imag, "cot-derivative value")


def _scaled_residue(z: mpmath.mpc) -> float:
    # formed in mpmath and rounded once: |z| itself may be past the double range
    return float(abs(z.imag) / max(1, abs(z)))


def ek_mu_imag_residue(k: int, mu: float, dps: Optional[int] = None) -> float:
    """Scaled imaginary residue |Im z| / max(1, |z|) of the ek_mu combination."""
    if k < 0:
        raise ValueError("k must be >= 0")
    mu = _check_sec_domain(mu)
    with mpmath.workdps(dps or DEFAULT_DPS):
        return _scaled_residue(_ek_complex(k, mu))


def ektilde_mu_imag_residue(k: int, mu: float, dps: Optional[int] = None) -> float:
    """Scaled imaginary residue of the ektilde_mu combination, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mu = _check_cot_domain(mu)
    with mpmath.workdps(dps or DEFAULT_DPS):
        return _scaled_residue(_ektilde_complex(k, mu))


class TruncSeries:
    """Taylor polynomial of fixed order about a real center.

    coeffs[j] is the j-th Taylor coefficient (j-th derivative over j!).
    Binary operations require matching center and order; products and
    quotients are computed exactly through the stated order, with no order
    loss.  Coefficients may be floats or mpmath reals.
    """

    __slots__ = ("center", "coeffs", "order")

    def __init__(self, center: float, coeffs: Sequence) -> None:
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(self, "center", float(center))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", len(coeffs) - 1)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncSeries is immutable")

    def _check_compatible(self, other: "TruncSeries") -> None:
        if self.center != other.center or self.order != other.order:
            raise ValueError("series centers and orders must match")

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = []
        for j in range(n + 1):
            out.append(sum(a[i] * b[j - i] for i in range(j + 1)))
        return TruncSeries(self.center, out)

    def reciprocal(self) -> "TruncSeries":
        """Multiplicative inverse through the stated order (long division)."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        inv0 = 1 / c0
        out = [inv0]
        for j in range(1, self.order + 1):
            s = sum(self.coeffs[i] * out[j - i] for i in range(1, j + 1))
            out.append(-inv0 * s)
        return TruncSeries(self.center, out)

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("divisor series has zero constant term")
        inv0 = 1 / b0
        out = []
        for j in range(self.order + 1):
            s = self.coeffs[j]
            for i in range(1, j + 1):
                s = s - other.coeffs[i] * out[j - i]
            out.append(s * inv0)
        return TruncSeries(self.center, out)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.center, [-c for c in self.coeffs])

    def __repr__(self) -> str:
        return "TruncSeries(center=%r, order=%d)" % (self.center, self.order)


def _half_angle_series(mu: float, order: int, quarter_turns: int) -> TruncSeries:
    """Taylor coefficients of t |-> cos((mu + t)/2 - quarter_turns*pi/2)
    through ``order``: quarter_turns = 0 gives cos((mu + t)/2), 1 gives sin.

    Coefficient j is cos(mu/2 + (j - quarter_turns)*pi/2) / (2**j * j!), i.e.
    the cyclic pattern cos, -sin, -cos, sin of the half-angle.
    """
    c = mpmath.cos(mpmath.mpf(mu) / 2)
    s = mpmath.sin(mpmath.mpf(mu) / 2)
    cycle = (c, -s, -c, s)
    out = []
    scale = mpmath.mpf(1)
    for j in range(order + 1):
        out.append(cycle[(j - quarter_turns) % 4] * scale)
        scale /= 2 * (j + 1)
    return TruncSeries(mu, out)


def _sec_taylor_mp(mu: float, K: int) -> list:
    # derivatives 0..K of sec(mu/2), in the active precision
    return _times_factorials(_half_angle_series(mu, K, 0).reciprocal().coeffs)


def _cot_taylor_mp(mu: float, K: int) -> list:
    # derivatives 0..K of -cot(mu/2), in the active precision
    quot = _half_angle_series(mu, K, 0) / _half_angle_series(mu, K, 1)
    return [-c for c in _times_factorials(quot.coeffs)]


def _times_factorials(coeffs: Sequence) -> list:
    out = []
    fact = 1
    for j, c in enumerate(coeffs):
        if j:
            fact *= j
        out.append(fact * c)
    return out


def _finite_floats(values: Sequence, what: str) -> List[float]:
    out = [float(c) for c in values]
    for j, c in enumerate(out):
        if not math.isfinite(c):
            raise ToleranceUnreachable(
                "derivative %d of %s(mu/2), %s, lies beyond the double-precision range"
                % (j, what, mpmath.nstr(values[j], 5)),
                achieved=math.inf,
            )
    return out


def sec_taylor_coeffs(mu: float, K: int, dps: Optional[int] = None) -> List[float]:
    """Derivatives 0..K of sec(mu/2) via truncated-series reciprocal.

    Entry j equals j! times the j-th Taylor coefficient of sec((mu + t)/2)
    at t = 0, i.e. the j-th derivative of sec(mu/2) with respect to mu.
    An entry beyond the double range raises ToleranceUnreachable.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    mu = _check_sec_domain(mu)
    with mpmath.workdps(dps or DEFAULT_DPS):
        return _finite_floats(_sec_taylor_mp(mu, K), "sec")


def cot_taylor_coeffs(mu: float, K: int, dps: Optional[int] = None) -> List[float]:
    """Derivatives 0..K of -cot(mu/2) via a truncated-series quotient.

    Entry j is -j! times the j-th Taylor coefficient of
    cos((mu+t)/2) / sin((mu+t)/2); entry 0 is -1/tan(mu/2).  An entry
    beyond the double range raises ToleranceUnreachable.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    mu = _check_cot_domain(mu)
    with mpmath.workdps(dps or DEFAULT_DPS):
        return _finite_floats(_cot_taylor_mp(mu, K), "-cot")
