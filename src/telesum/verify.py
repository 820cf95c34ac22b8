"""Seeded self-verification suites: identities, closed-vs-oracle agreement,
exact and numeric integrals, and truncated trigonometric expansions.

Each suite is an ordered table of checks, (name, tol, check, note),
and one runner (_run) executes any table.  It makes one random.Random(seed)
per suite, the seed an integer >= 0, and hands it to the checks in table
order, so the seed fixes every draw and every defect.  A numeric check
returns its measured defect and passes within the tolerance of its own
table entry: the defects are in different units, some ratios to a
certified bound and some absolute errors, so no one number could stand for
them all.  An exact check (tol _EXACT in the table) returns whether its
identity holds; it reports defect 0 or 1 against tol 0.  Any arithmetic
failure inside a check becomes a failing result with defect inf, and the
suite goes on.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence

import mpmath
import numpy as np

from . import closed_forms, oracles, quadrature
from .apostol_polys import (
    DEFAULT_DPS,
    apostol_bernoulli_poly,
    apostol_euler_poly,
    cot_taylor_coeffs,
    ek_mu,
    ek_mu_imag_residue,
    ektilde_mu,
    ektilde_mu_imag_residue,
    sec_taylor_coeffs,
)
from .classical_polys import (
    bernoulli_poly,
    beta_odd,
    eta_even,
    euler_number,
    euler_poly,
    lambda_even,
    zeta_even,
)
from .exact_core import (PiScalar, Poly, _check_int, _horner, _Record, poly_derivative, poly_eval,
                         poly_integral_01, poly_reflect)

__all__ = [
    "CheckResult",
    "run_identities",
    "run_closed_vs_oracle",
    "run_integrals",
    "run_hurwitz",
    "run_all",
    "format_report",
]


class CheckResult(_Record):
    """One check's outcome: its measured defect against its tolerance."""

    __slots__ = ("name", "defect", "tol", "passed", "note")

    def __init__(self, name: str, defect: float, tol: float, passed: bool, note: str = "") -> None:
        for field, value in zip(self.__slots__, (name, defect, tol, passed, note)):
            object.__setattr__(self, field, value)


# the tol column of an exact check: it passes only with defect 0
_EXACT = None


class _Check(NamedTuple):
    name: str
    tol: Optional[float]
    fn: Callable[[random.Random], object]
    note: str = ""


_Z_MU_GRID = (-2.8, -1.5, -0.3, 0.0, 0.7, 1.9, 3.0)
_ZTILDE_MU_GRID = (0.4, 1.0, math.pi / 2, 2.0, math.pi, 4.0)
_THETA_GRID = (0.1, 0.25, 0.5, 0.9)
_BOUND_NOTE = "defect is |closed - oracle| / certified bound"


def _max(a: float, b: float) -> float:
    """The larger of two defects, or NaN if either is: the builtin max keeps
    its first argument against a NaN, which would let a NaN defect pass."""
    return b if b > a or b != b else a


def _worst(defects: Iterable[float]) -> float:
    """Running maximum of the defects, from 0; a NaN among them wins."""
    return functools.reduce(_max, defects, 0.0)


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _coeff_gap(coeffs: Sequence, want: Sequence) -> float:
    """Largest |coeffs[i] - want[i]|, with want padded by zeros."""
    return _worst(
        float(abs(c - (want[i] if i < len(want) else 0))) for i, c in enumerate(coeffs)
    )


def _unit_circle(rng: random.Random, n: int) -> Iterator[mpmath.mpc]:
    """n parameters e^(i phi), phi uniform on [-3, 3], at the working precision."""
    for _ in range(n):
        yield mpmath.exp(1j * mpmath.mpf(rng.uniform(-3.0, 3.0)))


def _cot_mu(rng: random.Random) -> float:
    """A point of the cotangent carrier's domain, on either side of pi."""
    return rng.choice([rng.uniform(0.3, 2.9), rng.uniform(3.5, 6.0)])


def _deriv_ladders(rng: random.Random) -> bool:
    return all(
        poly_derivative(family(n)) == family(n - 1) * n
        for family in (bernoulli_poly, euler_poly)
        for n in range(1, 31)
    )


def _reflection(rng: random.Random) -> bool:
    return all(
        poly_reflect(family(n)) == family(n) * (-1) ** n
        for n in range(0, 25)
        for family in (bernoulli_poly, euler_poly)
    )


def _vanishing(rng: random.Random) -> bool:
    half = Fraction(1, 2)
    return all(
        poly_eval(p, x) == 0
        for k in range(1, 13)
        for p, xs in (
            (bernoulli_poly(2 * k + 1), (0, half, 1)),
            (euler_poly(2 * k), (0, 1)),
            (euler_poly(2 * k - 1), (half,)),
        )
        for x in xs
    )


def _integral_and_ends(rng: random.Random) -> bool:
    return all(poly_integral_01(bernoulli_poly(n)) == 0 for n in range(1, 31)) and all(
        poly_eval(bernoulli_poly(2 * k), 0) == poly_eval(bernoulli_poly(2 * k), 1)
        for k in range(1, 16)
    )


def _euler_integrality(rng: random.Random) -> bool:
    scaled = (2 ** (2 * k) * poly_eval(euler_poly(2 * k), Fraction(1, 2)) for k in range(0, 21))
    return all(v.denominator == 1 for v in scaled) and euler_number(2) == -1 and euler_number(4) == 5


def _euler_difference(lam: mpmath.mpc, x: mpmath.mpf, ks: range) -> float:
    """Largest |lam E_k(x + 1; lam) + E_k(x; lam) - 2 x^k| over ks."""
    worst = 0.0
    for k in ks:
        p = apostol_euler_poly(k, lam)
        worst = _max(worst, float(abs(lam * p(x + 1) + p(x) - 2 * x ** k)))
    return worst


def _bernoulli_difference(lam: mpmath.mpc, x: mpmath.mpf, ks: range) -> float:
    """Largest |lam B_k(x + 1; lam) - B_k(x; lam) - k x^(k-1)| over ks,
    relative to max(1, |k x^(k-1)|)."""
    worst = 0.0
    for k in ks:
        q = apostol_bernoulli_poly(k, lam)
        want = k * x ** (k - 1)
        worst = _max(worst, float(abs(lam * q(x + 1) - q(x) - want)) / max(1.0, float(abs(want))))
    return worst


def _bernoulli_at_one(rng: random.Random) -> float:
    # the lift at parameter 1 against the classical difference equation,
    # not against the classical polynomial it is lifted from
    with mpmath.workdps(DEFAULT_DPS):
        return _worst(_bernoulli_difference(mpmath.mpf(1), mpmath.mpf(x), range(1, 13))
                      for x in (-1.7, 0.3, 1.9))


def _boundary_identity(rng: random.Random) -> float:
    with mpmath.workdps(DEFAULT_DPS):
        return _worst(_euler_difference(lam, mpmath.mpf(0), range(0, 13)) for lam in _unit_circle(rng, 12))


def _coeff_gaps(lams: Iterable, ks: range, pair: Callable) -> float:
    """Largest coefficient gap between the two sequences pair(k, lam), at DEFAULT_DPS."""
    with mpmath.workdps(DEFAULT_DPS):
        return _worst(_coeff_gap(*pair(k, lam)) for lam in lams for k in ks)


def _apostol_deriv_ladder(rng: random.Random) -> float:
    return _coeff_gaps(_unit_circle(rng, 6), range(1, 11), lambda k, lam: (
        apostol_euler_poly(k, lam).derivative().coeffs,
        [k * c for c in apostol_euler_poly(k - 1, lam).coeffs],
    ))


def _family_relation(rng: random.Random) -> float:
    # degree-k deformed-Euler poly vs -(2/(k+1)) times the degree-(k+1)
    # deformed-Bernoulli poly at the negated parameter
    return _coeff_gaps(_unit_circle(rng, 6), range(0, 13), lambda k, lam: (
        apostol_euler_poly(k, lam).coeffs,
        [mpmath.mpf(-2) / (k + 1) * c for c in apostol_bernoulli_poly(k + 1, -lam).coeffs],
    ))


def _difference_equations(rng: random.Random) -> float:
    # lam*E_k(x+1) + E_k(x) = 2 x^k  and  lam*B_k(x+1) - B_k(x) = k x^(k-1);
    # independent functional equations, evaluated off [0, 1] on purpose.
    # |phi| kept in (0.3, 3.0): both deformed families blow up as the
    # parameter approaches its excluded point, which costs precision.
    worst = 0.0
    with mpmath.workdps(DEFAULT_DPS):
        for _ in range(8):
            phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
            lam = mpmath.exp(1j * mpmath.mpf(phi))
            x = mpmath.mpf(rng.uniform(-2.0, 2.0))
            worst = _max(worst, _euler_difference(lam, x, range(0, 11)))
            worst = _max(worst, _bernoulli_difference(lam, x, range(1, 11)))
    return worst


def _telescoping_trig(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(100):
        m = rng.randrange(0, 13)
        t = rng.uniform(0.05, 6.2)
        x = rng.uniform(0.0, 1.0)
        e = lambda n: complex(oracles.cospi(n * x), -oracles.sinpi(n * x))
        sides = (
            (math.cos(m * t) * 2.0 * math.sin(0.5 * t),
             math.sin((2 * m + 1) * 0.5 * t) - math.sin((2 * m - 1) * 0.5 * t)),
            (math.sin((2 * m + 1) * t) * 2.0 * math.cos(t), math.sin((2 * m + 2) * t) + math.sin(2 * m * t)),
            (e(2 * m + 2) + e(2 * m), e(2 * m + 1) * 2.0 * oracles.cospi(x)),
            (2.0 * oracles.sinpi(x) * e(2 * m + 1), 1j * (e(2 * m + 2) - e(2 * m))),
        )
        worst = _max(worst, _worst(abs(lhs - rhs) for lhs, rhs in sides))
    return worst


def _residues(rng: random.Random) -> float:
    worst = 0.0
    for draw, residue, first in ((lambda: rng.uniform(-3.0, 3.0), ek_mu_imag_residue, 0),
                                 (lambda: _cot_mu(rng), ektilde_mu_imag_residue, 1)):
        for _ in range(10):
            mu = draw()
            worst = _max(worst, _worst(residue(k, mu) for k in range(first, 17)))
    return worst


def _dual_routes(rng: random.Random) -> float:
    # both routes return derivatives, not raw Taylor coefficients
    worst = 0.0
    for draw, taylor, carrier, first in ((lambda: rng.uniform(-2.9, 2.9), sec_taylor_coeffs, ek_mu, 0),
                                         (lambda: _cot_mu(rng), cot_taylor_coeffs, ektilde_mu, 1)):
        for _ in range(8):
            mu = draw()
            coeffs = taylor(mu, 10)
            worst = _max(worst, _worst(_rel_gap(carrier(k, mu), coeffs[k]) for k in range(first, 11)))
    return worst


def _carrier_derivative(rng: random.Random) -> float:
    # the degree-k carrier is the mu-derivative of the degree-(k-1) one
    worst = 0.0
    h = 1e-5
    for _ in range(8):
        mu = rng.uniform(-2.5, 2.5)
        for k in range(1, 9):
            diff = (ek_mu(k - 1, mu + h) - ek_mu(k - 1, mu - h)) / (2.0 * h)
            val = ek_mu(k, mu)
            worst = _max(worst, abs(diff - val) / max(1.0, abs(val)))
    return worst


def _table_antiperiodicity(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(20):
        mu = rng.uniform(-3.0, 3.0)
        worst = _max(worst, _worst(
            _rel_gap(closed_forms.Z_table(k, mu + 2.0 * math.pi), -closed_forms.Z_table(k, mu))
            for k in range(0, 7)
        ))
    return worst


def _table_denominators(rng: random.Random) -> bool:
    z = [closed_forms.Z_TABLE[k].denominator_constant for k in range(0, 7)]
    ztilde = [closed_forms.ZTILDE_TABLE[k].denominator_constant for k in range(1, 8)]
    want_z = [2] + [2 ** (2 * k) * math.factorial(k) for k in range(1, 7)]
    return z == want_z and ztilde == [4] + [2 ** k * math.factorial(k) for k in range(2, 8)]


def _kernel_vs_fsum(rng: random.Random) -> bool:
    # math.fsum is an independent exactly rounded sum, so the two must
    # agree bit for bit; the single-exponent run is longer than a kernel
    # block, so it crosses a block boundary, and the wide runs at the top
    # and the bottom of the exponent range are sliced window by window far
    # from exponent 0
    gen = np.random.default_rng(rng.getrandbits(64))
    n = 5000
    mixed = np.ldexp(gen.standard_normal(n), gen.integers(-80, 80, n))
    run = gen.uniform(1.0, 2.0, oracles._BLOCK + 17)
    top = np.ldexp(gen.uniform(-1.0, 1.0, n), gen.integers(900, 1010, n))
    bottom = np.ldexp(gen.uniform(-1.0, 1.0, n), gen.integers(-1074, -960, n))
    for xs in (np.concatenate([mixed, run, -run[: n // 2], mixed[::3]]), top, bottom):
        value, magnitude = oracles._exact_sum(xs)
        if (value, magnitude) != (math.fsum(xs.tolist()), math.fsum(np.abs(xs).tolist())):
            return False
    return True


_IDENTITIES = [
    _Check("derivative ladders, both classical families, n <= 30", _EXACT, _deriv_ladders),
    _Check("reflection symmetry about 1/2, n <= 24", _EXACT, _reflection),
    _Check("odd/even vanishing points of the classical families", _EXACT, _vanishing),
    _Check("unit-interval mean zero and equal endpoints", _EXACT, _integral_and_ends),
    _Check("scaled midpoint values are integers, k <= 20", _EXACT, _euler_integrality),
    _Check("deformed boundary identity on the unit circle", 1e-12, _boundary_identity),
    _Check("derivative ladder of the deformed family", 1e-20, _apostol_deriv_ladder),
    _Check("deformation parameter 1 recovers the classical family", 1e-14,
           lambda rng: _coeff_gaps([mpmath.mpf(1)], range(0, 13), lambda k, one: (
               apostol_euler_poly(k, one).coeffs, [float(c) for c in euler_poly(k).coeffs]))),
    _Check("euler-type vs bernoulli-type deformation relation", 1e-20, _family_relation),
    _Check("difference equations of both deformed families", 1e-12, _difference_equations),
    _Check("bernoulli-type lift at deformation parameter 1", 1e-14, _bernoulli_at_one),
    _Check("telescoping trigonometric identities, 100 samples", 1e-13, _telescoping_trig),
    _Check("imaginary residue of the complex-route carriers", 1e-10, _residues),
    _Check("secant/cotangent carrier dual routes", 1e-9, _dual_routes),
    _Check("finite-difference consistency of carrier ladder", 1e-6, _carrier_derivative),
    _Check("closed-form table antiperiodicity", 1e-12, _table_antiperiodicity),
    _Check("table denominator structure", _EXACT, _table_denominators),
    _Check("exact summation kernel against math.fsum", _EXACT, _kernel_vs_fsum,
           "mixed signs and exponents, one run longer than a kernel block, "
           "wide runs at both ends of the exponent range"),
]


def _closed_vs_series(closed: Callable, series: Callable, ks: range, shift: int) -> float:
    """|closed(k) - series(2k + shift)| in units of the series' certified bound."""
    pairs = ((series(2 * k + shift, 1e-10), closed(k)) for k in ks)
    return _worst(abs(float(c) - r.value) / r.error_bound for r, c in pairs)


def _eta_lambda_agreement(rng: random.Random) -> float:
    worst = 0.0
    for k in range(1, 9):
        z = oracles.sum_zeta(2 * k, 1e-12).value
        worst = _max(worst, abs(float(eta_even(k)) - (1.0 - 2.0 ** (1 - 2 * k)) * z))
        worst = _max(worst, abs(float(lambda_even(k)) - (1.0 - 2.0 ** (-2 * k)) * z))
    return worst


def _four_routes(
    closed: Callable, table: Callable, oracle: Callable, grid: Sequence[float], ks: range, table_max: int
) -> float:
    """Spread of the complex, taylor, oracle and (for k <= table_max) table routes."""
    worst = 0.0
    for mu in grid:
        for k in ks:
            vals = [closed(k, mu, method=method) for method in ("complex", "taylor")]
            vals.append(oracle(k, mu, N=10000).value)
            if k <= table_max:
                vals.append(table(k, mu))
            worst = _max(worst, _worst(abs(a - b) for a in vals for b in vals))
    return worst


def _theta_sums(rng: random.Random) -> float:
    worst = 0.0
    for theta in _THETA_GRID:
        r = oracles.sum_inverse_square(theta, 100000)
        sp = oracles.sinpi(theta)
        worst = _max(worst, abs(r.value - math.pi ** 2 / (sp * sp)) / r.error_bound)
        c = oracles.sum_cotangent(theta, 100000)
        target = 0.0 if theta == 0.5 else math.pi * oracles.cospi(theta) / sp
        worst = _max(worst, abs(c.value - target) / c.error_bound)
    return worst


def _herglotz_g_decay(rng: random.Random) -> float:
    _, g1 = oracles.herglotz_residual(0.3, 10000)
    _, g2 = oracles.herglotz_residual(0.3, 100000)
    if not g1 <= 1e-6:
        return math.inf
    # decay under a 10x rerun, with a roundoff floor allowance
    return 0.0 if g2 <= max(g1, 2e-12) else g2


def _bound_honesty(rng: random.Random) -> float:
    worst = 0.0
    cases = [
        (oracles.sum_Z, (2, 0.7)),
        (oracles.sum_Z, (5, -1.5)),
        (oracles.sum_Ztilde, (1, math.pi)),
        (oracles.sum_Ztilde, (4, 0.4)),
        (oracles.sum_inverse_square, (0.25,)),
    ]
    for fn, args in cases:
        small = fn(*args, N=2000)
        big = fn(*args, N=20000)
        worst = _max(worst, abs(small.value - big.value) / small.error_bound)
    return worst


_CLOSED_VS_ORACLE = [
    _Check("even zeta closed forms vs series oracle, k <= 10", 1.0,
           lambda rng: _closed_vs_series(zeta_even, oracles.sum_zeta, range(1, 11), 0),
           _BOUND_NOTE),
    _Check("odd beta closed forms vs series oracle, k <= 8", 1.0,
           lambda rng: _closed_vs_series(beta_odd, oracles.sum_beta, range(0, 9), 1),
           _BOUND_NOTE),
    _Check("eta and lambda closed forms vs scaled zeta oracle", 1e-12, _eta_lambda_agreement),
    _Check("alternating lattice sum, four routes on the acceptance grid", 1e-7,
           lambda rng: _four_routes(closed_forms.Z, closed_forms.Z_table, oracles.sum_Z,
                                    _Z_MU_GRID, range(0, 9), 6)),
    _Check("even lattice sum, four routes on the acceptance grid", 1e-7,
           lambda rng: _four_routes(closed_forms.Ztilde, closed_forms.Ztilde_table, oracles.sum_Ztilde,
                                    _ZTILDE_MU_GRID, range(1, 9), 7)),
    _Check("degenerate even lattice sum vs paired oracle", 1e-6,
           lambda rng: _worst(abs(closed_forms.Ztilde0(mu) - oracles.sum_Ztilde(0, mu, N=10000).value)
                              for mu in _ZTILDE_MU_GRID)),
    _Check("inverse-square and cotangent sums vs closed forms", 1.0, _theta_sums,
           "defect is |sum - closed| / certified bound"),
    _Check("functional-equation residual of the closed form", 1e-12,
           lambda rng: _worst(oracles.herglotz_residual(theta, 1000)[0] for theta in _THETA_GRID)),
    _Check("functional-equation residual of the truncated sum decays", 1e-6, _herglotz_g_decay),
    _Check("pole-subtracted limit at small argument", 1e-4,
           lambda rng: abs(oracles.herglotz_limit(1e-3, 1000000) - math.pi ** 2 / 3.0)),
    _Check("certified bounds honored under tenfold rerun", 1.0, _bound_honesty,
           "defect is |value_N - value_10N| / bound_N"),
]


def _pi_power(zero: bool, numer: int, m: int, power: int) -> PiScalar:
    """numer / m**power * pi**-power, or 0 where the kernel is orthogonal."""
    return PiScalar(0) if zero else PiScalar(Fraction(numer, m ** power), -power)


def _exact_table(got: Callable, want: Callable, ks: range, ms: range) -> bool:
    return all(got(k, m) == want(k, m) for k in ks for m in ms)


def _cosine_kernel_table(rng: random.Random) -> bool:
    return _exact_table(
        lambda k, m: quadrature.exact_poly_trig_integral(bernoulli_poly(2 * k), quadrature.OscKernel.cos(m)),
        lambda k, m: _pi_power(m % 2 == 1, (-1) ** (k + 1) * math.factorial(2 * k), m, 2 * k),
        range(1, 9), range(1, 13),
    )


def _sine_kernel_table(rng: random.Random) -> bool:
    return _exact_table(
        lambda k, m: quadrature.exact_poly_trig_integral(euler_poly(2 * k), quadrature.OscKernel.sin(m)),
        lambda k, m: _pi_power(m % 2 == 0, 2 * (-1) ** k * math.factorial(2 * k), m, 2 * k + 1),
        range(0, 9), range(1, 13),
    )


def _j_tables(rng: random.Random) -> bool:
    return _exact_table(
        lambda k, m: quadrature.j_integral(k, m, "bernoulli_odd"),
        lambda k, m: _pi_power(m % 2 == 1, (-1) ** (k + 1) * math.factorial(2 * k + 1), m, 2 * k + 1),
        range(0, 9), range(1, 13),
    ) and _exact_table(
        lambda k, m: quadrature.j_integral(k, m, "euler_odd"),
        lambda k, m: _pi_power(m % 2 == 0, 2 * (-1) ** (k + 1) * math.factorial(2 * k + 1), m, 2 * k + 2),
        range(0, 9), range(0, 13),
    )


def _ladder_recurrence(rng: random.Random) -> bool:
    def want(k: int, m: int) -> PiScalar:
        prev = quadrature.exact_poly_trig_integral(bernoulli_poly(2 * k - 2), quadrature.OscKernel.cos(m))
        scaled = prev * Fraction(-(2 * k) * (2 * k - 1), m * m)
        return PiScalar(scaled.coeff, scaled.pi_power - 2)

    return _exact_table(
        lambda k, m: quadrature.exact_poly_trig_integral(bernoulli_poly(2 * k), quadrature.OscKernel.cos(m)),
        want, range(2, 9), range(1, 13),
    )


def _exp_kernel_vs_formula(rng: random.Random) -> float:
    # E_k(x; e^(i mu)) integrated monomial by monomial, with
    # int_0^1 x**i e^(a x) dx = (e^a - i * [same for i - 1]) / a
    worst = 0.0
    with mpmath.workdps(DEFAULT_DPS):
        for mu in (0.0, 0.7, -0.7, 2.0, -2.0):
            for k in range(0, 9):
                q = apostol_euler_poly(k, mpmath.expj(mpmath.mpf(mu)))
                for m in range(-8, 9):
                    a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
                    ea = mpmath.exp(a)
                    moment = (ea - 1) / a
                    want = q.coeffs[0] * moment
                    for i, c in enumerate(q.coeffs[1:], 1):
                        moment = (ea - i * moment) / a
                        want += c * moment
                    got = quadrature.exact_apostol_integral(k, m, mu)
                    worst = _max(worst, float(abs(got - want) / abs(want)))
    return worst


def _quad_poly_exactness(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(6):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(11)]
        p = Poly(coeffs)
        fc = [float(c) for c in p.coeffs]
        got = quadrature.adaptive_integrate(lambda x: _horner(fc, x, 0.0), 1e-12)
        worst = _max(worst, abs(got - float(poly_integral_01(p))))
    return worst


def _integral_vs_series(integral: Callable, series: Callable, ks: range, shift: int) -> float:
    """|integral(k) - series(2k + shift)|, the quadrature route against the oracle."""
    return _worst(abs(integral(k, 1e-8) - series(2 * k + shift, 1e-10).value) for k in ks)


_INTEGRALS = [
    _Check("even-degree polynomial vs cosine kernel, exact table", _EXACT, _cosine_kernel_table),
    _Check("even-degree polynomial vs sine kernel, exact table", _EXACT, _sine_kernel_table),
    _Check("odd-degree integral tables, both families", _EXACT, _j_tables),
    _Check("two-step reduction recurrence of the exact ladder", _EXACT, _ladder_recurrence),
    _Check("exponential-kernel integral of E_k(x; lambda) vs closed form on the grid", 1e-10,
           _exp_kernel_vs_formula),
    _Check("one Gauss-Legendre panel reproduces polynomial integrals", 1e-12, _quad_poly_exactness),
    _Check("odd zeta values: quadrature route vs series oracle", 1e-7,
           lambda rng: _integral_vs_series(quadrature.zeta_odd_integral, oracles.sum_zeta, range(1, 4), 1)),
    _Check("even beta values: quadrature route vs series oracle", 1e-7,
           lambda rng: _integral_vs_series(quadrature.beta_even_integral, oracles.sum_beta, range(0, 3), 2)),
]


def _expansion(kind: str, target: Callable[[int], Poly], rng: random.Random) -> float:
    """Truncated expansion of kind against its polynomial on a grid of [0, 1]."""
    worst = 0.0
    for k in range(1, 4):
        poly = target(k)
        for x in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            got = oracles.hurwitz_partial(kind, k, float(x), 100000)
            want = float(poly_eval(poly, x))
            worst = _max(worst, abs(got - want))
            # degenerate rows must come out as exact zeros
            if want == 0.0 and float(x) in (0.0, 0.5, 1.0) and got != 0.0:
                return math.inf
    return worst


# row name -> (hurwitz_partial kind, the polynomial of degree-index k it expands)
_EXPANSIONS = {
    "cosine expansion of even-degree polynomials": ("B_even", lambda k: bernoulli_poly(2 * k)),
    "sine expansion of odd-degree polynomials": ("B_odd", lambda k: bernoulli_poly(2 * k + 1)),
    "odd-harmonic sine expansion, even degree": ("E_even", lambda k: euler_poly(2 * k)),
    "odd-harmonic cosine expansion, odd degree": ("E_odd", lambda k: euler_poly(2 * k - 1)),
}

_HURWITZ = [
    _Check(name, 1e-4, functools.partial(_expansion, kind, target))
    for name, (kind, target) in _EXPANSIONS.items()
]

# suite name (as the CLI spells it) -> its table
_TABLES = {
    "identities": _IDENTITIES,
    "closed-vs-oracle": _CLOSED_VS_ORACLE,
    "integrals": _INTEGRALS,
    "hurwitz": _HURWITZ,
}


def _run(table: Sequence[_Check], seed: int) -> List[CheckResult]:
    """Run the checks of one table in order with one rng seeded by seed, an
    integer >= 0."""
    rng = random.Random(_check_int(seed, "seed", 0))
    out: List[CheckResult] = []
    for check in table:
        exact = check.tol is _EXACT
        limit = 0.0 if exact else check.tol
        try:
            value = check.fn(rng)
            defect = float(not value) if exact else float(value)
        except ArithmeticError as exc:
            out.append(CheckResult(check.name, math.inf, limit, False, str(exc)))
        else:
            out.append(CheckResult(check.name, defect, limit, defect <= limit, check.note))
    return out


def run_identities(seed: int = 42) -> List[CheckResult]:
    return _run(_TABLES["identities"], seed)


def run_closed_vs_oracle(seed: int = 42) -> List[CheckResult]:
    return _run(_TABLES["closed-vs-oracle"], seed)


def run_integrals(seed: int = 42) -> List[CheckResult]:
    return _run(_TABLES["integrals"], seed)


def run_hurwitz(seed: int = 42) -> List[CheckResult]:
    return _run(_TABLES["hurwitz"], seed)


def run_all(seed: int = 42) -> List[CheckResult]:
    out: List[CheckResult] = []
    for run in (run_identities, run_closed_vs_oracle, run_integrals, run_hurwitz):
        out.extend(run(seed=seed))
    return out


def format_report(results: Sequence[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results) if results else 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = "%s  %-*s  defect %.3e  tol %.3e" % (status, width, r.name, r.defect, r.tol)
        if r.note:
            line += "  (%s)" % r.note
        lines.append(line)
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        "%d checks, %d passed, %d failed" % (len(results), len(results) - n_fail, n_fail)
    )
    return "\n".join(lines)
