"""Exact oscillatory-kernel integrals and the one-panel numeric route.

Exact ladders are checked against independently derived closed forms and
against mpmath numeric quadrature; the one-panel Gauss-Legendre integrator
is checked on integrals with known values, including removable
singularities, and on its 45 integrand calls.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from telesum import (
    OscKernel,
    PiScalar,
    Poly,
    QuadratureError,
    ToleranceUnreachable,
    adaptive_integrate,
    apostol_euler_poly,
    bernoulli_poly,
    beta_even_integral,
    collapse_pi_terms,
    euler_poly,
    exact_apostol_integral,
    exact_poly_trig_integral,
    j_integral,
    poly_derivative,
    poly_integral_01,
    sum_beta,
    sum_zeta,
    zeta_odd_integral,
)
from telesum import quadrature
from telesum.quadrature import MAX_INTEGRAL_K

F = Fraction


# ------------------------------------------------------------- exact ladders


def test_even_polynomial_cosine_kernel_table():
    # int_0^1 B_2k(x) cos(m pi x) dx: zero at odd m, signed factorial law at even m
    for k in range(1, 9):
        sign = 1 if k % 2 == 1 else -1
        for m in range(1, 13):
            got = exact_poly_trig_integral(bernoulli_poly(2 * k), OscKernel.cos(m))
            if m % 2 == 1:
                assert got == PiScalar(0, 0), (k, m)
            else:
                want = PiScalar(
                    F(sign * math.factorial(2 * k), m ** (2 * k)), -2 * k
                )
                assert got == want, (k, m)


def test_even_polynomial_sine_kernel_table():
    # int_0^1 E_2k(x) sin(m pi x) dx: zero at even m
    for k in range(0, 9):
        sign = 1 if k % 2 == 0 else -1
        for m in range(1, 13):
            got = exact_poly_trig_integral(euler_poly(2 * k), OscKernel.sin(m))
            if m % 2 == 0:
                assert got == PiScalar(0, 0), (k, m)
            else:
                want = PiScalar(
                    F(2 * sign * math.factorial(2 * k), m ** (2 * k + 1)),
                    -(2 * k + 1),
                )
                assert got == want, (k, m)


def test_exact_ladder_against_mpmath_quadrature():
    """Independent numeric check of a few exact ladder outputs."""
    cases = [
        (bernoulli_poly(4), OscKernel.cos(2)),
        (bernoulli_poly(2), OscKernel.cos(4)),
        (euler_poly(2), OscKernel.sin(1)),
        (euler_poly(0), OscKernel.sin(3)),
        (Poly([F(1), F(0), F(-2), F(5, 3)]), OscKernel.cos(1)),
        (Poly([F(0), F(1, 7), F(2)]), OscKernel.sin(2)),
    ]
    with mpmath.workdps(30):
        for p, kernel in cases:
            got = exact_poly_trig_integral(p, kernel)
            if isinstance(got, PiScalar):
                got_f = float(got.coeff) * math.pi**got.pi_power
            else:
                got_f = sum(float(c) * math.pi**n for c, n in got)
            trig = mpmath.cos if kernel.kind == "cos" else mpmath.sin
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coeffs]
            want = float(
                mpmath.quad(
                    lambda x: mpmath.polyval(coeffs[::-1], x)
                    * trig(kernel.m * mpmath.pi * x),
                    [0, 1],
                )
            )
            assert got_f == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_exact_ladder_at_degree_1200():
    # one integration by parts per degree: a recursive ladder overflows the
    # default recursion limit here, so this runs without raising it
    terms = exact_poly_trig_integral(Poly.monomial(1200), OscKernel.cos(3))
    # terms up to ~1e2796 in size cancel to ~1e-3, hence 4000 digits
    with mpmath.workdps(4000):
        got = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.pi**n for c, n in terms)
    with mpmath.workdps(60):
        want = mpmath.quad(
            lambda x: x**1200 * mpmath.cos(3 * mpmath.pi * x), mpmath.linspace(0, 1, 21)
        )
        assert abs(got - want) <= mpmath.mpf(10) ** -20 * abs(want)


def _derivative_ends(p):
    # (p(0), p(1)) of p and of each nonzero derivative, as Fractions
    ends = []
    while not p.is_zero:
        ends.append((p.coeffs[0], sum(p.coeffs)))
        p = poly_derivative(p)
    return ends


def _fraction_ladder(ends, m, cos):
    # the ladder as first written, in Fractions, from _derivative_ends(p)
    out = {}
    scale = F(1)
    power = -1
    for at0, at1 in ends:
        scale /= m
        if cos:
            scale = -scale
        else:
            boundary = at0 - (-1) ** m * at1
            if boundary:
                out[power] = boundary * scale
        power -= 1
        cos = not cos
    return collapse_pi_terms(out)


def test_integer_ladder_matches_the_fraction_ladder():
    rng = random.Random(20230)
    polys = [Poly()]
    for degree in range(0, 61):
        polys.append(
            Poly(F(rng.randint(-999, 999), rng.randint(1, 720)) for _ in range(degree + 1))
        )
    for p in polys:
        ends = _derivative_ends(p)
        for m in range(1, 14):
            for kernel, cos in ((OscKernel.cos(m), True), (OscKernel.sin(m), False)):
                assert exact_poly_trig_integral(p, kernel) == _fraction_ladder(ends, m, cos), (
                    p.degree, m, kernel.kind,
                )


def test_j_integral_tables():
    # odd-degree first family against sine kernels
    for k in range(0, 5):
        for m in range(1, 9):
            got = j_integral(k, m, "bernoulli_odd")
            if m % 2 == 1:
                assert got == PiScalar(0, 0), (k, m)
            else:
                sign = 1 if k % 2 == 1 else -1
                want = PiScalar(
                    F(sign * math.factorial(2 * k + 1), m ** (2 * k + 1)),
                    -(2 * k + 1),
                )
                assert got == want, (k, m)
    # odd-degree second family against cosine kernels; m = 0 is the plain mean
    for k in range(0, 5):
        assert j_integral(k, 0, "euler_odd") == PiScalar(
            poly_integral_01(euler_poly(2 * k + 1)), 0
        )
        for m in range(1, 9):
            got = j_integral(k, m, "euler_odd")
            if m % 2 == 0:
                assert got == PiScalar(0, 0), (k, m)
            else:
                sign = 1 if k % 2 == 1 else -1
                want = PiScalar(
                    F(2 * sign * math.factorial(2 * k + 1), m ** (2 * k + 2)),
                    -(2 * k + 2),
                )
                assert got == want, (k, m)


def test_kernel_validation():
    with pytest.raises(ValueError):
        OscKernel("tan", 1)
    with pytest.raises(ValueError):
        OscKernel("complex_exp", 1)
    with pytest.raises(ValueError):
        exact_poly_trig_integral(bernoulli_poly(2), OscKernel.cos(0))


def test_integral_rejections_name_their_rule():
    # math.pi lies 1.2e-16 below the pole at pi: valid, and next to it the
    # closed form 2 k! / ((2m+1) pi i - mu i)**(k+1) is about 1.3e32
    with mpmath.workdps(50):
        want = 2 / (1j * (mpmath.pi - mpmath.mpf(math.pi))) ** 2
    got = exact_apostol_integral(1, 0, math.pi)
    assert abs(got - complex(want)) <= 1e-15 * abs(want)
    rejections = (
        (lambda: exact_apostol_integral(1, 0, 3.5), "mu must lie in (-pi, pi)"),
        (lambda: exact_apostol_integral(1, 0, math.nan), "mu must be finite"),
        (lambda: j_integral(1, 1, "zeta_odd"), "family must be 'bernoulli_odd' or 'euler_odd'"),
        (lambda: j_integral(1, 0, "bernoulli_odd"), "bernoulli_odd requires m >= 1"),
        (lambda: j_integral(1, -1, "euler_odd"), "euler_odd requires m >= 0"),
    )
    rejections += tuple(
        (lambda tol=tol: adaptive_integrate(math.cos, tol), "tol must be a positive finite real")
        for tol in (0.0, -1e-8, math.inf, math.nan)
    )
    for call, message in rejections:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_exponential_kernel_ladder_against_mpmath():
    """int_0^1 E_k(x; e^{i mu}) e^{i((mu - (2m+1) pi) x} dx, checked numerically."""
    with mpmath.workdps(30):
        for k in (0, 1, 3):
            for m in (0, 1, -2):
                for mu in (0.0, 0.7, -2.0):
                    got = exact_apostol_integral(k, m, mu)
                    lam = mpmath.e ** (1j * mpmath.mpf(mu))
                    q = apostol_euler_poly(k, lam)
                    a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
                    want = complex(
                        mpmath.quad(
                            lambda x: q(mpmath.mpc(x)) * mpmath.e ** (a * x),
                            [0, 1],
                        )
                    )
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (k, m, mu)
    # Near lambda = -1 the coefficients of E_k exceed the integral by up to
    # 1e108, so integrate them exactly at 160 digits instead, each monomial
    # by int_0^1 x**i e^(a x) dx = gammainc(i + 1, 0, -a) / (-a)**(i + 1).
    with mpmath.workdps(160):
        for k, m, mu in ((30, -6, 3.13), (20, -6, 3.0), (30, 6, -3.13)):
            q = apostol_euler_poly(k, mpmath.expj(mpmath.mpf(mu)), dps=160)
            a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
            want = complex(sum(
                c * mpmath.gammainc(i + 1, 0, -a) / (-a) ** (i + 1)
                for i, c in enumerate(q.coeffs)
            ))
            got = exact_apostol_integral(k, m, mu)
            assert abs(got - want) <= 1e-10 * abs(want), (k, m, mu)


def test_exponential_kernel_closed_form_grid():
    # reference law: 2 k! / (-a)^(k+1) with a = i (mu - (2m+1) pi)
    for k in range(0, 9):
        for m in range(-8, 9):
            for mu in (0.0, 0.7, -0.7, 2.0, -2.0):
                got = exact_apostol_integral(k, m, mu)
                a = complex(0.0, mu - (2 * m + 1) * math.pi)
                want = 2 * math.factorial(k) / (-a) ** (k + 1)
                assert abs(got - want) <= 1e-10 * abs(want), (k, m, mu)


def test_exponential_kernel_beyond_the_double_range_raises():
    # 2 * 500! / (pi - 0.1)**501 is about 2e892: a typed error, never -infj;
    # at mu = 3.1 the first k past the range is 104
    for k, mu in ((500, 0.1), (104, 3.1)):
        with pytest.raises(ToleranceUnreachable, match="the imaginary part of the Apostol integral") as exc:
            exact_apostol_integral(k, 0, mu)
        assert exc.value.achieved == math.inf
    assert abs(exact_apostol_integral(103, 0, 3.1)) < 1.8e308


def test_exponential_kernel_screens_before_any_bracket(monkeypatch):
    # 2 * (10**6)! / (pi - 0.3)**(10**6 + 1) lies past the double range by
    # its logarithm alone: neither 10**6! nor a power of |d| is formed
    def unused(*args):
        raise AssertionError("formed %r" % (args,))

    monkeypatch.setattr(quadrature, "_power_bounds", unused)
    monkeypatch.setattr(quadrature.math, "factorial", unused)
    with pytest.raises(ToleranceUnreachable, match="beyond the double-precision range"):
        exact_apostol_integral(10**6, 0, 0.3)


# values so close to a rounding boundary that the bracket at 64 bits leaves
# both neighbouring doubles possible, so the retry at twice the bits decides
_RERUNS = [(31, -5, 2.4231455615950397), (1, -2, -1.3682572272468772),
           (17, 0, -2.0784264048691803), (25, -3, 0.16070688721159954)]


def test_exponential_kernel_retries_where_the_first_bracket_disagrees(monkeypatch):
    # the precs asked for, so the _RERUNS cannot go stale; their values are
    # checked against the truth below
    calls = []
    driver = quadrature._ziv_float

    def spy(bracket, log2):
        return driver(lambda prec: calls.append(prec) or bracket(prec), log2)

    monkeypatch.setattr(quadrature, "_ziv_float", spy)
    for k, m, mu in _RERUNS:
        calls.clear()
        exact_apostol_integral(k, m, mu)
        assert calls == [64, 128], (k, m, mu)


def _apostol_draws(seed, n):
    # k <= 84, |m| <= 50, mu across (-pi, pi), next to +-pi (math.pi itself
    # included) and subnormal
    rng = random.Random(seed)
    below = math.nextafter(math.pi, 0.0)
    for _ in range(n):
        sign = rng.choice((-1.0, 1.0))
        mu = rng.choice((
            rng.uniform(-math.pi, math.pi),
            sign * math.pi,
            sign * below,
            sign * math.pi * (1.0 - rng.random() * 1e-9),
            sign * 5e-324 * rng.randrange(1, 10**6),
        ))
        yield rng.randrange(85), rng.randrange(-50, 51), mu


def test_exponential_kernel_is_correctly_rounded():
    # 2 k! i^(k+1) / d^(k+1), d = mu - (2m+1) pi, against an 80-digit truth:
    # the nonzero part is the double nearest the truth, whose rational
    # int / int rounds once, and the other part an exact +0.0; an m past the
    # double range is an integer like any other
    checked = 0
    huge = [(0, 2**1020, 0.3), (0, -(10**400), 0.3), (3, 10**300, -0.3)]
    with mpmath.workdps(80):
        for k, m, mu in [*_apostol_draws(27, 600), *huge, *_RERUNS]:
            truth = 2 * mpmath.factorial(k) * mpmath.mpc(0, 1) ** (k + 1) / (
                mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi) ** (k + 1)
            part = truth.real if k % 2 else truth.imag
            num, den = (int(v) for v in mpmath.libmp.to_rational(part._mpf_))
            try:
                want = num / den
            except OverflowError:
                with pytest.raises(ToleranceUnreachable, match="beyond the double-precision range"):
                    exact_apostol_integral(k, m, mu)
                continue
            got = exact_apostol_integral(k, m, mu)
            value, other = (got.real, got.imag) if k % 2 else (got.imag, got.real)
            assert value.hex() == want.hex(), (k, m, mu)
            assert other == 0.0 and math.copysign(1.0, other) == 1.0, (k, m, mu)
            checked += 1
    assert checked >= 500


# ------------------------------------------------------------------ adaptive


def test_adaptive_integrator_on_knowns():
    got = adaptive_integrate(lambda x: x * x, 1e-12)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
    got = adaptive_integrate(lambda x: math.exp(x), 1e-12)
    assert got == pytest.approx(math.e - 1.0, abs=1e-11)


def test_stored_rule_is_numpys_gauss_legendre_rule_bit_for_bit():
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(15)
    want = [(t.hex(), w.hex()) for t, w in zip(nodes.tolist(), weights.tolist())]
    assert [(t.hex(), w.hex()) for t, w in quadrature._GL15] == want


def test_adaptive_integrator_removable_singularity():
    # sin(pi x)/x -> pi at the edge 0, where no node lands; the integral over
    # [0,1] is Si(pi)
    def f(x):
        return math.sin(math.pi * x) / x

    got = adaptive_integrate(f, 1e-10)
    want = float(mpmath.si(mpmath.pi))
    assert got == pytest.approx(want, abs=1e-9)


def test_adaptive_integrator_unreachable_tolerance():
    # a non-removable singularity keeps the rule on [0, 1] and on its halves
    # apart, so the panel must report a typed error
    def f(x):
        return 1.0 / x if x > 0.0 else 0.0

    with pytest.raises(QuadratureError) as exc:
        adaptive_integrate(f, 1e-6)
    assert isinstance(exc.value, ToleranceUnreachable)
    # no certified bound exists for an unsettled panel, and an integral
    # estimate is not one
    assert exc.value.achieved == math.inf
    with pytest.raises(QuadratureError) as exc:
        adaptive_integrate(lambda x: 1.0 / (x - 1.0 / 3.0), 1e-6)
    # the integral routes raise the same error where rounding exceeds tol
    with pytest.raises(ToleranceUnreachable) as exc:
        zeta_odd_integral(1, 1e-18)
    assert exc.value.achieved == math.inf
    # below roundoff, where bisection once ran to 265 panels for a value
    # 6.0e-16 off, the one panel raises too
    with pytest.raises(QuadratureError):
        zeta_odd_integral(2, 1e-16)


def test_adaptive_integrator_calls_f_at_most_45_times():
    # the rule on [0, 1] and on its two halves, whether the panel settles or not
    cases = [
        (lambda x: x * x, 1e-12),
        (lambda x: math.sin(math.pi * x) / x, 1e-10),
        (lambda x: 1.0 / x, 1e-6),
        (lambda x: 1.0 / (x - 1.0 / 3.0), 1e-6),
        (lambda x: math.nan, 1.0),
        (math.exp, 1e-300),
    ]
    for f, tol in cases:
        calls = []

        def g(x, f=f):
            calls.append(x)
            return f(x)

        try:
            adaptive_integrate(g, tol)
        except QuadratureError:
            pass
        assert len(calls) == 45, (tol, len(calls))
        assert 0.0 < min(calls) and max(calls) < 1.0


def test_zeta_odd_integrals_match_series_oracle():
    for k in (1, 2, 3):
        want = sum_zeta(2 * k + 1, 1e-10).value
        got = zeta_odd_integral(k, tol=1e-8)
        assert got == pytest.approx(want, abs=1e-7), k


def test_integral_routes_stop_where_the_factorial_leaves_the_double_range():
    # (2k+1)! is a double up to k = 84; past it the scale once raised a bare OverflowError
    assert MAX_INTEGRAL_K == 84
    with mpmath.workdps(30):
        zeta = float(mpmath.zeta(169))
        beta = float(mpmath.dirichlet(170, [0, 1, 0, -1]))
    assert abs(zeta_odd_integral(84) - zeta) <= 1e-13
    assert abs(beta_even_integral(84) - beta) <= 1e-13
    for route in (zeta_odd_integral, beta_even_integral):
        with pytest.raises(ValueError, match="k must be <= 84"):
            route(85)


def test_integral_routes_match_mpmath_at_every_k():
    for k in range(1, MAX_INTEGRAL_K + 1):
        with mpmath.workdps(30):
            zeta = float(mpmath.zeta(2 * k + 1))
        assert abs(zeta_odd_integral(k, 1e-12) - zeta) <= 1e-14 * zeta, k
    for k in range(0, MAX_INTEGRAL_K + 1):
        with mpmath.workdps(30):
            beta = float(mpmath.dirichlet(2 * k + 2, [0, 1, 0, -1]))
        assert abs(beta_even_integral(k, 1e-12) - beta) <= 1e-14 * beta, k


def test_both_routes_integrate_one_panel(monkeypatch):
    # each integrand has its singularity on an edge of [0, 1], so the route
    # needs no forced breakpoint: one panel of 3 x 15 nodes settles it at
    # every k and every tol down to 1e-15
    calls = []
    integrate = quadrature.adaptive_integrate

    def counting(f, tol):
        def g(x):
            calls.append(x)
            return f(x)

        return integrate(g, tol)

    monkeypatch.setattr(quadrature, "adaptive_integrate", counting)
    for route, least in ((zeta_odd_integral, 1), (beta_even_integral, 0)):
        for k in range(least, MAX_INTEGRAL_K + 1):
            for tol in (1e-6, 1e-12, 1e-15):
                calls.clear()
                route(k, tol)
                assert len(calls) == 45, (route.__name__, k, tol, len(calls))


def test_beta_even_integrals_match_series_oracle():
    for k in (0, 1, 2):
        want = sum_beta(2 * k + 2, 1e-10).value
        got = beta_even_integral(k, tol=1e-8)
        assert got == pytest.approx(want, abs=1e-7), k
