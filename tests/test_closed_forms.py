"""Closed-form constants and the shifted lattice sums.

Ground truth for the constants comes from mpmath's independent zeta /
Dirichlet L-series implementations, plus a handful of hand-derivable
exact anchors (values at 0, pi/2, pi).
"""

import hashlib
import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest

from telesum import (
    InternalConsistencyError,
    PiScalar,
    ToleranceUnreachable,
    Z,
    Z_table,
    Ztilde,
    Ztilde0,
    Ztilde_table,
    apostol_polys,
    beta_odd,
    bernoulli_number,
    classical_polys,
    closed_forms,
    cot_taylor_coeffs,
    ek_mu,
    ektilde_mu,
    ektilde_mu_imag_residue,
    eta_even,
    euler_number,
    exact_core,
    lambda_even,
    sec_taylor_coeffs,
    sum_Z,
    zeta_even,
)

from hurwitz_truth import truth_or_out_of_range, z_truth, ztilde_truth

F = Fraction


def _dirichlet_beta(s):
    return mpmath.dirichlet(s, [0, 1, 0, -1])


def test_zeta_even_exact_forms():
    assert zeta_even(1) == PiScalar(F(1, 6), 2)
    assert zeta_even(2) == PiScalar(F(1, 90), 4)
    assert zeta_even(3) == PiScalar(F(1, 945), 6)
    assert zeta_even(4) == PiScalar(F(1, 9450), 8)
    assert zeta_even(5) == PiScalar(F(1, 93555), 10)


def test_beta_odd_exact_forms():
    assert beta_odd(0) == PiScalar(F(1, 4), 1)
    assert beta_odd(1) == PiScalar(F(1, 32), 3)
    assert beta_odd(2) == PiScalar(F(5, 1536), 5)
    assert beta_odd(3) == PiScalar(F(61, 184320), 7)


def test_eta_lambda_exact_forms():
    assert eta_even(1) == PiScalar(F(1, 12), 2)
    assert eta_even(2) == PiScalar(F(7, 720), 4)
    assert eta_even(3) == PiScalar(F(31, 30240), 6)
    assert lambda_even(1) == PiScalar(F(1, 8), 2)
    assert lambda_even(2) == PiScalar(F(1, 96), 4)
    assert lambda_even(3) == PiScalar(F(1, 960), 6)


def _as_float(x):
    return float(x.coeff) * math.pi ** x.pi_power


def test_zeta_even_against_mpmath():
    with mpmath.workdps(30):
        for k in range(1, 11):
            want = float(mpmath.zeta(2 * k))
            assert _as_float(zeta_even(k)) == pytest.approx(want, rel=1e-13)


def test_beta_odd_against_mpmath():
    with mpmath.workdps(30):
        for k in range(0, 9):
            want = float(_dirichlet_beta(2 * k + 1))
            assert _as_float(beta_odd(k)) == pytest.approx(want, rel=1e-13)


def test_eta_lambda_scalings_against_mpmath():
    with mpmath.workdps(30):
        for k in range(1, 9):
            z = mpmath.zeta(2 * k)
            assert _as_float(eta_even(k)) == pytest.approx(
                float((1 - 2 ** (1 - 2 * k)) * z), rel=1e-13
            )
            assert _as_float(lambda_even(k)) == pytest.approx(
                float((1 - 2 ** (-2 * k)) * z), rel=1e-13
            )


def test_constant_floats_are_correctly_rounded():
    # the double nearest to the true value, not float(coeff) * math.pi ** n
    with mpmath.workprec(400):
        for k in range(1, 101):
            z = mpmath.zeta(2 * k)
            assert float(zeta_even(k)) == float(z), k
            assert float(eta_even(k)) == float(mpmath.altzeta(2 * k)), k
            assert float(lambda_even(k)) == float((1 - mpmath.mpf(2) ** (-2 * k)) * z), k
        for k in range(0, 101):
            assert float(beta_odd(k)) == float(_dirichlet_beta(2 * k + 1)), k
    assert float(zeta_even(1)).hex() == "0x1.a51a6625307d3p+0"
    assert float(zeta_even(32)) == 1.0


# ------------------------------------------------------------- lattice sums


def test_alternating_lattice_anchors():
    assert Z(0, 0.0) == pytest.approx(0.5, rel=1e-13)
    assert Z(2, 0.0) == pytest.approx(1.0 / 16.0, rel=1e-13)
    assert Z(0, math.pi / 2) == pytest.approx(math.sqrt(2) / 2, rel=1e-13)
    assert Z(1, math.pi / 2) == pytest.approx(math.sqrt(2) / 4, rel=1e-13)


def test_even_lattice_anchors():
    assert Ztilde(1, math.pi) == pytest.approx(0.25, rel=1e-13)
    assert Ztilde(2, math.pi) == pytest.approx(0.0, abs=1e-15)
    assert Ztilde0(math.pi / 2) == pytest.approx(-0.5, rel=1e-13)
    assert Ztilde0(math.pi) == pytest.approx(0.0, abs=1e-15)


def test_lattice_sums_are_scaled_carrier_derivatives():
    """Independent oracle: mpmath numeric differentiation, scaled by 2 k!."""
    for mu in (-1.8, -0.4, 0.9, 2.3):
        for k in range(0, 6):
            want = float(
                mpmath.diff(lambda u: mpmath.sec(u / 2), mpmath.mpf(mu), k)
                / (2 * mpmath.factorial(k))
            )
            assert Z(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-12)
    for mu in (0.7, 1.9, 3.6, 5.1):
        for k in range(1, 6):
            want = float(
                mpmath.diff(lambda u: -mpmath.cot(u / 2), mpmath.mpf(mu), k)
                / (2 * mpmath.factorial(k))
            )
            assert Ztilde(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-12)
    # deep k, where numeric differentiation is out of reach: Hurwitz zeta
    with mpmath.workdps(50):
        for k in (40, 60):
            for mu in (-1.8, -0.4, 0.9, 2.3):
                want = float(z_truth(k, mpmath.mpf(mu)))
                assert Z(k, mu) == pytest.approx(want, rel=1e-12), (k, mu)
            for mu in (0.7, 1.9, 3.6, 5.1):
                want = float(ztilde_truth(k, mpmath.mpf(mu)))
                assert Ztilde(k, mu) == pytest.approx(want, rel=1e-12), (k, mu)


def test_method_routes_agree():
    for mu in (-2.6, -1.1, 0.0, 0.6, 2.9):
        for k in range(0, 9):
            a = Z(k, mu, method="complex")
            b = Z(k, mu, method="taylor")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-11)
            if k <= 6:
                assert Z_table(k, mu) == pytest.approx(a, rel=1e-10, abs=1e-10)
    for mu in (0.4, 1.0, 2.0, math.pi, 4.0):
        for k in range(1, 9):
            a = Ztilde(k, mu, method="complex")
            b = Ztilde(k, mu, method="taylor")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-11)
            if k <= 7:
                assert Ztilde_table(k, mu) == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_table_periodicity_structure():
    # alternating lattice: antiperiodic under mu -> mu + 2 pi
    for k in range(0, 7):
        for mu in (0.3, -1.2, 2.0):
            assert Z_table(k, mu + 2 * math.pi) == pytest.approx(
                -Z_table(k, mu), rel=1e-11, abs=1e-12
            )
    # even lattice: periodic under mu -> mu + 2 pi
    for k in range(1, 8):
        for mu in (0.4, 2.0, math.pi):
            assert Ztilde_table(k, mu + 2 * math.pi) == pytest.approx(
                Ztilde_table(k, mu), rel=1e-11, abs=1e-12
            )


def test_domain_and_argument_errors():
    with pytest.raises(ValueError):
        Z(-1, 0.0)
    with pytest.raises(ValueError):
        Z(2, 3.5)  # computational routes need |mu| < pi
    with pytest.raises(ValueError):
        Ztilde(0, 1.0)
    with pytest.raises(ValueError):
        Ztilde(2, 0.0)
    with pytest.raises(ValueError):
        Ztilde0(-0.0)
    # no double is a pole of Z, and 4 * math.pi lies 4.9e-16 below 4 pi:
    # both are valid points, next to their poles
    with mpmath.workdps(50):
        for got, want in (
            (Z(2, math.pi), z_truth(2, mpmath.mpf(math.pi))),
            (Ztilde0(4 * math.pi), -mpmath.cot(mpmath.mpf(4 * math.pi) / 2) / 2),
        ):
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)
    for method in ("newton", "complex_route", "taylor_route"):
        with pytest.raises(ValueError, match="unknown method"):
            Z(1, 0.5, method=method)
    # the table route accepts wide mu (it is the documented way out there)
    assert math.isfinite(Z(2, 3.5, method="table"))


# ------------------------------------------- the certified derivative route

_EDGE_K = (0, 1, 30, 60, 100, 140, 170, 171)
_Z_EDGE_MU = (0.0, 0.7, -0.7, 3.0, -3.0, 3.1, -3.1, 3.14, -3.14)
_ZTILDE_EDGE_MU = (
    1e-3, -0.05, 0.3,                                # near 0
    math.pi, math.pi - 1e-3, math.pi + 0.2,          # near pi
    2 * math.pi - 0.01, 2 * math.pi + 1e-4,          # near 2 pi
)


def test_lattice_sums_match_hurwitz_truth_at_the_edges():
    with mpmath.workdps(50):
        for k in _EDGE_K:
            for mu in _Z_EDGE_MU:
                m = mpmath.mpf(mu)
                truth_or_out_of_range(Z, k, mu, z_truth(k, m))
            for mu in _ZTILDE_EDGE_MU if k else ():
                truth_or_out_of_range(Ztilde, k, mu, ztilde_truth(k, mpmath.mpf(mu)))


def test_odd_alternating_sums_vanish_at_zero():
    # the terms at m and -1 - m cancel exactly; at mu = 0 the complex route's
    # point is -1/2, where its fixed-point Horner is exact, so the sum comes
    # out 0 also at k >= 577, where the residue check's allowance is 0
    for k in (1, 31, 51, 61, 171, 577, 617):
        for method in ("auto", "complex", "taylor"):
            assert Z(k, 0.0, method=method) == 0.0


def test_odd_sums_keep_their_relative_accuracy_next_to_mu_zero():
    # at odd k Z vanishes like mu: a route held to an absolute allowance
    # alone gives 0.0 for Z(1, 1e-61) and ek_mu(1, 1e-61), is off by 1.2e-13
    # at Z(1, 1e-30), and gives -5.5e-81 for Z(41, -3e-310), whose value is
    # below the double range.  Subnormal results add half their unit
    half_unit = mpmath.ldexp(1, -1075)
    for k in (1, 3, 41):
        for mu in (1e-30, -1e-30, 1e-61, -1e-61, 1e-200, -1e-200, 3e-310, -3e-310):
            rel = apostol_polys._SEC_ROWS.value(k, math.tan(mu / 2))[1]
            r = sum_Z(k, mu)
            with mpmath.workdps(30):
                want = z_truth(k, mu)
                assert abs(r.value - want) <= r.error_bound, (k, mu)
                assert abs(Z(k, mu) - want) <= rel * abs(want) + half_unit, (k, mu)
                want *= 2 * math.factorial(k)
                assert abs(ek_mu(k, mu) - want) <= rel * abs(want) + half_unit, (k, mu)


def test_odd_sums_next_to_mu_zero_are_the_doubles_nearest_the_truth():
    # at odd k the complex route runs to 40 digits of the lower bound on |Z|,
    # not to the check's rel |Z|, so its one rounding stays as safe next to
    # the zero as elsewhere; held to rel |Z| instead, 7 of these 27 miss
    for k in (41, 101, 217):
        for mu in (1e-61, -7e-100, 3e-310):
            with mpmath.workdps(60):
                want = z_truth(k, mpmath.mpf(mu))
                scaled = _nearest_double(2 * math.factorial(k) * want)
                want = _nearest_double(want)
            assert (Z(k, mu), Z(k, mu, method="taylor"), ek_mu(k, mu)) == (want, want, scaled), (k, mu)


def _hexes(values):
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


def test_taylor_route_bits_are_pinned():
    # recorded from the truncated-series route the derivative-polynomial rows
    # replaced: mid-range mu and mu within 1e-6 of a pole; each Z and Ztilde
    # value is the double nearest the truth at 60 + k digits
    near_sec, near_cot = math.pi - 1e-6, 1e-6
    digests = (
        (sec_taylor_coeffs, 0.7, "97adc03fea1ce08c52fd0eb55240f56e6313a34b24e234223a5461f97e60bb57"),
        (sec_taylor_coeffs, near_sec, "ddd30255cca6848cbbf3285f33b084debed46c25850d9e81e979744a98ba618a"),
        (cot_taylor_coeffs, 1.0, "df3c2e7f050c793af0cd85fc65461a594c7aa0e8b341638846e08f99884e0083"),
        (cot_taylor_coeffs, near_cot, "f052f68b163884f6dd0b5fa514bb56ed2d9b17a904a2a779752acc3613a0ebdf"),
    )
    for coeffs, mu, digest in digests:
        assert _hexes(coeffs(mu, 40)) == digest, (coeffs.__name__, mu)
    pinned = {
        (Z, 0, 0.7): "0x1.1085b498e8f2cp-1",
        (Z, 7, 0.7): "0x1.9410fd7c3190fp-11",
        (Z, 30, 0.7): "0x1.0e20eed91be2ep-40",
        (Z, 171, 0.7): "0x1.68aadea2587e8p-222",
        (Z, 0, near_sec): "0x1.e847fffdda1ffp+19",
        (Z, 7, near_sec): "0x1.5e5319fdc7e5ap+159",
        (Z, 30, near_sec): "0x1.d6affe05c58f1p+617",
        (Ztilde, 1, 1.0): "0x1.1671a0c0f69f0p+0",
        (Ztilde, 7, 1.0): "0x1.00001dd463a26p+0",
        (Ztilde, 30, 1.0): "-0x1.0000000000000p+0",
        (Ztilde, 171, 1.0): "0x1.0000000000000p+0",
        (Ztilde, 1, near_cot): "0x1.d1a94a20002abp+39",
        (Ztilde, 7, near_cot): "0x1.5e531a0a1c875p+159",
        (Ztilde, 30, near_cot): "-0x1.d6affe45f819bp+617",
    }
    for (f, k, mu), bits in pinned.items():
        assert f(k, mu, method="taylor").hex() == bits, (f.__name__, k, mu)
    for f, mu in ((Z, near_sec), (Ztilde, near_cot)):
        with pytest.raises(ToleranceUnreachable):
            f(171, mu, method="taylor")


def test_k_past_the_certified_range_is_a_domain_error():
    assert closed_forms.MAX_K == 618
    with pytest.raises(ValueError, match="618"):
        Z(619, 0.5)
    with pytest.raises(ValueError, match="618"):
        Ztilde(619, 1.0)


# Outcomes about the first k whose value leaves the double range, recorded
# from the routes before the a-priori checks: per (function, k), a value's
# float.hex or T for ToleranceUnreachable at each of the function's mus.
# Each Z and Ztilde value is the double nearest the Hurwitz truth at 60 + k
# digits.
# Past MAX_K = 618 the carriers raise Z's ValueError
T = "ToleranceUnreachable"
_RANGE_EDGE_MUS = {
    Z: (3.1, -3.1, 3.0, 0.1),
    Ztilde: (0.001, -0.001, 3.0, 6.0),
    ektilde_mu: (math.pi, 3.0, 0.1, -6.0),
}
_RANGE_EDGE_OUTCOMES = {
    (Z, 221): ('0x1.59276393fe39fp+1018', '-0x1.59276393fe39fp+1018', '0x1.0ea8ba93d9692p+626', '0x1.a825405fa4c39p-357'),
    (Z, 222): ('0x1.0353777a3cf6fp+1023', '0x1.0353777a3cf6fp+1023', '0x1.dde2246e4ad57p+628', '0x1.16e5ba9d48b41p-358'),
    (Z, 223): (T, T, '0x1.a5e1d8407e15bp+631', '0x1.6ec7109b67171p-360'),
    (Z, 224): (T, T, '0x1.74718ee55f416p+634', '0x1.e259994d0be87p-362'),
    (Z, 617): (T, T, T, '0x1.298a6ce4849dep-992'),
    (Z, 618): (T, T, T, '0x1.874bc394d115ap-994'),
    (Ztilde, 101): ('0x1.6c8e5ca23901bp+1016', '0x1.6c8e5ca23901bp+1016', '0x1.42aeaac2c1d4ep-162', '0x1.9416effed466ep+185'),
    (Ztilde, 102): (T, T, '-0x1.ae28f09369242p-164', '0x1.64bc6beae8c66p+187'),
    (Ztilde, 103): (T, T, '0x1.1ed2ecb670cd8p-165', '0x1.3aee7e27f149ep+189'),
    (Ztilde, 104): (T, T, '-0x1.7e5ec55259cedp-167', '0x1.1606adb34a315p+191'),
    (Ztilde, 617): (T, T, '0x1.685474391937fp-980', T),
    (Ztilde, 618): (T, T, '-0x1.e0709af6cc4a9p-982', T),
    (ektilde_mu, 216): ('-0x1.6da0abda1accdp+965', T, T, T),
    (ektilde_mu, 217): ('0x1.4b772d3493200p+1018', T, T, T),
    (ektilde_mu, 218): ('-0x1.afcc1b41dcf20p+977', T, T, T),
    (ektilde_mu, 219): (T, T, T, T),
    (ektilde_mu, 220): ('-0x1.03a8fab2439c1p+990', T, T, T),
    (ektilde_mu, 221): (T, T, T, T),
}


def _range_outcome(f, k, mu):
    try:
        return f(k, mu).hex()
    except ToleranceUnreachable as exc:
        assert exc.achieved == math.inf
        return T


def test_values_past_the_double_range_raise_before_building_a_route(monkeypatch):
    raises = []
    for (f, k), wants in _RANGE_EDGE_OUTCOMES.items():
        for mu, want in zip(_RANGE_EDGE_MUS[f], wants):
            assert _range_outcome(f, k, mu) == want, (f.__name__, k, mu)
            if want == T:
                raises.append((f, k, mu))

    class RouteBuilt(Exception):
        pass

    def no_route(*args):
        raise RouteBuilt

    for name in ("_ek_complex", "_ektilde_complex", "_taylor"):
        monkeypatch.setattr(apostol_polys, name, no_route)
    # the certified value, times 2*k! for a carrier, decides every raise
    for f, k, mu in raises:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _range_outcome(f, k, mu)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01, (f.__name__, k, mu, best)
    for mu in _RANGE_EDGE_MUS[ektilde_mu]:
        with pytest.raises(ValueError, match="k must be <= 618, where"):
            ektilde_mu(1001, mu)


def _nearest_double(x):
    man, exp = x.man_exp
    return math.copysign(float(F(int(man)) * F(2) ** exp), x)


def _single_rounding_cases():
    # 50 draws per family with k <= 60, a quarter within 1e-6 of a pole
    # (k <= 40 there, so the value stays in range), plus k = 171, 300 and 617
    # at a mu where the value is in range.  Odd-k Z next to mu = 0 is left
    # out: test_odd_sums_next_to_mu_zero_are_the_doubles_nearest_the_truth
    # covers it
    rng = random.Random(21)
    cases = [(Z, k, 0.1) for k in (171, 300, 617)] + [(Ztilde, k, 3.0) for k in (171, 300, 617)]
    for f, poles, lowest in ((Z, (math.pi, -math.pi), 0), (Ztilde, (0.0, 2 * math.pi, -2 * math.pi), 1)):
        for _ in range(50):
            if rng.random() < 0.25:
                k = rng.randint(lowest, 40)
                pole, d = rng.choice(poles), rng.uniform(2e-9, 1e-6)
                # toward 0 from a pole at +-pi or +-2*pi, either side of 0
                mu = pole - math.copysign(d, pole) if pole else rng.choice((d, -d))
            else:
                k = rng.randint(lowest, 60)
                mu = rng.uniform(-math.pi, math.pi)
            if not (f is Z and k % 2 and abs(mu) < 1e-3):
                cases.append((f, k, mu))
    return cases


def test_lattice_sums_are_the_doubles_nearest_the_truth():
    # both routes are good to at least 40 digits and rounded once, so each
    # value is the double nearest the 80-digit truth; rounding the route to a
    # double before dividing by 2*k! misses it for about a third of them
    for f, k, mu in _single_rounding_cases():
        with mpmath.workdps(80):
            m = mpmath.mpf(mu)
            want = _nearest_double((ztilde_truth if f is Ztilde else z_truth)(k, m))
        for method in ("complex", "taylor"):
            assert f(k, mu, method=method) == want, (f.__name__, k, mu, method)


def test_table_method_reaches_the_tables_and_rejections_name_their_rule():
    assert Ztilde(3, 1.0, method="table") == Ztilde_table(3, 1.0)
    assert Z(3, 1.0, method="table") == Z_table(3, 1.0)
    # the tables' points next to a pole, once inside the guard band, are
    # valid; their ratios of doubles stay within a few ulps of the truth
    with mpmath.workdps(50):
        for got, want in (
            (Z_table(1, -math.pi), z_truth(1, mpmath.mpf(-math.pi))),
            (Ztilde(1, 4 * math.pi, method="table"), ztilde_truth(1, mpmath.mpf(4 * math.pi))),
        ):
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)
    rejections = (
        (lambda: Z_table(7, 0.5), "table covers k = 0..6 only"),
        (lambda: Z_table(1, math.nan), "mu must be finite"),
        (lambda: Ztilde_table(0, 1.0), "table covers k = 1..7 only"),
        (lambda: Ztilde_table(8, 1.0), "table covers k = 1..7 only"),
        (lambda: Ztilde_table(1, math.inf), "mu must be finite"),
        (lambda: Ztilde(1, 0.0, method="table"), "mu = 0.0 is a pole"),
        (lambda: Z(1, -3.5), "mu must lie in (-pi, pi)"),
        (lambda: Ztilde(2, -0.0), "mu = -0.0 is a pole"),
        (lambda: Z(1, math.nan), "mu must be finite"),
        (lambda: Z(2, -math.inf, method="taylor"), "mu must be finite"),
        (lambda: Ztilde(1, math.nan), "mu must be finite"),
        (lambda: Ztilde0(math.inf), "mu must be finite"),
        (lambda: ek_mu(1, math.nan), "mu must be finite"),
        (lambda: ektilde_mu(1, -math.inf), "mu must be finite"),
    )
    for call, message in rejections:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_derivative_polynomial_rows_are_secant_and_tangent_numbers():
    # Q_k(0) = sec^(k)(0) = |E_k| for even k; P_k(0) = cot^(k)(pi/2) =
    # -tan^(k)(0) = -T_k for odd k, with T_k the tangent numbers.  The rows
    # are an engine independent of classical_polys' triangle, so this checks
    # the Euler and Bernoulli numbers and E_k(0) = (-1)**((k+1)/2) T_k / 2**k
    apostol_polys._SEC_ROWS.value(300, 0.0)
    apostol_polys._COT_ROWS.value(300, 0.0)
    for k in range(0, 301):
        q = apostol_polys._SEC_ROWS.exact[k]
        p = apostol_polys._COT_ROWS.exact[k]
        assert len(q) == k + 1 and len(p) == k + 2
        assert all(c >= 0 for c in q) and all(c * (-1) ** k >= 0 for c in p)
        assert q[-1] == p[-1] * (-1) ** k == math.factorial(k)
        if k % 2 == 0:
            assert q[0] == abs(euler_number(k)), k
        else:
            n = k + 1
            tangent = (-1) ** (n // 2 - 1) * 2 ** n * (2 ** n - 1) * bernoulli_number(n) / n
            assert p[0] == -tangent, k
            assert classical_polys._euler_zero(k) == F(p[0] * (-1) ** (n // 2 - 1), 2 ** k), k


def test_certified_bound_holds_against_hurwitz_truth():
    # the derivative-polynomial value alone, against 60-digit truth
    rows = apostol_polys._SEC_ROWS, apostol_polys._COT_ROWS
    with mpmath.workdps(60):
        for k in (1, 2, 7, 20, 41, 80, 150, 250):
            for mu in (0.3, -1.3, 2.2, 3.05, -3.1):
                value, rel = rows[0].value(k, math.tan(mu / 2))
                value /= math.cos(mu / 2)
                want = z_truth(k, mpmath.mpf(mu))
                if abs(want) < sys.float_info.max:
                    assert abs(value - want) <= rel * abs(want), (k, mu)
            for mu in (0.02, 1.1, math.pi, 4.0, -6.2):
                value, rel = rows[1].value(k, 1 / math.tan(mu / 2))
                value = value if k % 2 else -value
                want = ztilde_truth(k, mpmath.mpf(mu))
                if abs(want) < sys.float_info.max:
                    assert abs(value - want) <= rel * abs(want), (k, mu)


def _scaled_allowance(k, dist, dps):
    # 2*k! times the _log_floor allowance, unclamped: near a pole at large k
    # it passes exp(700), where the float floor of Z and Ztilde stops
    return 2 * math.factorial(k) * 4 * (k + 1) * mpmath.mpf(10) ** -dps * mpmath.mpf(dist) ** -(k + 1)


def _route_value(route, k, mu, poles):
    # (z, dist): a route's integers (re, im, exp) as the mpmath complex
    # (re + i im) 2**exp, at the active precision, and mu's distance to the pole
    mu, dist, n = exact_core._pole_distance(mu, "mu", poles)[:3]
    re, im, exp = route(k, mu, dist, n)
    return mpmath.mpc(mpmath.ldexp(re, exp), mpmath.ldexp(im, exp)), dist


def test_residue_allowance_neither_underflows_nor_saturates():
    # the float floor is 0 from k = 577 at dist = pi and stops at exp(700)
    # near a pole; the allowance the residue rule reads, a 2**e, does neither
    for k in (0, 1, 40, 576, 577, 600, closed_forms.MAX_K):
        for dist in (math.pi, 3.0, 1.0, 1e-3, 1e-9):
            a, e = apostol_polys._allowance(k, dist)
            want = _scaled_allowance(k, dist, apostol_polys.DEFAULT_DPS)
            assert a > 0 and abs(mpmath.ldexp(a, e) / want - 1) < 1e-9, (k, dist)


def test_complex_routes_stay_a_tenth_under_the_floor_near_every_pole():
    # absolute error of 2*k! times each sum, against 100-digit truth; the
    # explicit sums cancel most next to the poles at +-pi (Z) and 0, +-2 pi
    # (Ztilde), and the working precision rises to match
    near = 1e-7
    cases = (
        (apostol_polys._ek_complex, z_truth,
         (math.pi - near, -(math.pi - near), 1e-6, 1e-8, 0.7, -3.0), exact_core._SEC),
        (apostol_polys._ektilde_complex, ztilde_truth,
         (1e-6, 1e-8, -near, 2 * math.pi - near, -(2 * math.pi - near), math.pi, 4.0), exact_core._COT),
    )
    for route, truth, mus, poles in cases:
        for k in (1, 21, 60, 160, 250):
            for mu in mus:
                with mpmath.workdps(100):
                    z, dist = _route_value(route, k, mu, poles)
                    want = 2 * math.factorial(k) * truth(k, mpmath.mpf(mu))
                    allowed = _scaled_allowance(k, dist, apostol_polys.DEFAULT_DPS) / 10
                    assert abs(z - want) <= allowed, (route.__name__, k, mu)


def test_fixed_point_bits_cover_the_a_priori_bound(monkeypatch):
    # the bounds of _route_precision and _half_angle at the bits the routes
    # and the point run at, formed from the truth of the next lattice sum
    # rather than from its upper bound.  Complex route: below |x| = 2, k
    # truncated products of 2**(1/2 - P), amplified by |x|**j, and one more
    # for Ztilde's factor cot - i; past it, at x 2**-E, sqrt(5) 2**(E (k -
    # j)) |x|**j per step and 2 sqrt(2) 2**(E (k+1)) for Ztilde's factor;
    # the point within 0.51 units of 2**(E - P), moving V = 2*k! times the
    # sum by |dV/dmu| |dmu/dy|, dV/dmu = 2 (k+1)! times the next sum, plus
    # |V| |sin mu| on Z; and Z's sec(mu/2) within w 2**-w relative.  Taylor
    # route: 2n 2**-P from its Horner over the row's n + 1 parity terms, and
    # w 2**-w from t once per degree and from sec, relative to |V|.  Each
    # under a tenth of the allowance, with no more than _ROUTE_GUARD bits
    # past DEFAULT_DPS's.  The point itself: the rounding's half unit plus
    # t's w 2**-w relative error stays within the 0.51 units used above.
    # The measured errors stay far below these bounds (the tests around
    # this one), so this is the test that holds the guard bits
    runs = []
    horner, half_angle, sin_cos = apostol_polys._fixed_horner, apostol_polys._half_angle, apostol_polys._sin_cos

    def recording_horner(row, y, bits, shift):
        runs.append(("horner", bits, shift))
        return horner(row, y, bits, shift)

    def recording_point(mu, n, dist, poles, bits):
        runs.append(("point", bits))
        half_angle.cache_clear()  # so the series runs, and is recorded, each time
        return half_angle(mu, n, dist, poles, bits)

    def recording_series(a, f, w):
        runs.append(("series", w))
        return sin_cos(a, f, w)

    def ek_geometry(mu):  # |w|, |scale| times 2**k, |dmu/dy|, slope of the prefactor, tan
        cos = abs(mpmath.cos(mu / 2))
        return 1 / (2 * cos), 1 / cos, 4 * cos**2, abs(mpmath.sin(mu)), mpmath.tan(mu / 2)

    def ektilde_geometry(mu):
        sin = abs(mpmath.sin(mu / 2))
        return 1 / (2 * sin), 1 / sin, 4 * sin**2, 0, mpmath.cot(mu / 2)

    monkeypatch.setattr(apostol_polys, "_fixed_horner", recording_horner)
    monkeypatch.setattr(apostol_polys, "_half_angle", recording_point)
    monkeypatch.setattr(apostol_polys, "_sin_cos", recording_series)
    near = 1e-7
    ks = (1, 21, 60, 160, 250)
    sec = (apostol_polys._ek_complex, apostol_polys._SEC_ROWS, z_truth, ek_geometry, exact_core._SEC)
    cot = (apostol_polys._ektilde_complex, apostol_polys._COT_ROWS, ztilde_truth, ektilde_geometry,
           exact_core._COT)
    cases = [
        (*sec, k, mu) for k in ks for mu in (0.0, 0.7, -2.2, math.pi - near)
    ] + [
        (*cot, k, mu) for k in ks for mu in (near, 1.0, math.pi, -4.0, 2 * math.pi - near)
    ] + [(*sec, 617, 0.0), (*sec, 2, 3.0), (*cot, 3, 2.0)]
    cases += [(*cot, 2, 5e-324), (*cot, 21, -5e-324), (*cot, 160, 1e-300)]
    most = apostol_polys._PREC + apostol_polys._ROUTE_GUARD
    for route, rows, truth, geometry, poles, k, mu in cases:
        mu, dist, n = exact_core._pole_distance(mu, "mu", poles)[:3]
        for taylor in (False, True):
            runs.clear()
            if taylor:
                apostol_polys._taylor(rows, k, mu, n, dist, poles)
                (_, bits), (_, w) = runs
                shift = None
            else:
                route(k, mu, dist, n)
                (_, point_bits), (_, w), (_, bits, shift) = runs
                assert point_bits == bits
            assert bits <= most, (route.__name__, k, mu, taylor)
            with mpmath.workdps(30):
                m = mpmath.mpf(mu)
                x, scale, slope, prefactor, t = geometry(m)
                value = 2 * math.factorial(k) * abs(truth(k, m))
                relative = w * mpmath.ldexp(1, -w)
                if taylor:
                    d = len(rows.row(k)) - 1
                    error = (2 * (d // 2) * mpmath.ldexp(1, -bits) + (d + 1) * relative) * value
                else:
                    point = 0.5 + abs(t) * mpmath.ldexp(1, bits - 1 - shift) * relative
                    assert point <= 0.51, (route.__name__, k, mu)
                    step = 2 * math.factorial(k + 1) * abs(truth(k + 1, m))
                    top = 2 ** (shift * (k + 1))
                    if route is apostol_polys._ek_complex:
                        scale, extra = mpmath.ldexp(scale, -k), 0
                    else:
                        extra = 1
                    if shift:
                        products = mpmath.sqrt(5) * scale * mpmath.fsum(
                            2 ** (shift * (k - j)) * x**j for j in range(k)) + 2 * mpmath.sqrt(2) * top * extra
                    else:
                        products = mpmath.sqrt(2) * (scale * mpmath.fsum(x**j for j in range(k)) + extra)
                    error = mpmath.fsum([
                        products,
                        mpmath.ldexp(0.51, shift) * (step * slope + value * prefactor),
                        value * relative * 2**bits * (1 - extra),
                    ]) * mpmath.ldexp(1, -bits)
                allowed = _scaled_allowance(k, dist, apostol_polys.DEFAULT_DPS) / 10
                assert error <= allowed, (route.__name__, k, mu, taylor)


def test_half_angle_point_matches_a_300_bit_truth():
    # t 2**e = tan(mu/2) (Z) or cot(mu/2) (Ztilde) and m 2**f = sec(mu/2)
    # (Z) within _half_angle's w 2**-w relative, at mu drawn next to 0, next
    # to +-pi, subnormal, anywhere in Z's domain, and for cot up to
    # 2 pi 10**7 and next to its poles 2 pi n
    rng = random.Random(29)
    bits = apostol_polys._PREC + apostol_polys._ROUTE_GUARD
    draws = []
    for _ in range(40):
        side = rng.choice((-1.0, 1.0))
        draws += [
            (exact_core._SEC, side * 10 ** rng.uniform(-300, 0)),
            (exact_core._SEC, side * (math.pi - 10 ** rng.uniform(-15, 0))),
            (exact_core._SEC, side * rng.uniform(0.0, math.pi)),
            (exact_core._SEC, side * rng.randint(1, 2**52) * 5e-324),
            (exact_core._COT, side * 10 ** rng.uniform(-300, 0)),
            (exact_core._COT, side * rng.randint(1, 2**52) * 5e-324),
            (exact_core._COT, side * rng.uniform(0.0, 2 * math.pi * 10**7)),
            (exact_core._COT, 2 * math.pi * rng.randint(-10**6, 10**6) + side * 10 ** rng.uniform(-9, 0.5)),
        ]
    for poles, mu in draws:
        try:
            mu, dist, n = exact_core._pole_distance(mu, "mu", poles)[:3]
        except ValueError:  # a pole
            continue
        for target in (bits, bits + 300):
            t, e, m, f = apostol_polys._half_angle(mu, n, dist, poles, target)
            w = target + apostol_polys._POINT_GUARD + target.bit_length()
            with mpmath.workprec(max(300, target + 150)):
                half = mpmath.mpf(mu) / 2
                want = mpmath.tan(half) if poles is exact_core._SEC else mpmath.cot(half)
                got = mpmath.ldexp(t, e)
                assert abs(got - want) <= w * mpmath.ldexp(1, -w) * abs(want), (poles, mu, target)
                if poles is exact_core._SEC:
                    assert abs(mpmath.ldexp(m, f) * mpmath.cos(half) - 1) <= w * mpmath.ldexp(1, -w), (mu, target)
                else:
                    assert (m, f) == (1, 0)


def test_ektilde_horner_integers_stay_small_at_a_subnormal_mu(monkeypatch):
    # at mu = 5e-324 the point cot(mu/2) is about 2**1075: the Horner keeps
    # that exponent out of its integers (x 2**-E), so they hold P bits plus
    # the bits of the sum at x 2**-E, not about 1075 k bits
    widest = []
    horner = apostol_polys._fixed_horner

    def measuring(row, y, bits, shift):
        re, im = horner(row, y, bits, shift)
        widest.append((max(re.bit_length(), im.bit_length(), y.bit_length()), bits, shift))
        return re, im

    monkeypatch.setattr(apostol_polys, "_fixed_horner", measuring)
    for k in (84, 617):
        widest.clear()
        assert 0 <= ektilde_mu_imag_residue(k, 5e-324) <= 2 * apostol_polys.TOL_IMAG
        ((width, bits, shift),) = widest
        assert shift > 1000 and width <= bits + 2 * k + math.lgamma(k + 1) / math.log(2) + 64, (k, width)


def test_carrier_meets_the_floor_of_its_own_precision():
    # the routes run at DEFAULT_DPS's bits whatever mpmath's working
    # precision is: the same integers under 20 digits, within that floor
    mu, dist, n = exact_core._pole_distance(0.7, "mu", exact_core._SEC)[:3]
    z = apostol_polys._ek_complex(30, mu, dist, n)
    with mpmath.workdps(20):
        assert apostol_polys._ek_complex(30, mu, dist, n) == z
    with mpmath.workdps(60):
        got = _route_value(apostol_polys._ek_complex, 30, 0.7, exact_core._SEC)[0]
        want = 2 * math.factorial(30) * z_truth(30, mpmath.mpf(0.7))
        assert abs(got - want) <= _scaled_allowance(30, dist, apostol_polys.DEFAULT_DPS) / 10


def test_lattice_sums_at_the_largest_k_match_hurwitz_truth():
    # Z(618, -3.0) ~ 3.2e525 is past the double range, Z(618, 0) ~ 3.7e-308
    # just above the smallest normal double
    with mpmath.workdps(50):
        for mu in (0.0, 0.5, -3.0):
            truth_or_out_of_range(Z, 618, mu, z_truth(618, mpmath.mpf(mu)))
        for mu in (1.0, 3.0):
            truth_or_out_of_range(Ztilde, 618, mu, ztilde_truth(618, mpmath.mpf(mu)))


def _perturbed(route):
    # the route's value times 1 + 1e-10, about
    def perturbed(*args):
        re, im, exp = route(*args)
        return re + re // 10**10, im + im // 10**10, exp

    return perturbed


def test_route_check_catches_a_perturbed_complex_value(monkeypatch):
    # 1e-10 relative at Z(60, 0.7) ~ 2.2e-24 is far inside the old
    # ROUTE_TOL * max(1, |value|) = 1e-9 check, and far outside the new one
    assert 1e-24 < Z(60, 0.7) < 1e-23
    assert Ztilde(60, 1.0) == pytest.approx(-1.0, rel=1e-12)
    for name, f, k, mu in (("_ek_complex", Z, 60, 0.7), ("_ektilde_complex", Ztilde, 60, 1.0)):
        with monkeypatch.context() as patch:
            patch.setattr(apostol_polys, name, _perturbed(getattr(apostol_polys, name)))
            with pytest.raises(InternalConsistencyError, match="certified"):
                f(k, mu)
            with pytest.raises(InternalConsistencyError, match="certified"):
                f(k, mu, method="complex")
            f(k, mu, method="taylor")  # the Taylor route is untouched


def test_route_check_catches_a_perturbed_carrier(monkeypatch):
    # the carriers are 2*k! times Z and Ztilde, cross-checked as they are
    cases = (("_ek_complex", ek_mu, Z, 60, 0.7), ("_ektilde_complex", ektilde_mu, Ztilde, 60, 1.0))
    for name, carrier, f, k, mu in cases:
        assert carrier(k, mu) == pytest.approx(2 * math.factorial(k) * f(k, mu), rel=1e-15)
        with monkeypatch.context() as patch:
            patch.setattr(apostol_polys, name, _perturbed(getattr(apostol_polys, name)))
            with pytest.raises(InternalConsistencyError, match="certified"):
                carrier(k, mu)


def test_route_check_catches_an_altered_row_coefficient():
    # the Taylor coefficients are checked entry by entry as Z and Ztilde are
    for rows, f, coeffs, k, mu, t in (
        (apostol_polys._SEC_ROWS, Z, sec_taylor_coeffs, 60, 0.7, math.tan(0.35)),
        (apostol_polys._COT_ROWS, Ztilde, cot_taylor_coeffs, 60, 1.0, 1 / math.tan(0.5)),
        # next to the zero of Z at odd k the allowed difference is relative
        (apostol_polys._SEC_ROWS, Z, sec_taylor_coeffs, 41, 1e-61, math.tan(0.5e-61)),
    ):
        f(k, mu)
        saved = rows.scaled[k]
        exact = list(rows.exact[k])
        # one part in 1e9 on the coefficient of the largest term
        j = max(range(len(exact)), key=lambda i: abs(exact[i]) * t ** i)
        exact[j] += exact[j] // 10**9
        # the memo of the row read, scaled as value() scales it
        norm = math.factorial(k) << (k + 1)
        rows.scaled[k] = tuple(abs(c) / norm for c in exact[::-2])
        try:
            with pytest.raises(InternalConsistencyError, match="certified"):
                f(k, mu)
            with pytest.raises(InternalConsistencyError, match="certified"):
                f(k, mu, method="taylor")
            with pytest.raises(InternalConsistencyError, match="certified"):
                coeffs(mu, k)
        finally:
            rows.scaled[k] = saved
        f(k, mu)


def test_route_check_catches_an_altered_difference_row(monkeypatch):
    # one part in 1e9 on the entry of the largest term of the k = 60 row;
    # the sum cancels, so the value moves by far more than that, and the
    # imaginary part with it: the residue check fires before the certified one.
    # The row is a tuple; the altered copy is a list
    build = apostol_polys._difference_row
    for start, step, f, mu, x in (
        (1, 2, Z, 0.7, 1 / (2 * math.cos(0.35))),
        (0, 1, Ztilde, 1.0, 1 / (2 * math.sin(0.5))),
    ):
        def altered(k, a, b, start=start, step=step, x=x):
            row = list(build(k, a, b))
            if (k, a, b) == (60, start, step):
                j = max(range(len(row)), key=lambda i: abs(row[i]) * x ** i)
                row[j] += row[j] // 10**9
            return row

        with monkeypatch.context() as patch:
            patch.setattr(apostol_polys, "_difference_row", altered)
            with pytest.raises(InternalConsistencyError):
                f(60, mu)
            with pytest.raises(InternalConsistencyError):
                f(60, mu, method="complex")
            f(60, mu, method="taylor")  # the Taylor route is untouched
        f(60, mu)


def test_fixed_point_routes_match_hurwitz_truth_at_low_k():
    # 2*k! times each sum within a tenth of the floor of 100-digit truth, and
    # the lattice sums to 1e-15 relative, next to 0 and to every pole
    near = 1e-7
    cases = (
        (Z, apostol_polys._ek_complex, z_truth,
         (near, -near, 1e-12, math.pi - near, -(math.pi - near)), exact_core._SEC),
        (Ztilde, apostol_polys._ektilde_complex, ztilde_truth,
         (near, -near, math.pi - near, math.pi + near, 2 * math.pi - near, -(2 * math.pi - near)),
         exact_core._COT),
    )
    for f, route, truth, mus, poles in cases:
        for k in (1, 2, 3, 39, 40):
            for mu in mus:
                with mpmath.workdps(100):
                    z, dist = _route_value(route, k, mu, poles)
                    want = truth(k, mpmath.mpf(mu))
                    allowed = _scaled_allowance(k, dist, apostol_polys.DEFAULT_DPS) / 10
                    assert abs(z - 2 * math.factorial(k) * want) <= allowed, (route.__name__, k, mu)
                assert abs(f(k, mu) - want) <= 1e-15 * abs(want), (f.__name__, k, mu)


def test_the_complex_route_does_not_use_mpmath_polyval(monkeypatch):
    cases = ((Z, 7, 0.7), (Ztilde, 8, 1.0), (ek_mu, 9, -2.0), (ektilde_mu, 10, 4.0))
    want = [f(k, mu) for f, k, mu in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.polyval called")

    monkeypatch.setattr(mpmath, "polyval", refuse)
    assert [f(k, mu) for f, k, mu in cases] == want


def test_concurrent_row_growth_matches_serial_growth():
    # more threads than cores, each growing a fresh cache to its own depth
    serial = apostol_polys._DerivativeRows((0, 1), 1, -1)
    serial.value(48, 0.5)
    shared = apostol_polys._DerivativeRows((0, 1), 1, -1)
    results = {}

    def work(k):
        results[k] = shared.value(k, 0.5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(48, 0, -3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {k: serial.value(k, 0.5) for k in range(48, 0, -3)}
    assert shared.exact == serial.exact[: len(shared.exact)]
    # each row read, and only those, scaled once to the serial bits
    assert shared.scaled == serial.scaled
