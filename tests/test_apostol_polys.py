"""Deformed (parameterized) Bernoulli/Euler families and their carriers.

The deformed families live at elevated precision internally, so the
tolerances here are far below double-precision noise for honest formulas
but would catch any wrong term instantly.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from telesum import (
    ToleranceUnreachable,
    apostol_bernoulli_poly,
    apostol_polys,
    apostol_euler_poly,
    bernoulli_poly,
    cot_taylor_coeffs,
    ek_mu,
    ek_mu_imag_residue,
    ektilde_mu,
    ektilde_mu_imag_residue,
    euler_poly,
    sec_taylor_coeffs,
)

from hurwitz_truth import z_truth, ztilde_truth

LAMBDAS = [
    mpmath.mpc(2, 0),
    mpmath.mpc(-3, 0),
    mpmath.mpc(0.5, 0.5),
    mpmath.mpc(0, 1),
    mpmath.mpc(-1.7, 2.4),
]


def _poly_at(q, x):
    return q(mpmath.mpc(x))


def test_reduction_to_classical_euler():
    for k in range(0, 13):
        got = apostol_euler_poly(k, 1)
        want = euler_poly(k)
        for j, c in enumerate(want.coeffs):
            assert abs(complex(got.coeffs[j]) - float(c)) <= 1e-14 * max(
                1.0, abs(float(c))
            )


def test_reduction_to_classical_bernoulli():
    for k in range(1, 13):
        got = apostol_bernoulli_poly(k, 1)
        want = bernoulli_poly(k)
        for j, c in enumerate(want.coeffs):
            assert abs(complex(got.coeffs[j]) - float(c)) <= 1e-14 * max(
                1.0, abs(float(c))
            )


def test_difference_equations():
    """lam E_k(x+1) + E_k(x) = 2 x^k and lam B_k(x+1) - B_k(x) = k x^(k-1).

    Evaluation happens at the family's own working precision; at ambient
    double precision the k = 8 cancellations would drown the defect.
    """
    with mpmath.workdps(40):
        xs = [mpmath.mpf(v) for v in (-0.75, 0.0, 0.4, 1.3)]
        for lam in LAMBDAS:
            for k in range(0, 9):
                e = apostol_euler_poly(k, lam)
                for x in xs:
                    lhs = lam * _poly_at(e, x + 1) + _poly_at(e, x)
                    rhs = 2 * mpmath.mpc(x) ** k
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            for k in range(1, 9):
                b = apostol_bernoulli_poly(k, lam)
                for x in xs:
                    lhs = lam * _poly_at(b, x + 1) - _poly_at(b, x)
                    rhs = k * mpmath.mpc(x) ** (k - 1)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_boundary_identity_on_unit_circle():
    # lam E_k(1; lam) + E_k(0; lam) is 2 at k = 0 and 0 for k >= 1
    with mpmath.workdps(40):
        for mu in (0.3, 1.2, 2.5, -2.0):
            lam = mpmath.e ** (1j * mpmath.mpf(mu))
            for k in range(0, 11):
                e = apostol_euler_poly(k, lam)
                val = lam * _poly_at(e, 1) + _poly_at(e, 0)
                want = 2.0 if k == 0 else 0.0
                assert abs(val - want) <= 1e-12


def test_bernoulli_euler_deformation_relation():
    # B_k(x; lam) = -(k/2) E_{k-1}(x; -lam)
    with mpmath.workdps(40):
        for lam in LAMBDAS:
            for k in range(1, 10):
                b = apostol_bernoulli_poly(k, lam)
                e = apostol_euler_poly(k - 1, -lam)
                for x in (mpmath.mpf("0.25"), mpmath.mpf("1.5")):
                    lhs = _poly_at(b, x)
                    rhs = -mpmath.mpf(k) / 2 * _poly_at(e, x)
                    assert abs(lhs - rhs) <= 1e-18 * max(1.0, abs(rhs))


def test_derivative_ladder_of_deformed_family():
    for lam in LAMBDAS:
        for k in range(1, 9):
            d = apostol_euler_poly(k, lam).derivative()
            e = apostol_euler_poly(k - 1, lam)
            for j, c in enumerate(e.coeffs):
                assert abs(d.coeffs[j] - k * c) <= 1e-18 * max(1.0, abs(k * c))


def test_difference_rows_are_stirling_and_binomial_sums():
    # j! S(k, j) = forward differences of i**k, T_k(j) = those of (2i + 1)**k,
    # with k going up, where each row grows from the one kept before it, and
    # then coming down, where each is built afresh
    with mpmath.workdps(150):
        for ks in (range(61), range(60, -1, -1)):
            for k in ks:
                assert apostol_polys._difference_row(k, 0, 1) == tuple(
                    math.factorial(j) * int(mpmath.stirling2(k, j)) for j in range(k + 1)
                )
                assert apostol_polys._difference_row(k, 1, 2) == tuple(
                    sum((-1) ** (j - i) * math.comb(j, i) * (2 * i + 1) ** k for i in range(j + 1))
                    for j in range(k + 1)
                )


def _table_row(k, start, step):
    # the difference table of the powers, the one builder that keeps nothing
    row = [(start + step * i) ** k for i in range(k + 1)]
    for n in range(k):
        for i in range(k, n, -1):
            row[i] -= row[i - 1]
    return tuple(row)


def test_kept_difference_rows_equal_a_direct_build():
    # ascending, descending, repeated, interleaved and gapped sequences, and
    # k = 618 grown from 600: whatever row is kept, each equals the table's,
    # and one row per family is kept, the last one asked for
    families = ((1, 2), (0, 1))
    ascending = list(range(121))
    gapped, k = [], 0
    for gap in (1, 2, 3, 5, 8, 13, 21, 34, 1, 1, 4, 9):
        k += gap
        gapped.append(k)
    sequences = [
        [(k, fam) for fam in families for k in ascending],
        [(k, fam) for fam in families for k in reversed(ascending)],
        [(k, fam) for fam in families for k in ascending for _ in range(2)],
        [(k, fam) for k in ascending for fam in families],
        [(k, fam) for k in gapped + gapped[::-1] + gapped for fam in families],
        [(k, fam) for k in (600, 618) for fam in families],
    ]
    want = {}
    for sequence in sequences:
        apostol_polys._KEPT_ROWS.clear()
        for k, (start, step) in sequence:
            if (k, start, step) not in want:
                want[k, start, step] = _table_row(k, start, step)
            assert apostol_polys._difference_row(k, start, step) == want[k, start, step], (k, start, step)
            assert apostol_polys._KEPT_ROWS[start, step] == (k, want[k, start, step])
        assert len(apostol_polys._KEPT_ROWS) == 2


_CONCURRENT_KEPT = """
import hashlib, sys, threading
import mpmath
import telesum
from telesum import apostol_polys, exact_core

threaded = sys.argv[1] == "threaded"
calls = [
    ("row", (1, 2), range(121)),
    ("row", (1, 2), range(120, -1, -3)),
    ("row", (0, 1), range(0, 121, 2)),
    ("row", (0, 1), range(121)),
    ("pi", 64, range(1, 400)),
    ("pi", 64, range(-1, -400, -1)),
    ("pi", 512, range(1, 400, 3)),
    ("pi", 512, range(399, 0, -1)),
]
mpmath.mp.dps = 200
powers = {n: mpmath.pi ** n for n in range(-400, 401)}
results = {}
barrier = threading.Barrier(len(calls) if threaded else 1)

def run(i, kind, arg, indices):
    barrier.wait(timeout=60)
    if kind == "row":
        results[i] = [apostol_polys._difference_row(k, *arg) for k in indices]
        return
    out = []
    for n in indices:
        (a, b), (c, d) = exact_core._pi_power_bounds(n, arg)
        lo, hi = mpmath.mpf(a) / b, mpmath.mpf(c) / d
        holds = lo < powers[n] < hi and (hi - lo) / powers[n] < mpmath.mpf(2) ** (2 - arg)
        out.append((holds, float(telesum.PiScalar(1, n)).hex()))
    results[i] = out

if threaded:
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i, *c)) for i, c in enumerate(calls)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
else:
    for i, c in enumerate(calls):
        run(i, *c)

assert all(holds for i, c in enumerate(calls) if c[0] == "pi" for holds, _ in results[i])
print(hashlib.sha256(repr(sorted(results.items())).encode()).hexdigest())
"""


def test_kept_rows_and_brackets_under_concurrent_growth_from_cold_start():
    # each run is a fresh interpreter, so no row or bracket is kept yet;
    # eight threads grow the two row families and the brackets at two
    # precisions up, down and in steps, and give what a serial run gives:
    # the same rows, and brackets that hold pi**n with the same doubles
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def digest(mode):
        done = subprocess.run(
            [sys.executable, "-c", _CONCURRENT_KEPT, mode],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    assert digest("threaded") == digest("serial")


def test_excluded_parameters():
    with pytest.raises(ValueError):
        apostol_euler_poly(3, 0)
    with pytest.raises(ValueError):
        apostol_euler_poly(3, -1)
    with pytest.raises(ValueError):
        apostol_bernoulli_poly(0, 2)
    with pytest.raises(ValueError):
        apostol_bernoulli_poly(3, 0)


def test_dps_is_an_integer_of_at_least_one():
    # a non-positive dps once ran mpmath at that precision: wrong digits, no error
    for bad in (0, -5, 2.5, True):
        for call in (
            lambda: apostol_euler_poly(3, 0.5, dps=bad),
            lambda: apostol_bernoulli_poly(3, 0.5, dps=bad),
        ):
            with pytest.raises(ValueError, match="dps must be an integer >= 1"):
                call()
    assert complex(apostol_euler_poly(3, 0.5, dps=1).coeffs[-1]) == pytest.approx(4 / 3, rel=0.1)


# ------------------------------------------------------------------ carriers


def test_sec_derivatives_at_zero():
    # sec(w/2) = 1 + w^2/8 + 5 w^4/384 + ... so derivatives 0..4 follow
    got = sec_taylor_coeffs(0.0, 4)
    want = [1.0, 0.0, 0.25, 0.0, 0.3125]
    assert got == pytest.approx(want, abs=1e-15)


def test_sec_derivatives_at_right_angle():
    assert ek_mu(0, math.pi / 2) == pytest.approx(math.sqrt(2), rel=1e-13)
    assert ek_mu(1, math.pi / 2) == pytest.approx(math.sqrt(2) / 2, rel=1e-13)


def test_cot_derivatives_at_right_angle():
    got = cot_taylor_coeffs(math.pi / 2, 4)
    want = [-1.0, 1.0, -1.0, 2.0, -5.0]
    assert got == pytest.approx(want, rel=1e-12)


def test_carriers_against_mpmath_differentiation():
    """Independent oracle: mpmath numeric differentiation of sec/cot."""
    for mu in (-2.2, -0.9, 0.3, 1.7):
        sec = sec_taylor_coeffs(mu, 5)
        for k in range(0, 6):
            want = float(mpmath.diff(lambda u: mpmath.sec(u / 2), mpmath.mpf(mu), k))
            assert ek_mu(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-10)
            assert sec[k] == pytest.approx(want, rel=1e-9, abs=1e-10)
    for mu in (0.5, 1.1, 2.8, 4.0):
        cot = cot_taylor_coeffs(mu, 5)
        for k in range(1, 6):
            want = float(
                mpmath.diff(lambda u: -mpmath.cot(u / 2), mpmath.mpf(mu), k)
            )
            assert ektilde_mu(k, mu) == pytest.approx(want, rel=1e-9, abs=1e-10)
            assert cot[k] == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_dual_routes_agree():
    for mu in (-2.5, -1.0, 0.0, 0.8, 2.9):
        sec = sec_taylor_coeffs(mu, 10)
        for k in range(0, 11):
            assert ek_mu(k, mu) == pytest.approx(sec[k], rel=1e-11, abs=1e-11)
    for mu in (0.4, 1.3, 3.1, 5.5):
        cot = cot_taylor_coeffs(mu, 10)
        for k in range(1, 11):
            assert ektilde_mu(k, mu) == pytest.approx(cot[k], rel=1e-11, abs=1e-11)


def test_imaginary_residue_is_tiny():
    for mu in (-2.0, 0.0, 1.5):
        for k in range(0, 13):
            assert ek_mu_imag_residue(k, mu) <= 1e-12
    with pytest.raises(ValueError):
        ek_mu_imag_residue(-1, 0.0)


def test_odd_sec_derivatives_vanish_at_zero():
    # the value is exactly 0; the residue is rounding noise that grows with
    # k!, and the check allows for it as Z's does.  |z| is then noise too, so
    # the scaled residue is held to the allowance, not to |z|
    for k in range(51, 100, 2):
        assert ek_mu(k, 0.0) == 0.0
        assert ek_mu_imag_residue(k, 0.0) <= 2 * apostol_polys.TOL_IMAG, k


def test_imaginary_residue_past_the_double_range_is_finite():
    # |z| is far past the double range here; the ratio is formed before rounding
    for residue, k, mu in ((ek_mu_imag_residue, 250, 3.0), (ektilde_mu_imag_residue, 250, 6.2)):
        got = residue(k, mu)
        assert math.isfinite(got) and 0.0 <= got <= 1e-12, (k, mu, got)


def test_taylor_coefficients_past_the_double_range_raise_a_typed_error():
    # the sec derivatives pass 1.8e308 at j = 72 for mu = 3.14; -cot's at j = 78
    # for mu = 6.28; in range, the same calls return finite lists
    for coeffs, mu in ((sec_taylor_coeffs, 3.14), (cot_taylor_coeffs, 6.28)):
        assert all(math.isfinite(c) for c in coeffs(mu, 60))
        with pytest.raises(ToleranceUnreachable) as info:
            coeffs(mu, 150)
        assert info.value.achieved == math.inf


# ek_mu's outcomes where its value leaves the double range, recorded from
# the route before the a-priori check: a value's float.hex or the exception.
# Past MAX_K = 618 ek_mu raises Z's ValueError
_EK_EDGE_OUTCOMES = {
    (216, 5e-324): '0x1.331eca64ad24cp+1012',
    (216, 1e-61): '0x1.331eca64ad24cp+1012',
    (216, 0.1): '0x1.4f6e5ea48d84bp+1021',
    (216, 3.1): 'ToleranceUnreachable',
    (217, 5e-324): '0x1.6763a2acf04c8p-50',
    (217, 1e-61): '0x1.ce035048f98fcp+821',
    (217, 0.1): 'ToleranceUnreachable',
    (217, 3.1): 'ToleranceUnreachable',
    (218, 5e-324): 'ToleranceUnreachable',
    (218, 1e-61): 'ToleranceUnreachable',
    (218, 0.1): 'ToleranceUnreachable',
    (218, 3.1): 'ToleranceUnreachable',
    (219, 5e-324): '0x1.ac52df4c8944ep-38',
    (219, 1e-61): '0x1.1350dd0087b63p+834',
    (219, 0.1): 'ToleranceUnreachable',
    (219, 3.1): 'ToleranceUnreachable',
    (220, 5e-324): 'ToleranceUnreachable',
    (220, 1e-61): 'ToleranceUnreachable',
    (220, 0.1): 'ToleranceUnreachable',
    (220, 3.1): 'ToleranceUnreachable',
    (379, 5e-324): '0x1.a3577abe6a825p+1012',
    (379, 1e-61): 'ToleranceUnreachable',
    (379, 0.1): 'ToleranceUnreachable',
    (379, 3.1): 'ToleranceUnreachable',
    (380, 5e-324): 'ToleranceUnreachable',
    (380, 1e-61): 'ToleranceUnreachable',
    (380, 0.1): 'ToleranceUnreachable',
    (380, 3.1): 'ToleranceUnreachable',
    (381, 5e-324): 'ToleranceUnreachable',
    (381, 1e-61): 'ToleranceUnreachable',
    (381, 0.1): 'ToleranceUnreachable',
    (381, 3.1): 'ToleranceUnreachable',
    (382, 5e-324): 'ToleranceUnreachable',
    (382, 1e-61): 'ToleranceUnreachable',
    (382, 0.1): 'ToleranceUnreachable',
    (382, 3.1): 'ToleranceUnreachable',
    (617, 5e-324): 'ToleranceUnreachable',
    (617, 1e-61): 'ToleranceUnreachable',
    (617, 0.1): 'ToleranceUnreachable',
    (617, 3.1): 'ToleranceUnreachable',
    (618, 5e-324): 'ToleranceUnreachable',
    (618, 1e-61): 'ToleranceUnreachable',
    (618, 0.1): 'ToleranceUnreachable',
    (618, 3.1): 'ToleranceUnreachable',
}


def test_ek_mu_past_the_double_range_raises_before_building_the_route(monkeypatch):
    for (k, mu), want in _EK_EDGE_OUTCOMES.items():
        try:
            got = ek_mu(k, mu).hex()
        except ToleranceUnreachable as exc:
            assert exc.achieved == math.inf
            got = "ToleranceUnreachable"
        assert got == want, (k, mu)
    # the certified value alone decides every raise: no route, and no time
    # for one
    def no_route(*args):
        raise AssertionError("route built")

    monkeypatch.setattr(apostol_polys, "_ek_complex", no_route)
    for (k, mu), want in _EK_EDGE_OUTCOMES.items():
        if want != "ToleranceUnreachable":
            continue
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ToleranceUnreachable):
                ek_mu(k, mu)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01, (k, mu, best)
    # past MAX_K, odd k at mu = 0, where the value is 0, included; the
    # residues take the carriers' range
    for f in (ek_mu, ek_mu_imag_residue, ektilde_mu_imag_residue):
        for mu in (0.0, 5e-324, 0.1, -3.1):
            with pytest.raises(ValueError, match="k must be <= 618, where"):
                f(1001, mu)


def test_taylor_coefficients_stop_growing_rows_at_the_first_overflow():
    # the entries pass the double range near j = 207; the exact rows take
    # memory that grows like K**3 log K, so none past that one is built
    rows = apostol_polys._SEC_ROWS
    before = len(rows.exact)
    with pytest.raises(ToleranceUnreachable):
        sec_taylor_coeffs(0.7, 10_000)
    assert len(rows.exact) <= max(before, 300)


def test_non_finite_parameters_are_rejected():
    message = "lambda must have finite real and imaginary parts"
    for lam in (complex(math.nan, 0.0), complex(0.5, math.inf), math.inf):
        for family in (apostol_euler_poly, apostol_bernoulli_poly):
            with pytest.raises(ValueError) as exc:
                family(2, lam)
            assert str(exc.value) == message
    for mu in (math.nan, math.inf):
        for call in (sec_taylor_coeffs, cot_taylor_coeffs):
            with pytest.raises(ValueError) as exc:
                call(mu, 3)
            assert str(exc.value) == "mu must be finite"


def test_carrier_domain_guards():
    with pytest.raises(ValueError):
        ek_mu(2, 3.5)  # outside (-pi, pi)
    with pytest.raises(ValueError):
        ektilde_mu(0, 1.0)  # k = 0 combination is not real
    with pytest.raises(ValueError):
        ektilde_mu(2, 0.0)  # cot pole
    with pytest.raises(ValueError):
        sec_taylor_coeffs(-3.5, 4)
    with pytest.raises(ValueError):
        cot_taylor_coeffs(0.0, 4)
    # no double is a pole of sec(mu/2): math.pi lies 1.2e-16 below pi, and
    # 2 * math.pi 2.4e-16 below the cot pole 2 pi; every entry is 2*j! times
    # the lattice sum, and rounded once
    with mpmath.workdps(50):
        sec_mu, cot_mu = mpmath.mpf(math.pi), mpmath.mpf(2 * math.pi)
        want = float(4 * z_truth(2, sec_mu))
        assert abs(ek_mu(2, math.pi) - want) <= 1e-15 * abs(want)
        sec = [mpmath.sec(sec_mu / 2)] + [2 * math.factorial(j) * z_truth(j, sec_mu) for j in range(1, 5)]
        cot = [-mpmath.cot(cot_mu / 2)] + [2 * math.factorial(j) * ztilde_truth(j, cot_mu) for j in range(1, 5)]
        for got, want in zip(sec_taylor_coeffs(math.pi, 4) + cot_taylor_coeffs(2 * math.pi, 4), sec + cot):
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)


def test_carriers_past_the_double_range_raise_a_typed_error():
    # 2 * 171! * Z(171, 0.7) = 5.19e242 is in range; the k = 250 value is not,
    # and from k = 381 on no value at mu != 0 is, the least subnormal mu
    # included; k past the certified rows is Z's domain error
    assert ek_mu(171, 0.7) == pytest.approx(5.188192231325938e242, rel=1e-13)
    with mpmath.workdps(30):
        want = 2 * math.factorial(379) * z_truth(379, 5e-324)  # 7.19e304
        assert abs(ek_mu(379, 5e-324) - want) <= 1e-13 * want
    for carrier, k, mu in ((ek_mu, 250, 0.7), (ek_mu, 381, 5e-324), (ektilde_mu, 200, 1.0)):
        with pytest.raises(ToleranceUnreachable) as info:
            carrier(k, mu)
        assert info.value.achieved == math.inf
    for carrier, k, mu in ((ek_mu, 701, 1e-61), (ektilde_mu, 701, 1.0)):
        with pytest.raises(ValueError, match="k must be <= 618, where"):
            carrier(k, mu)
