"""Classical Bernoulli/Euler polynomials and numbers.

The frozen coefficient tables below were derived independently from the
generating functions (and cross-checked against mpmath's bernpoly/eulerpoly
at the bottom of the file); the library must reproduce them exactly.
"""

import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from telesum import (
    Poly,
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    poly_derivative,
    poly_eval,
    poly_integral_01,
    poly_reflect,
    precompute,
)

F = Fraction

BERNOULLI_POLYS = {
    0: [F(1)],
    1: [F(-1, 2), F(1)],
    2: [F(1, 6), F(-1), F(1)],
    3: [F(0), F(1, 2), F(-3, 2), F(1)],
    4: [F(-1, 30), F(0), F(1), F(-2), F(1)],
    5: [F(0), F(-1, 6), F(0), F(5, 3), F(-5, 2), F(1)],
    6: [F(1, 42), F(0), F(-1, 2), F(0), F(5, 2), F(-3), F(1)],
}

EULER_POLYS = {
    0: [F(1)],
    1: [F(-1, 2), F(1)],
    2: [F(0), F(-1), F(1)],
    3: [F(1, 4), F(0), F(-3, 2), F(1)],
    4: [F(0), F(1), F(0), F(-2), F(1)],
    5: [F(-1, 2), F(0), F(5, 2), F(0), F(-5, 2), F(1)],
}


def test_frozen_bernoulli_polynomials():
    for k, coeffs in BERNOULLI_POLYS.items():
        assert bernoulli_poly(k) == Poly(coeffs), "index %d" % k


def test_frozen_euler_polynomials():
    for k, coeffs in EULER_POLYS.items():
        assert euler_poly(k) == Poly(coeffs), "index %d" % k


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(4) == F(-1, 30)
    assert bernoulli_number(12) == F(-691, 2730)
    assert bernoulli_number(20) == F(-174611, 330)
    for odd in range(3, 31, 2):
        assert bernoulli_number(odd) == 0
    for n in range(0, 201):
        assert bernoulli_number(n) == F(*mpmath.bernfrac(n)), n


def test_euler_numbers():
    assert euler_number(0) == 1
    assert euler_number(2) == -1
    assert euler_number(4) == 5
    assert euler_number(6) == -61
    assert euler_number(8) == 1385
    assert euler_number(10) == -50521
    for k in range(0, 201, 2):
        assert euler_number(k) == mpmath.eulernum(k, exact=True), k
    # odd indices are rejected in this normalization, not zero
    for odd in (1, 3, 7):
        with pytest.raises(ValueError):
            euler_number(odd)


def test_derivative_ladders_exact():
    for n in range(1, 31):
        assert poly_derivative(bernoulli_poly(n)) == bernoulli_poly(n - 1) * F(n)
        assert poly_derivative(euler_poly(n)) == euler_poly(n - 1) * F(n)


def test_reflection_symmetry():
    # p(1 - x) == (-1)^n p(x) for both families
    for n in range(0, 25):
        sign = F(1) if n % 2 == 0 else F(-1)
        assert poly_reflect(bernoulli_poly(n)) == bernoulli_poly(n) * sign
        assert poly_reflect(euler_poly(n)) == euler_poly(n) * sign


def test_vanishing_points():
    for n in range(3, 201, 2):
        b = bernoulli_poly(n)
        assert poly_eval(b, F(0)) == 0
        assert poly_eval(b, F(1, 2)) == 0
        assert poly_eval(b, F(1)) == 0
    for n in range(2, 201, 2):
        e = euler_poly(n)
        assert poly_eval(e, F(0)) == 0
        assert poly_eval(e, F(1)) == 0


def test_unit_interval_normalizations():
    assert poly_integral_01(bernoulli_poly(0)) == 1
    for n in range(1, 21):
        assert poly_integral_01(bernoulli_poly(n)) == 0
        assert poly_eval(bernoulli_poly(n), F(1)) - poly_eval(
            bernoulli_poly(n), F(0)
        ) == (1 if n == 1 else 0)


def test_midpoint_values():
    # 2^n E_n(1/2) is the n-th Euler number, B_n(1/2) = (2^(1-n) - 1) B_n
    for n in range(0, 201, 2):
        assert poly_eval(euler_poly(n), F(1, 2)) * 2**n == euler_number(n)
    for n in range(1, 201, 2):
        assert poly_eval(euler_poly(n), F(1, 2)) * 2**n == 0
    for n in range(0, 201):
        assert poly_eval(bernoulli_poly(n), F(1, 2)) == (
            F(2) ** (1 - n) - 1
        ) * bernoulli_number(n)


def test_against_mpmath_polynomials():
    """Independent oracle: float evaluation matches mpmath to ~1 ulp."""
    xs = [0.0, 0.125, 0.3, 0.5, 0.77, 1.0]
    with mpmath.workdps(30):
        for n in range(0, 21):
            bp, ep = bernoulli_poly(n), euler_poly(n)
            for x in xs:
                xf = F(x)
                got_b = float(poly_eval(bp, xf))
                got_e = float(poly_eval(ep, xf))
                want_b = float(mpmath.bernpoly(n, x))
                want_e = float(mpmath.eulerpoly(n, x))
                assert got_b == pytest.approx(want_b, rel=1e-13, abs=1e-25)
                assert got_e == pytest.approx(want_e, rel=1e-13, abs=1e-25)


def test_cache_grows_past_precomputed_depth():
    precompute(8)  # no-op shrink request must not discard deeper entries
    assert bernoulli_poly(70).degree == 70
    assert euler_poly(70).degree == 70
    # classical von Staudt-Clausen denominator check at depth 70
    denom = bernoulli_number(70).denominator
    assert denom % 6 == 0


_CONCURRENT_GROWTH = """
import hashlib, sys, threading
from fractions import Fraction
import mpmath
import telesum
from telesum import classical_polys

threaded = sys.argv[1] == "threaded"
calls = [
    ("bernoulli_poly", range(151)),
    ("euler_poly", range(151)),
    ("bernoulli_number", range(151)),
    ("euler_number", range(0, 151, 2)),
    ("bernoulli_number", range(150, -1, -1)),
    ("precompute", range(0, 151, 25)),
]
results = {}
barrier = threading.Barrier(len(calls) if threaded else 1)

def run(i, name, indices):
    barrier.wait(timeout=60)
    fn = getattr(telesum, name)
    results[i, name] = [fn(n) for n in indices]

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

# the numbers against mpmath, and the cache: one zigzag number per row
# built, the kept row the one that ends in the last of them
assert results[2, "bernoulli_number"] == [Fraction(*mpmath.bernfrac(n)) for n in range(151)]
assert results[3, "euler_number"] == [mpmath.eulernum(n, exact=True) for n in range(0, 151, 2)]
zigzag, row = classical_polys._zigzag, classical_polys._row
assert len(row) == len(zigzag) and row[-1] == zigzag[-1] and row[0] == 0
print(hashlib.sha256(repr((sorted(results.items()), zigzag, row)).encode()).hexdigest())
"""


def test_concurrent_growth_from_cold_start():
    # each run is a fresh interpreter, so the number cache starts cold; six
    # threads grow the zigzag list and the triangle row at once
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def digest(mode):
        done = subprocess.run(
            [sys.executable, "-c", _CONCURRENT_GROWTH, mode],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    assert digest("threaded") == digest("serial")
