"""Independent references for every operation the benchmark sends.

Nothing here imports telesum.  Exact values are rebuilt from
``mpmath.bernfrac`` / ``mpmath.eulernum`` with textbook formulas; float
targets come from mpmath at ``DPS`` digits, using the Hurwitz zeta function
``mpmath.zeta(s, a)`` for the lattice sums and series targets.  References are
computed before a run starts timing.

A reference is a small dict; ``check(ref, got)`` compares the value a
worker or CLI returned with it and says whether the operation passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import mpmath

DPS = 60
# Same relative tolerance telesum's closed_forms applies between its two
# routes (closed_forms.ROUTE_TOL), relative to max(1, |value|).
ROUTE_TOL = 1e-9
EPS = 2.0 ** -52

mpmath.mp.dps = DPS


# ---------------------------------------------------------------- numbers


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


@lru_cache(maxsize=None)
def euler_number(n: int) -> int:
    """Secant-convention Euler number E_n (E_2 = -1, odd indices 0)."""
    return int(mpmath.eulernum(n, exact=True))


def _euler_at_zero(n: int) -> Fraction:
    # E_n(0) = -2 (2^{n+1} - 1) B_{n+1} / (n+1) for n >= 1
    if n == 0:
        return Fraction(1)
    return -2 * (2 ** (n + 1) - 1) * bernoulli(n + 1) / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of B_n(x), low to high: C(n, i) B_{n-i}."""
    return tuple(math.comb(n, i) * bernoulli(n - i) for i in range(n + 1))


@lru_cache(maxsize=None)
def euler_poly(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of E_n(x), low to high: C(n, i) E_{n-i}(0)."""
    return tuple(math.comb(n, i) * _euler_at_zero(n - i) for i in range(n + 1))


def hurwitz_lattice(p: int, a) -> mpmath.mpf:
    """sum over all integers n of (n + a)^-p, for p >= 2 and 0 < a < 1."""
    return mpmath.zeta(p, a) + (-1) ** p * mpmath.zeta(p, 1 - a)


def beta(s: int) -> mpmath.mpf:
    """Dirichlet beta; the Hurwitz split diverges termwise at s = 1."""
    if s == 1:
        return mpmath.pi / 4
    return mpmath.mpf(4) ** (-s) * (mpmath.zeta(s, 0.25) - mpmath.zeta(s, 0.75))


def Z(k: int, mu: float) -> mpmath.mpf:
    """sum_m (-1)^m / ((2m+1) pi - mu)^(k+1); k = 0 is the paired limit."""
    mu = mpmath.mpf(mu)
    if k == 0:
        return mpmath.sec(mu / 2) / 2
    p = k + 1
    four_pi = 4 * mpmath.pi
    even = hurwitz_lattice(p, (mpmath.pi - mu) / four_pi)
    odd = hurwitz_lattice(p, (3 * mpmath.pi - mu) / four_pi)
    return four_pi ** (-p) * (even - odd)


def Ztilde(k: int, mu: float) -> mpmath.mpf:
    """sum_m 1 / (2 m pi - mu)^(k+1); k = 0 is the symmetric limit."""
    mu = mpmath.mpf(mu)
    if k == 0:
        return -mpmath.cot(mu / 2) / 2
    p = k + 1
    two_pi = 2 * mpmath.pi
    return two_pi ** (-p) * hurwitz_lattice(p, mpmath.frac(-mu / two_pi))


# ------------------------------------------------------- exact constants

_CONST_FACTOR = {
    "zeta_even": lambda k: Fraction(1),
    "eta_even": lambda k: 1 - Fraction(1, 2 ** (2 * k - 1)),
    "lambda_even": lambda k: 1 - Fraction(1, 2 ** (2 * k)),
}


def exact_constant(family: str, k: int) -> Tuple[Fraction, int]:
    if family == "beta_odd":
        sign = -1 if k % 2 else 1
        coeff = Fraction(sign * euler_number(2 * k), 2 ** (2 * k + 2) * math.factorial(2 * k))
        return coeff, 2 * k + 1
    sign = 1 if k % 2 else -1
    coeff = sign * Fraction(2 ** (2 * k - 1), math.factorial(2 * k)) * bernoulli(2 * k)
    return coeff * _CONST_FACTOR[family](k), 2 * k


def float_constant(family: str, k: int) -> mpmath.mpf:
    if family == "beta_odd":
        return beta(2 * k + 1)
    z = mpmath.zeta(2 * k)
    if family == "eta_even":
        return (1 - mpmath.mpf(2) ** (1 - 2 * k)) * z
    if family == "lambda_even":
        return (1 - mpmath.mpf(2) ** (-2 * k)) * z
    return z


# ------------------------------------------------- exact trig integrals


def _monomial_trig(n: int, m: int, kind: str) -> List[Dict[int, Fraction]]:
    """I_j = int_0^1 x^j trig(m pi x) dx for j <= n, as {pi_power: coeff}.

    Monomial recurrences (not the derivative ladder telesum uses):
      S_j = (delta_j0 - (-1)^m) / (m pi) + j / (m pi) C_{j-1}
      C_j = -j / (m pi) S_{j-1},  C_0 = 0
    """
    if m == 0:
        if kind == "sin":
            return [{} for _ in range(n + 1)]
        return [{0: Fraction(1, j + 1)} for j in range(n + 1)]
    sgn = -1 if m % 2 else 1
    S: List[Dict[int, Fraction]] = []
    C: List[Dict[int, Fraction]] = []
    for j in range(n + 1):
        s = {-1: Fraction((1 if j == 0 else 0) - sgn, m)}
        if j:
            for p, c in C[j - 1].items():
                s[p - 1] = s.get(p - 1, 0) + c * Fraction(j, m)
        S.append({p: c for p, c in s.items() if c})
        C.append({p - 1: -c * Fraction(j, m) for p, c in S[j - 1].items()} if j else {})
    return S if kind == "sin" else C


def exact_trig_integral(coeffs, m: int, kind: str) -> Dict[int, Fraction]:
    """int_0^1 p(x) trig(m pi x) dx as {pi_power: nonzero coeff}."""
    basis = _monomial_trig(len(coeffs) - 1, m, kind)
    out: Dict[int, Fraction] = {}
    for c, integral in zip(coeffs, basis):
        if c:
            for p, v in integral.items():
                out[p] = out.get(p, 0) + c * v
    return {p: c for p, c in out.items() if c}


def j_integral(k: int, m: int, family: str) -> Dict[int, Fraction]:
    if family == "bernoulli_odd":
        return exact_trig_integral(bernoulli_poly(2 * k + 1), m, "sin")
    return exact_trig_integral(euler_poly(2 * k + 1), m, "cos")


def apostol_integral(k: int, m: int, mu: float) -> mpmath.mpc:
    """int_0^1 lam^x E_k(x; lam) e^{-(2m+1) pi i x} dx = 2 k! / (-a)^(k+1)."""
    a = 1j * (mpmath.mpf(mu) - (2 * m + 1) * mpmath.pi)
    return 2 * mpmath.factorial(k) / (-a) ** (k + 1)


# ------------------------------------------- Apostol polynomials (series)


def _series_recip(c: List, n: int) -> List:
    out = [1 / c[0]]
    for j in range(1, n + 1):
        out.append(-sum(c[i] * out[j - i] for i in range(1, j + 1)) / c[0])
    return out


def apostol_poly(family: str, n: int, lam: complex) -> List[mpmath.mpc]:
    """Coefficients (low to high) from the generating functions
    2 e^{xt} / (lam e^t + 1) and t e^{xt} / (lam e^t - 1), via power-series
    division and the Appell property P_n(x) = sum C(n,j) P_j(0) x^{n-j}."""
    lam = mpmath.mpc(lam)
    inv_fact = [1 / mpmath.factorial(j) for j in range(n + 2)]
    if family == "euler":
        denom = [lam * f for f in inv_fact[: n + 1]]
        denom[0] += 1
        numbers = [2 * c for c in _series_recip(denom, n)]
    elif lam == 1:
        return [mpmath.mpc(float(c)) for c in bernoulli_poly(n)]
    else:
        # t / (lam e^t - 1): the t cancels only against the lam - 1 constant
        denom = [lam * f for f in inv_fact[: n + 1]]
        denom[0] -= 1
        numbers = [mpmath.mpf(0)] + _series_recip(denom, n)[:n]
    numbers = [c * mpmath.factorial(j) for j, c in enumerate(numbers)]
    coeffs = [math.comb(n, i) * numbers[n - i] for i in range(n + 1)]
    # B_0(x; lam) = 0 for lam != 1, so the Bernoulli family has degree n - 1
    return coeffs if family == "euler" else coeffs[:n]


# --------------------------------------------------- truncated expansions


def hurwitz_partial(kind: str, k: int, x: float, M: int) -> Tuple[mpmath.mpf, float]:
    """Target polynomial value and a bound on the M-term truncation error
    plus the double-precision summation error."""
    if kind == "B_even":
        n, q, const = 2 * k, 2 * k, 2 * math.factorial(2 * k) / (2 * math.pi) ** (2 * k)
        target = mpmath.bernpoly(n, x)
        tail = M ** (1 - q) / (q - 1)
        body = float(mpmath.zeta(q))
    elif kind == "B_odd":
        n, q, const = 2 * k + 1, 2 * k + 1, 2 * math.factorial(2 * k + 1) / (2 * math.pi) ** (2 * k + 1)
        target = mpmath.bernpoly(n, x)
        tail = M ** (1 - q) / (q - 1)
        body = float(mpmath.zeta(q))
    elif kind == "E_even":
        n, q, const = 2 * k, 2 * k + 1, 4 * math.factorial(2 * k) / math.pi ** (2 * k + 1)
        target = mpmath.eulerpoly(n, x)
        tail = (2 * M) ** (1 - q) / (2 * (q - 1))
        body = float(mpmath.zeta(q))
    else:
        n, q, const = 2 * k - 1, 2 * k, 4 * math.factorial(2 * k - 1) / math.pi ** (2 * k)
        target = mpmath.eulerpoly(n, x)
        tail = (2 * M) ** (1 - q) / (2 * (q - 1))
        body = float(mpmath.zeta(q))
    bound = const * (tail + 64 * EPS * body) + 16 * EPS * abs(float(target))
    return target, bound


# ---------------------------------------------------------------- dispatch


def exact_pairs(d: Dict[int, Fraction]) -> List[List[int]]:
    return [[c.numerator, c.denominator, p] for p, c in sorted(d.items())]


def reference(op: dict) -> dict:
    """Reference for one worker operation (see workloads.py for the ops)."""
    kind, a = op["op"], op["args"]
    if kind == "const":
        coeff, power = exact_constant(a["family"], a["k"])
        return {"exact": [[coeff.numerator, coeff.denominator, power]],
                "float": float_constant(a["family"], a["k"])}
    if kind in ("Z", "Ztilde"):
        return {"float": (Z if kind == "Z" else Ztilde)(a["k"], a["mu"]),
                "tol": ROUTE_TOL, "derived": True}
    if kind == "j_integral":
        return {"exact": exact_pairs(j_integral(a["k"], a["m"], a["family"]))}
    if kind == "poly_trig":
        coeffs = [Fraction(n, d) for n, d in a["coeffs"]]
        return {"exact": exact_pairs(exact_trig_integral(coeffs, a["m"], a["kernel"]))}
    if kind == "apostol_integral":
        return {"complex": apostol_integral(a["k"], a["m"], a["mu"]), "tol": ROUTE_TOL}
    if kind in ("sum_Z", "sum_Ztilde"):
        return {"sum": (Z if kind == "sum_Z" else Ztilde)(a["k"], a["mu"])}
    if kind == "sum_inverse_square":
        return {"sum": hurwitz_lattice(2, mpmath.frac(a["theta"]))}
    if kind == "sum_cotangent":
        return {"sum": mpmath.pi * mpmath.cot(mpmath.pi * a["theta"])}
    if kind == "sum_zeta":
        return {"sum": mpmath.zeta(a["s"])}
    if kind == "sum_beta":
        return {"sum": beta(a["s"])}
    if kind == "hurwitz_partial":
        target, bound = hurwitz_partial(a["kind"], a["k"], a["x"], a["M"])
        return {"float": target, "abs_tol": bound}
    if kind == "zeta_odd_integral":
        return {"float": mpmath.zeta(2 * a["k"] + 1), "abs_tol": a["tol"]}
    if kind == "beta_even_integral":
        return {"float": beta(2 * a["k"] + 2), "abs_tol": a["tol"]}
    raise ValueError("no reference for op %r" % kind)


def _rel(got: float, ref) -> float:
    ref = mpmath.mpf(ref)
    return float(abs(mpmath.mpf(got) - ref) / max(1, abs(ref)))


def relerr(got: float, ref) -> Optional[float]:
    """Plain relative error |got - ref| / |ref| (None when ref is 0)."""
    ref = mpmath.mpf(ref)
    if ref == 0:
        return None
    return float(abs(mpmath.mpf(got) - ref) / abs(ref))


def check(ref: dict, got: dict) -> Tuple[bool, str]:
    """Compare one returned value with its reference.

    ``got`` holds whichever of ``exact`` (exact values as integer lists),
    ``float``, ``complex`` ([re, im]), ``cvec``/``fvec`` (complex or float
    coefficient lists) or ``sum`` ([value, error_bound, terms]) the
    operation produced.  A reference marked ``exit_code_only`` (the verify
    command) passes on any output: its exit code was checked already.
    """
    if ref.get("exit_code_only"):
        return True, ""
    if "exact" in ref:
        if got.get("exact") != ref["exact"]:
            return False, "exact value differs from reference"
        # float(PiScalar) is reported as max_rel_err, not judged here
        return True, ""
    if "sum" in ref:
        value, bound, _ = got["sum"]
        err = abs(mpmath.mpf(value) - ref["sum"])
        if not err <= bound:
            return False, "|value - ref| = %.3e exceeds error_bound %.3e" % (float(err), bound)
        return True, ""
    if "complex" in ref:
        re, im = got["complex"]
        err = abs(mpmath.mpc(re, im) - ref["complex"]) / max(1, abs(ref["complex"]))
        if not err <= ref["tol"]:
            return False, "relative error %.3e exceeds %.1e" % (float(err), ref["tol"])
        return True, ""
    if "cvec" in ref or "fvec" in ref:
        want = ref.get("cvec", ref.get("fvec"))
        have = [mpmath.mpc(*z) for z in got["cvec"]] if "cvec" in ref else got["fvec"]
        if len(have) != len(want):
            return False, "%d coefficients, reference has %d" % (len(have), len(want))
        err = max((float(abs(h - w) / max(1, abs(w))) for h, w in zip(have, want)), default=0.0)
        if not err <= ref["tol"]:
            return False, "relative error %.3e exceeds %.1e" % (err, ref["tol"])
        return True, ""
    if "abs_tol" in ref:
        err = abs(mpmath.mpf(got["float"]) - ref["float"])
        if not err <= ref["abs_tol"]:
            return False, "|value - ref| = %.3e exceeds tol %.3e" % (float(err), ref["abs_tol"])
        return True, ""
    if "float" in ref:
        err = _rel(got["float"], ref["float"])
        if not err <= ref["tol"]:
            return False, "relative error %.3e exceeds %.1e" % (err, ref["tol"])
        return True, ""
    raise ValueError("malformed reference")
