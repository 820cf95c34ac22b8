"""Hurwitz-zeta truths for the two bilateral lattice sums, shared by the tests.

    Z(k; mu)      = sum over all m of (-1)**m / ((2m+1) pi - mu)**(k+1)
    Ztilde(k; mu) = sum over all m of 1 / (2 m pi - mu)**(k+1),  k >= 1.

Each is a difference of two Hurwitz-zeta halves of about unit size.  At odd k
Z vanishes like mu, so next to mu = 0 its halves cancel to about |mu|, and a
fixed precision reads 0 there: at 60 digits Z(1; 1e-61) comes out 0 instead
of 1.25e-62.  So z_truth works log10(1/|mu|) + 10 digits above the active
precision and keeps that many digits relative to the value itself.  Ztilde
has a pole, not a zero, at mu = 0, and the nearest double to its zero at
mu = pi lies 1.2e-16 away, so ztilde_truth runs at the active precision; it
splits off the term of the pole nearest mu, so that no Hurwitz argument
nears 0 next to a pole (at mu = 5e-324 too).
At k = 0 Z's halves diverge, and z_truth returns the symmetric limit
sec(mu/2)/2.  Both return the mpf at the precision they worked in;
truth_or_out_of_range checks a lattice sum against such a truth.
"""

import math
import sys

import mpmath
import pytest

from telesum import ToleranceUnreachable


def z_truth(k, mu):
    # the m >= 0 half is alternating with step 2 pi, i.e. two Hurwitz zetas
    # of step 4 pi; the m < 0 half is the same at -mu, times (-1)**k
    s = k + 1
    extra = 10 + max(0, int(mpmath.ceil(-mpmath.log10(abs(mu))))) if mu else 10
    with mpmath.workdps(mpmath.mp.dps + extra):
        mu = mpmath.mpf(mu)
        if k == 0:  # zeta(1, a) is a pole, and the halves would be inf - inf
            return mpmath.sec(mu / 2) / 2

        def half(nu):
            a = (mpmath.pi - nu) / (4 * mpmath.pi)
            return (mpmath.zeta(s, a) - mpmath.zeta(s, a + 0.5)) / (4 * mpmath.pi) ** s

        return half(mu) + (-1) ** k * half(-mu)


def ztilde_truth(k, mu):
    # the term of the lattice point 2 pi n nearest mu, (-r)**-s with r = mu -
    # 2 pi n, split off, and the m > n and m < n halves as Hurwitz zetas at
    # 1 -+ b, b = r / (2 pi) in [-1/2, 1/2]: no argument nears 0 as mu nears
    # a pole
    s = k + 1
    mu = mpmath.mpf(mu)
    r = mu - 2 * mpmath.pi * mpmath.nint(mu / (2 * mpmath.pi))
    b = r / (2 * mpmath.pi)
    return (-r) ** -s + (mpmath.zeta(s, 1 - b) + (-1) ** s * mpmath.zeta(s, 1 + b)) / (2 * mpmath.pi) ** s


def truth_or_out_of_range(f, k, mu, want):
    """f(k, mu) matches want to 1e-15 relative, or raises the typed error
    exactly when want lies beyond the double range ("complex" runs the same
    code as "auto")."""
    for method in ("auto", "taylor"):
        if abs(want) > sys.float_info.max:
            with pytest.raises(ToleranceUnreachable) as info:
                f(k, mu, method=method)
            assert info.value.achieved == math.inf
        else:
            got = f(k, mu, method=method)
            assert abs(got - want) <= 1e-15 * abs(want), (f.__name__, k, mu, method, got)
