"""Exact closed forms, certified series oracles, and integral routes for
even zeta values, odd beta values, and the bilateral lattice sums that
generate them.

Layers, bottom up: exact rational/pi-power arithmetic (exact_core),
classical Bernoulli/Euler polynomials (classical_polys), their complex
lambda-deformations and the derivative polynomials of sec and cot
(apostol_polys), exact closed forms with cross-checked routes
(closed_forms), brute-force summation oracles with certified error bounds
(oracles), exact and adaptive integration (quadrature), seeded
self-verification suites (verify), and a CLI (cli).

``import telesum`` loads only exact_core and classical_polys, which need
neither mpmath nor numpy, so the exact constants, polynomials and pi powers
cost no more.  Every other layer loads the first time one of its names is
used: apostol_polys, whose lattice routes run in integers and which loads
mpmath only for the deformed polynomials, and closed_forms, which loads it;
quadrature, whose integrals are exact or take stored doubles and need
neither; and oracles and verify, with numpy (verify with everything).
"""

import importlib as _importlib
from types import ModuleType as _ModuleType

from .exact_core import (
    InternalConsistencyError,
    PiScalar,
    Poly,
    Rational,
    ToleranceUnreachable,
    binomial,
    collapse_pi_terms,
    format_pi_scalar,
    format_rational,
    poly_derivative,
    poly_eval,
    poly_integral_01,
    poly_reflect,
)
from .classical_polys import (
    bernoulli_number,
    bernoulli_poly,
    beta_odd,
    eta_even,
    euler_number,
    euler_poly,
    lambda_even,
    precompute,
    zeta_even,
)

__version__ = "0.1.0"

# Public name -> the layer that defines it, loaded on first use: the layers
# that need mpmath or numpy.
_LAZY = {
    **dict.fromkeys(
        (
            "CPoly",
            "apostol_bernoulli_poly",
            "apostol_euler_poly",
            "cot_taylor_coeffs",
            "ek_mu",
            "ek_mu_imag_residue",
            "ektilde_mu",
            "ektilde_mu_imag_residue",
            "sec_taylor_coeffs",
        ),
        "apostol_polys",
    ),
    **dict.fromkeys(
        ("Z", "Z_TABLE", "ZTILDE_TABLE", "Z_table", "Ztilde", "Ztilde0", "Ztilde_table"),
        "closed_forms",
    ),
    **dict.fromkeys(
        (
            "OscKernel",
            "QuadratureError",
            "adaptive_integrate",
            "beta_even_integral",
            "exact_apostol_integral",
            "exact_poly_trig_integral",
            "j_integral",
            "zeta_odd_integral",
        ),
        "quadrature",
    ),
    **dict.fromkeys(
        (
            "SumResult",
            "cospi",
            "herglotz_limit",
            "herglotz_residual",
            "hurwitz_partial",
            "sinpi",
            "sum_Z",
            "sum_Ztilde",
            "sum_beta",
            "sum_cotangent",
            "sum_inverse_square",
            "sum_zeta",
        ),
        "oracles",
    ),
    **dict.fromkeys(
        (
            "CheckResult",
            "format_report",
            "run_all",
            "run_closed_vs_oracle",
            "run_hurwitz",
            "run_identities",
            "run_integrals",
        ),
        "verify",
    ),
}

# Every public name imported above, and the lazy ones; the submodules those
# imports bind are not exports.
__all__ = ["__version__"] + sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _ModuleType)
    ]
    + list(_LAZY)
)


def __getattr__(name: str):
    # A lazy layer is reachable by its own name too, as it was when the
    # package imported it eagerly.
    layer = name if name in _LAZY.values() else _LAZY.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _importlib.import_module("." + layer, __name__)
    value = module if layer == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
