"""The package surface: its public names, and which layers load with it.

The exact layers, quadrature and the CLI's exact commands need no numpy; the
oracle and verify layers do, and load on first use.  Each import check runs
in a fresh interpreter, since this one has long since loaded everything.
"""

import inspect
import json
import subprocess
import sys

import pytest

import telesum

PUBLIC_NAMES = [
    "__version__", "CPoly", "CheckResult", "InternalConsistencyError", "OscKernel",
    "PiScalar", "Poly", "QuadratureError", "Rational", "SumResult",
    "ToleranceUnreachable", "Z", "ZTILDE_TABLE", "Z_TABLE", "Z_table",
    "Ztilde", "Ztilde0", "Ztilde_table", "adaptive_integrate", "apostol_bernoulli_poly",
    "apostol_euler_poly", "bernoulli_number", "bernoulli_poly", "beta_even_integral",
    "beta_odd", "binomial", "collapse_pi_terms", "cospi", "cot_taylor_coeffs", "ek_mu",
    "ek_mu_imag_residue", "ektilde_mu", "ektilde_mu_imag_residue", "eta_even",
    "euler_number", "euler_poly", "exact_apostol_integral", "exact_poly_trig_integral",
    "format_pi_scalar", "format_rational", "format_report", "herglotz_limit",
    "herglotz_residual", "hurwitz_partial", "j_integral", "lambda_even",
    "poly_derivative", "poly_eval", "poly_integral_01", "poly_reflect", "precompute",
    "run_all", "run_closed_vs_oracle", "run_hurwitz", "run_identities", "run_integrals",
    "sec_taylor_coeffs", "sinpi", "sum_Z", "sum_Ztilde", "sum_beta", "sum_cotangent",
    "sum_inverse_square", "sum_zeta", "zeta_even", "zeta_odd_integral",
]


# The parameter names of every public callable the package defines, so that a
# parameter cannot be added, dropped or renamed unnoticed.  None marks a class
# that keeps its builtin base's constructor.
PUBLIC_SIGNATURES = {
    "CPoly": ("coeffs",),
    "CheckResult": ("name", "defect", "tol", "passed", "note"),
    "InternalConsistencyError": None,
    "OscKernel": ("kind", "m"),
    "PiScalar": ("coeff", "pi_power"),
    "Poly": ("coeffs",),
    "QuadratureError": ("message", "achieved"),
    "SumResult": ("value", "error_bound", "terms_used"),
    "ToleranceUnreachable": ("message", "achieved"),
    "Z": ("k", "mu", "method"),
    "Z_table": ("k", "mu"),
    "Ztilde": ("k", "mu", "method"),
    "Ztilde0": ("mu",),
    "Ztilde_table": ("k", "mu"),
    "adaptive_integrate": ("f", "tol", "singular_points"),
    "apostol_bernoulli_poly": ("k", "lam", "dps"),
    "apostol_euler_poly": ("k", "lam", "dps"),
    "bernoulli_number": ("k",),
    "bernoulli_poly": ("k",),
    "beta_even_integral": ("k", "tol"),
    "beta_odd": ("k",),
    "binomial": ("n", "k"),
    "collapse_pi_terms": ("terms",),
    "cospi": ("y",),
    "cot_taylor_coeffs": ("mu", "K"),
    "ek_mu": ("k", "mu"),
    "ek_mu_imag_residue": ("k", "mu"),
    "ektilde_mu": ("k", "mu"),
    "ektilde_mu_imag_residue": ("k", "mu"),
    "eta_even": ("k",),
    "euler_number": ("k",),
    "euler_poly": ("k",),
    "exact_apostol_integral": ("k", "m", "mu"),
    "exact_poly_trig_integral": ("p", "kernel"),
    "format_pi_scalar": ("x",),
    "format_rational": ("q",),
    "format_report": ("results",),
    "herglotz_limit": ("theta", "N"),
    "herglotz_residual": ("theta", "N"),
    "hurwitz_partial": ("kind", "k", "x", "M"),
    "j_integral": ("k", "m", "family"),
    "lambda_even": ("k",),
    "poly_derivative": ("p",),
    "poly_eval": ("p", "x"),
    "poly_integral_01": ("p",),
    "poly_reflect": ("p",),
    "precompute": ("depth",),
    "run_all": ("tol", "seed"),
    "run_closed_vs_oracle": ("tol", "seed"),
    "run_hurwitz": ("tol", "seed"),
    "run_identities": ("tol", "seed"),
    "run_integrals": ("tol", "seed"),
    "sec_taylor_coeffs": ("mu", "K"),
    "sinpi": ("y",),
    "sum_Z": ("k", "mu", "N"),
    "sum_Ztilde": ("k", "mu", "N"),
    "sum_beta": ("s", "target_tol"),
    "sum_cotangent": ("theta", "N"),
    "sum_inverse_square": ("theta", "N"),
    "sum_zeta": ("s", "target_tol"),
    "zeta_even": ("k",),
    "zeta_odd_integral": ("k", "tol"),
}


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_never_load_numpy():
    seen = _fresh(
        "import contextlib, io, json, sys\n"
        "import telesum, telesum.cli\n"
        "after_import = 'numpy' in sys.modules\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['eval', 'zeta', '--k', '2'], ['poly', 'bernoulli', '4'],\n"
        "                 ['integrals', 'poly-cos', '--k', '2', '--m', '3'],\n"
        "                 ['eval', 'Ztilde0', '--mu', '1.0']):\n"
        "        codes.append(telesum.cli.main(argv))\n"
        "after_commands = 'numpy' in sys.modules\n"
        "telesum.sum_zeta\n"
        "print(json.dumps([after_import, codes, after_commands, 'numpy' in sys.modules,\n"
        "                  'telesum.oracles' in sys.modules]))\n"
    )
    assert seen == [False, [0, 0, 0, 0], False, True, True]


def test_the_verify_layer_loads_on_first_use():
    seen = _fresh(
        "import json, sys, telesum\n"
        "before = 'telesum.verify' in sys.modules\n"
        "fn = telesum.run_identities\n"
        "print(json.dumps([before, 'telesum.verify' in sys.modules,\n"
        "                  fn is sys.modules['telesum.verify'].run_identities,\n"
        "                  telesum.verify is sys.modules['telesum.verify']]))\n"
    )
    assert seen == [False, True, True, True]


def test_import_builds_no_derivative_polynomial_rows():
    seen = _fresh(
        "import json, sys, telesum\n"
        "from telesum import closed_forms as cf\n"
        "print(json.dumps([cf._SEC_ROWS.exact, cf._COT_ROWS.exact,\n"
        "                  len(cf._SEC_ROWS.scaled), len(cf._COT_ROWS.scaled),\n"
        "                  'numpy' in sys.modules]))\n"
    )
    assert seen == [[[1]], [[0, 1]], 1, 1, False]


def test_tolerance_unreachable_is_one_class():
    from telesum import exact_core, oracles

    assert telesum.ToleranceUnreachable is exact_core.ToleranceUnreachable
    assert oracles.ToleranceUnreachable is exact_core.ToleranceUnreachable


def test_public_names_are_unchanged():
    assert telesum.__all__ == PUBLIC_NAMES


def _parameters(value):
    try:
        return tuple(inspect.signature(value).parameters)
    except ValueError:  # no signature of its own
        return None


def test_public_signatures_are_pinned():
    # Rational is the standard library's Fraction, whose signature is not ours
    defined_here = {
        name: getattr(telesum, name)
        for name in telesum.__all__
        if callable(getattr(telesum, name))
        and getattr(telesum, name).__module__.startswith("telesum")
    }
    assert {name: _parameters(value) for name, value in defined_here.items()} == PUBLIC_SIGNATURES


def test_every_public_name_resolves_and_is_listed():
    for name in telesum.__all__:
        assert getattr(telesum, name) is not None, name
    assert set(telesum.__all__) <= set(dir(telesum))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from telesum import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["sum_zeta"] is telesum.oracles.sum_zeta


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        telesum.no_such_name


def test_lazy_layers_stay_importable_as_modules():
    import telesum.oracles
    from telesum import verify

    assert telesum.oracles.sum_zeta is telesum.sum_zeta
    assert verify.run_all is telesum.run_all
    assert telesum.verify is verify
