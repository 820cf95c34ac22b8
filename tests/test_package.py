"""The package surface: its public names, and which layers load with it.

``import telesum`` loads only the exact layers, exact_core and
classical_polys.  The Apostol routes, closed_forms and quadrature load on
first use and run in integers; mpmath loads only for the deformed
polynomials and verify, numpy only for the oracle and verify layers.  Each
import check runs in a fresh interpreter, since this one has long since
loaded everything.
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
    "adaptive_integrate": ("f", "tol"),
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


def test_import_loads_only_the_exact_layers():
    seen = _fresh(
        "import json, sys, telesum\n"
        "print(json.dumps([name in sys.modules for name in (\n"
        "    'mpmath', 'numpy', 'telesum.apostol_polys', 'telesum.closed_forms',\n"
        "    'telesum.quadrature', 'telesum.exact_core', 'telesum.classical_polys')]))\n"
    )
    assert seen == [False] * 5 + [True] * 2


def test_commands_without_the_apostol_routes_never_load_mpmath():
    # the lattice sums by every method and the Taylor tables run in integers
    # from the point to the double; only the deformed polynomials (apostol)
    # and verify load mpmath
    seen = _fresh(
        "import contextlib, io, json, sys\n"
        "import telesum.cli\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['eval', 'zeta', '--k', '2'], ['poly', 'bernoulli', '4'],\n"
        "                 ['table', 'zeta', '--max-k', '3'],\n"
        "                 ['integrals', 'poly-cos', '--k', '2', '--m', '3'],\n"
        "                 ['integrals', 'apostol', '--k', '2', '--m', '1', '--mu', '0.3'],\n"
        "                 ['integrals', 'zeta-odd', '--k', '2'], ['series', 'zeta', '--s', '2'],\n"
        "                 ['eval', 'Z', '--k', '3', '--mu', '0.5', '--method', 'auto'],\n"
        "                 ['eval', 'Z', '--k', '3', '--mu', '-3.1', '--method', 'complex'],\n"
        "                 ['eval', 'Z', '--k', '4', '--mu', '1e-300', '--method', 'taylor'],\n"
        "                 ['eval', 'Z', '--k', '2', '--mu', '0.5', '--method', 'table'],\n"
        "                 ['eval', 'Ztilde', '--k', '5', '--mu', '20.0'],\n"
        "                 ['eval', 'Ztilde0', '--mu', '1.0'],\n"
        "                 ['coeffs', 'sec', '--mu', '0.3', '--order', '12'],\n"
        "                 ['coeffs', 'cot', '--mu', '-7.0', '--order', '12']):\n"
        "        codes.append(telesum.cli.main(argv))\n"
        "print(json.dumps([codes, 'mpmath' in sys.modules, 'telesum.quadrature' in sys.modules,\n"
        "                  'telesum.oracles' in sys.modules, 'telesum.apostol_polys' in sys.modules]))\n"
    )
    assert seen == [[0] * 15, False, True, True, True]
    seen = _fresh(
        "import contextlib, io, json, sys\n"
        "import telesum.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = telesum.cli.main(['apostol', 'euler', '3', '--lambda-re', '0.5'])\n"
        "print(json.dumps([code, 'mpmath' in sys.modules]))\n"
    )
    assert seen == [0, True]


def test_eval_Z_and_the_integrals_load_no_dataclasses():
    # closed_forms.TableEntry and quadrature.OscKernel are plain immutable
    # classes, so these commands skip dataclasses and the inspect it imports
    seen = _fresh(
        "import contextlib, io, json, sys\n"
        "import telesum.cli\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['eval', 'Z', '--k', '3', '--mu', '0.5'], ['integrals', 'zeta-odd', '--k', '2'],\n"
        "                 ['integrals', 'poly-sin', '--k', '2', '--m', '3']):\n"
        "        codes.append(telesum.cli.main(argv))\n"
        "print(json.dumps([codes, 'dataclasses' in sys.modules, 'inspect' in sys.modules]))\n"
    )
    assert seen == [[0, 0, 0], False, False]
    # nor do the oracles' SumResult and verify's CheckResult load it, though
    # numpy loads inspect
    seen = _fresh(
        "import contextlib, io, json, sys\n"
        "import telesum.cli, telesum.verify\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = telesum.cli.main(['series', 'zeta', '--s', '14', '--tol', '1e-12'])\n"
        "print(json.dumps([code, 'dataclasses' in sys.modules]))\n"
    )
    assert seen == [0, False]


def test_reading_Z_loads_the_apostol_routes():
    # and not mpmath: the routes run in integers
    seen = _fresh(
        "import json, sys, telesum\n"
        "before = ['mpmath' in sys.modules, 'telesum.apostol_polys' in sys.modules]\n"
        "Z = telesum.Z\n"
        "value = Z(5, 0.7) + Z(5, 0.7, method='taylor') + telesum.Ztilde(4, 9.0)\n"
        "print(json.dumps(before + ['mpmath' in sys.modules, 'telesum.apostol_polys' in sys.modules,\n"
        "                           Z is sys.modules['telesum.closed_forms'].Z]))\n"
    )
    assert seen == [False, False, False, True, True]


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


def test_integral_routes_do_not_load_the_oracles():
    # their integrands take math's sin and the rule's nodes are stored
    # doubles, so neither numpy nor the oracles load
    seen = _fresh(
        "import json, sys, telesum\n"
        "values = [telesum.zeta_odd_integral(2), telesum.beta_even_integral(2)]\n"
        "print(json.dumps([values, 'numpy' in sys.modules,\n"
        "                  'telesum.oracles' in sys.modules]))\n"
    )
    assert seen[1:] == [False, False]
    # zeta(5) and beta(6)
    assert seen[0] == pytest.approx([1.0369277551433699, 0.9986852222184381], abs=1e-8)


def test_import_builds_no_derivative_polynomial_rows():
    seen = _fresh(
        "import json, sys, telesum\n"
        "from telesum import apostol_polys as ap\n"
        "print(json.dumps([ap._SEC_ROWS.exact, ap._COT_ROWS.exact,\n"
        "                  len(ap._SEC_ROWS.scaled), len(ap._COT_ROWS.scaled),\n"
        "                  'numpy' in sys.modules]))\n"
    )
    assert seen == [[[1]], [[0, 1]], 0, 0, False]


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


# Every public integer parameter, as (label, call with the value in its place,
# a valid value).  One rule holds for all of them (exact_core._check_int).
_T = telesum
INTEGER_PARAMETERS = [
    ("binomial n", lambda v: _T.binomial(v, 2), 5),
    ("binomial k", lambda v: _T.binomial(5, v), 2),
    ("PiScalar pi_power", lambda v: _T.PiScalar(_T.Rational(1, 3), v), 2),
    ("Poly.monomial n", lambda v: _T.Poly.monomial(v, 3), 2),
    ("precompute depth", lambda v: _T.precompute(v), 2),
    ("bernoulli_number k", lambda v: _T.bernoulli_number(v), 2),
    ("bernoulli_poly k", lambda v: _T.bernoulli_poly(v), 2),
    ("euler_poly k", lambda v: _T.euler_poly(v), 2),
    ("euler_number k", lambda v: _T.euler_number(v), 2),
    ("apostol_euler_poly k", lambda v: _T.apostol_euler_poly(v, 0.5), 2),
    ("apostol_euler_poly dps", lambda v: _T.apostol_euler_poly(2, 0.5, dps=v), 20),
    ("apostol_bernoulli_poly k", lambda v: _T.apostol_bernoulli_poly(v, 0.5), 2),
    ("apostol_bernoulli_poly dps", lambda v: _T.apostol_bernoulli_poly(2, 0.5, dps=v), 20),
    ("ek_mu k", lambda v: _T.ek_mu(v, 0.3), 2),
    ("ektilde_mu k", lambda v: _T.ektilde_mu(v, 0.3), 2),
    ("ek_mu_imag_residue k", lambda v: _T.ek_mu_imag_residue(v, 0.3), 2),
    ("ektilde_mu_imag_residue k", lambda v: _T.ektilde_mu_imag_residue(v, 0.3), 2),
    ("sec_taylor_coeffs K", lambda v: _T.sec_taylor_coeffs(0.3, v), 2),
    ("cot_taylor_coeffs K", lambda v: _T.cot_taylor_coeffs(0.3, v), 2),
    ("zeta_even k", lambda v: _T.zeta_even(v), 2),
    ("beta_odd k", lambda v: _T.beta_odd(v), 2),
    ("eta_even k", lambda v: _T.eta_even(v), 2),
    ("lambda_even k", lambda v: _T.lambda_even(v), 2),
    ("Z k", lambda v: _T.Z(v, 0.3), 2),
    ("Ztilde k", lambda v: _T.Ztilde(v, 0.3), 2),
    ("Z_table k", lambda v: _T.Z_table(v, 0.3), 2),
    ("Ztilde_table k", lambda v: _T.Ztilde_table(v, 0.3), 2),
    ("OscKernel m", lambda v: _T.OscKernel("cos", v), 2),
    ("exact_apostol_integral k", lambda v: _T.exact_apostol_integral(v, 1, 0.3), 2),
    ("exact_apostol_integral m", lambda v: _T.exact_apostol_integral(2, v, 0.3), 2),
    ("j_integral k", lambda v: _T.j_integral(v, 1, "bernoulli_odd"), 2),
    ("j_integral m", lambda v: _T.j_integral(2, v, "euler_odd"), 2),
    ("zeta_odd_integral k", lambda v: _T.zeta_odd_integral(v), 2),
    ("beta_even_integral k", lambda v: _T.beta_even_integral(v), 2),
    ("sum_zeta s", lambda v: _T.sum_zeta(v, 1e-6), 2),
    ("sum_beta s", lambda v: _T.sum_beta(v, 1e-6), 2),
    ("sum_Z k", lambda v: _T.sum_Z(v, 0.3, N=100), 2),
    ("sum_Z N", lambda v: _T.sum_Z(2, 0.3, N=v), 100),
    ("sum_Ztilde k", lambda v: _T.sum_Ztilde(v, 0.3, N=100), 2),
    ("sum_Ztilde N", lambda v: _T.sum_Ztilde(2, 0.3, N=v), 100),
    ("sum_inverse_square N", lambda v: _T.sum_inverse_square(0.3, v), 100),
    ("sum_cotangent N", lambda v: _T.sum_cotangent(0.3, v), 100),
    ("herglotz_residual N", lambda v: _T.herglotz_residual(0.3, v), 100),
    ("herglotz_limit N", lambda v: _T.herglotz_limit(0.3, v), 100),
    ("hurwitz_partial k", lambda v: _T.hurwitz_partial("B_even", v, 0.3, M=100), 2),
    ("hurwitz_partial M", lambda v: _T.hurwitz_partial("B_even", 2, 0.3, M=v), 100),
]


@pytest.mark.parametrize("call, n", [c[1:] for c in INTEGER_PARAMETERS],
                         ids=[c[0] for c in INTEGER_PARAMETERS])
def test_every_integer_parameter_takes_integers_only(call, n):
    # a bool, a float (integral or not), a Fraction and a string raise the one
    # ValueError; a numpy integer gives the same result as the int, and no
    # numpy scalar leaks into it (repr would show np.int64)
    import numpy as np

    for bad in (True, 2.5, 2.0, _T.Rational(2), "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    assert repr(call(np.int64(n))) == repr(call(n))


def _value_types():
    # (an instance, an equal one built apart, a different one) of each value type
    from fractions import Fraction

    from telesum.apostol_polys import CPoly
    from telesum.closed_forms import TableEntry
    from telesum.verify import CheckResult

    entry = lambda c: TableEntry(((Fraction(c), "cos", 1),), 2, 3, "cos")
    return [
        (_T.PiScalar(Fraction(-3, 4), 2), _T.PiScalar(Fraction(-6, 8), 2), _T.PiScalar(Fraction(-3, 4), 3)),
        (_T.Poly([Fraction(1, 2), 0, -3]), _T.Poly([Fraction(1, 2), 0, -3, 0]), _T.Poly([Fraction(1, 2)])),
        (CPoly([1, 2j]), CPoly([1.0, 2j]), CPoly([1, 2j, 0])),
        (_T.SumResult(1.5, 1e-9, 7), _T.SumResult(1.5, 1e-9, 7), _T.SumResult(1.5, 1e-9, 8)),
        (CheckResult("c", 0.0, 1e-9, True), CheckResult("c", 0.0, 1e-9, True), CheckResult("c", 0.0, 1e-9, False)),
        (entry(1), entry(1), entry(2)),
        (_T.OscKernel.cos(3), _T.OscKernel("cos", 3), _T.OscKernel.sin(3)),
    ]


def test_value_types_share_one_contract():
    # immutable, equal only to their own type (NotImplemented, not False,
    # from __eq__ against any other), and equal values hash equal
    for value, same, other in _value_types():
        name = type(value).__name__
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            value.note = 1
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(value, value.__slots__[0], None)
        assert value == same and hash(value) == hash(same), name
        assert value != other, name
        foreign = object()
        assert value.__eq__(foreign) is NotImplemented, name
        assert (value == foreign) is False and (value != foreign) is True, name
        assert (value == tuple(getattr(value, f) for f in value.__slots__)) is False, name
    # three types keep reprs of their own; the others read like a dataclass's
    reprs = [repr(value) for value, _, _ in _value_types()]
    assert reprs[:3] == [
        "PiScalar(-3/4, 2)",
        "Poly(['1/2', '0', '-3'])",
        "CPoly([mpc(real='1.0', imag='0.0'), mpc(real='0.0', imag='2.0')])",
    ]
    assert reprs[3] == "SumResult(value=1.5, error_bound=1e-09, terms_used=7)"
    assert reprs[6] == "OscKernel(kind='cos', m=3)"


def test_upper_bounds_of_integer_parameters():
    # each bound is inclusive, and its message names the reason for it
    reasons = {
        "k must be <= 618, where the certified route's coefficients leave the double range": (
            lambda: _T.Z(619, 0.5), lambda: _T.Ztilde(619, 0.5), lambda: _T.ek_mu(619, 0.5),
            lambda: _T.ektilde_mu_imag_residue(619, 0.5)),
        "k must be <= 84, where (2k+1)! leaves the double range": (
            lambda: _T.zeta_odd_integral(85), lambda: _T.beta_even_integral(85)),
    }
    for message, calls in reasons.items():
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
    # at the bound itself: a value, or past the double range, never the bound
    assert _T.ek_mu_imag_residue(618, 0.5) <= 2e-9
    with pytest.raises(_T.ToleranceUnreachable):
        _T.Z(618, -3.0)
