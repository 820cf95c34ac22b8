"""Command-line front end: batch access to every operation with
machine-readable output.

Exit codes are a stable contract: 0 on success, 1 when a verification
suite fails or a certified computation cannot meet its tolerance, 2 on
usage errors (bad flags, domain violations).  JSON output is canonical:
keys sorted, floats in shortest round-trip form, so parse-and-redump is
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .classical_polys import bernoulli_poly, euler_poly
from .exact_core import _STR_BITS, PiScalar, _decimal, format_pi_scalar, format_rational

__all__ = [
    "OutputRecord",
    "main",
    "cmd_poly",
    "cmd_apostol",
    "cmd_coeffs",
    "cmd_eval",
    "cmd_series",
    "cmd_integrals",
    "cmd_table",
    "cmd_verify",
]

DEFAULT_MAX_K = 30


def OutputRecord(
    kind: str,
    params: Dict[str, object],
    approx: str,
    exact: Optional[Dict[str, object]] = None,
    error_bound: Optional[str] = None,
    method: str = "closed_form",
) -> Dict[str, object]:
    """One scalar result as a JSON document: exact part (when the value is
    rational times a power of pi), decimal rendering, and the route that
    produced it; the absent fields are left out."""
    fields = {"kind": kind, "params": params, "approx": approx, "exact": exact,
              "error_bound": error_bound, "method": method}
    return {name: value for name, value in fields.items() if value is not None}


# What a command shows: its JSON document and its text lines.
_Shown = Tuple[Dict[str, object], List[str]]


def _emit(args: argparse.Namespace, doc: Dict[str, object], lines: Sequence[str]) -> None:
    """The one output path of every command but ``verify``: ``doc`` as
    canonical JSON for ``--format json``, otherwise the text ``lines``."""
    if args.format == "json":
        print(_json(doc))
    else:
        for line in lines:
            print(line)


def _json(doc: Dict[str, object]) -> str:
    """doc as canonical JSON.  json writes an int by str(), which refuses one
    past the interpreter's digit limit: each int of more than _STR_BITS bits
    goes in as a quoted placeholder, then gives way to its digits."""
    big: List[int] = []

    def mark(value: object) -> object:
        if isinstance(value, dict):
            return {key: mark(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [mark(item) for item in value]
        if type(value) is int and value.bit_length() > _STR_BITS:
            big.append(value)
            return "\0%d" % (len(big) - 1)
        return value

    text = json.dumps(mark(doc), sort_keys=True)
    for i, n in enumerate(big):
        text = text.replace('"\\u0000%d"' % i, _decimal(n), 1)
    return text


def _fmt(value: float, digits: int) -> str:
    return "%.*g" % (digits, value)


def _exact_dict(x: PiScalar) -> Dict[str, object]:
    return {
        "num": x.coeff.numerator,
        "den": x.coeff.denominator,
        "pi_power": x.pi_power,
    }


def _latex_pi(x: PiScalar) -> str:
    num = x.coeff.numerator
    den = x.coeff.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    core = _decimal(num) if den == 1 else r"\frac{%s}{%s}" % (_decimal(num), _decimal(den))
    if x.pi_power == 0:
        return sign + core
    pi = r"\pi" if x.pi_power == 1 else r"\pi^{%d}" % x.pi_power
    if num == 1 and den == 1:
        return sign + pi
    return sign + core + pi


def _public(name: str):
    """The package's public ``name`` or layer, looked up at each call: the
    layers that need mpmath or numpy load only for the commands that use
    them."""
    return getattr(sys.modules[__package__], name)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _require_options(args: argparse.Namespace, family: str, least: Dict[str, Optional[int]]) -> None:
    """Each named option must be given and, unless its bound is None, at least that."""
    for name, low in least.items():
        value = getattr(args, name)
        _require(
            value is not None and (low is None or value >= low),
            "%s needs --%s%s" % (family, name, "" if low is None else " >= %d" % low),
        )


_POLYS = {"bernoulli": bernoulli_poly, "euler": euler_poly}

# family -> (name of the deformed polynomial in apostol_polys, least k)
_APOSTOL = {
    "euler": ("apostol_euler_poly", 0),
    "bernoulli": ("apostol_bernoulli_poly", 1),
}

# The exact constant families: family -> (public name of the value at k,
# least k, usage message).
_CONSTANTS = {
    "zeta": ("zeta_even", 1, "zeta needs --k >= 1 (value is zeta(2k))"),
    "beta": ("beta_odd", 0, "beta needs --k >= 0 (value is beta(2k+1))"),
    "eta": ("eta_even", 1, "eta needs --k >= 1 (value is eta(2k))"),
    "lambda": ("lambda_even", 1, "lambda needs --k >= 1 (value is lambda(2k))"),
}

_LATTICE = ("Z", "Ztilde")

# family -> (public name of the oracle, its leading options, and its last:
# the parameter it shows as, the option that sets it, and its default)
_SERIES = {
    "zeta": ("sum_zeta", ("s",), ("target_tol", "tol", 1e-10)),
    "beta": ("sum_beta", ("s",), ("target_tol", "tol", 1e-10)),
    "Z": ("sum_Z", ("k", "mu"), ("N", "terms", 10000)),
    "Ztilde": ("sum_Ztilde", ("k", "mu"), ("N", "terms", 10000)),
    "theta2": ("sum_inverse_square", ("theta",), ("N", "terms", 100000)),
    "cot": ("sum_cotangent", ("theta",), ("N", "terms", 100000)),
}


def cmd_poly(args: argparse.Namespace) -> int:
    _require(args.k >= 0, "k must be >= 0")
    coeffs = [format_rational(c) for c in _POLYS[args.family](args.k).coeffs]
    doc = {"kind": "%s_poly" % args.family, "params": {"k": args.k}, "coeffs": coeffs}
    _emit(args, doc, [" ".join(coeffs)])
    return 0


def cmd_apostol(args: argparse.Namespace) -> int:
    name, least = _APOSTOL[args.family]
    _require(args.k >= least, "k must be >= %d" % least)
    layer = _public("apostol_polys")
    p = getattr(layer, name)(args.k, complex(args.lambda_re, args.lambda_im), dps=args.dps)
    coeffs = [layer._finite_complex(c, "coefficient %d" % j) for j, c in enumerate(p.coeffs)]
    doc = {
        "kind": "apostol_%s_poly" % args.family,
        "params": {"k": args.k, "lambda_re": args.lambda_re, "lambda_im": args.lambda_im},
        "coeffs": [[c.real, c.imag] for c in coeffs],
    }
    _emit(args, doc, [
        "%d %s %s" % (j, _fmt(c.real, args.digits), _fmt(c.imag, args.digits))
        for j, c in enumerate(coeffs)
    ])
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    _require(args.order >= 0, "order must be >= 0")
    values = _public("%s_taylor_coeffs" % args.family)(args.mu, args.order)
    doc = {
        "kind": "%s_taylor" % args.family,
        "params": {"mu": args.mu, "order": args.order},
        "coeffs": list(values),
    }
    _emit(args, doc, ["%d %s" % (j, _fmt(v, args.digits)) for j, v in enumerate(values)])
    return 0


def _show_exact(
    args: argparse.Namespace, kind: str, params: Dict[str, object], x: PiScalar, method: str
) -> _Shown:
    """An exact value: its record, and "exact = decimal" or its LaTeX."""
    rec = OutputRecord(kind, params, _fmt(float(x), args.digits), _exact_dict(x), method=method)
    if args.format == "latex":
        return rec, [_latex_pi(x)]
    return rec, ["%s = %s" % (format_pi_scalar(x), rec["approx"])]


def cmd_eval(args: argparse.Namespace) -> int:
    family = args.family
    _require(family in _LATTICE or args.method == "auto", "%s takes no --method" % family)
    if family in _CONSTANTS:
        _require(args.mu is None, "%s takes no --mu" % family)
        name, least, message = _CONSTANTS[family]
        _require(args.k is not None and args.k >= least, message)
        exact = _public(name)(args.k)
        _emit(args, *_show_exact(args, family, {"k": args.k}, exact, "closed_form"))
        return 0
    if family in _LATTICE:
        _require_options(args, family, {"k": None, "mu": None})
        params: Dict[str, object] = {"k": args.k, "mu": args.mu}
        value = _public(family)(args.k, args.mu, method=args.method)
        method = args.method
    else:  # Ztilde0
        _require_options(args, family, {"mu": None})
        _require(args.k in (None, 0), "Ztilde0 takes no --k (or --k 0)")
        params = {"mu": args.mu}
        value = _public("Ztilde0")(args.mu)
        method = "closed_form"
    rec = OutputRecord(family, params, _fmt(value, args.digits), method=method)
    _emit(args, rec, [rec["approx"]])
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    oracle, names, (last, option, default) = _SERIES[args.family]
    for name in ("s", "k", "mu", "theta", "terms", "tol"):
        _require(name in (*names, option) or getattr(args, name) is None,
                 "%s takes no --%s" % (args.family, name))
    params: Dict[str, object] = {name: getattr(args, name) for name in names}
    _require(
        None not in params.values(),
        "series %s needs %s" % (args.family, " and ".join("--" + name for name in names)),
    )
    value = getattr(args, option)
    params[last] = default if value is None else value
    result = _public(oracle)(*params.values())
    doc = {"kind": args.family, "params": params, "value": result.value,
           "error_bound": result.error_bound, "terms_used": result.terms_used}
    _emit(args, doc, [
        "value = %s" % _fmt(result.value, args.digits),
        "error_bound = %s" % _fmt(result.error_bound, 3),
        "terms_used = %d" % result.terms_used,
    ])
    return 0


def _show_ladder(
    args: argparse.Namespace, kind: str, params: Dict[str, object], x: PiScalar
) -> _Shown:
    # B_2k against cos(m*pi*x) and E_2k against sin(m*pi*x) leave a single
    # power of pi: every other boundary term of the ladder is zero
    return _show_exact(args, kind, params, x, "exact_ladder")


def _show_complex(
    args: argparse.Namespace, kind: str, params: Dict[str, object], z: complex
) -> _Shown:
    doc = {"kind": kind, "params": params, "value": [z.real, z.imag], "method": "exact_ladder"}
    return doc, ["%s %s" % (_fmt(z.real, args.digits), _fmt(z.imag, args.digits))]


def _show_quadrature(
    args: argparse.Namespace, kind: str, params: Dict[str, object], v: float
) -> _Shown:
    rec = OutputRecord(kind, params, _fmt(v, args.digits), error_bound=_fmt(params["tol"], 3),
                       method="adaptive_quadrature")
    return rec, ["%s (tol %s)" % (rec["approx"], rec["error_bound"])]


def _poly_trig(poly: str, kernel: str):
    def evaluate(k: int, m: int):
        osc = getattr(_public("OscKernel"), kernel)(m)
        return _public("exact_poly_trig_integral")(_public(poly)(2 * k), osc)

    return evaluate


def _by_name(name: str):
    return lambda *args: _public(name)(*args)


# family -> (required options and their least values, further options and
# their defaults, evaluator taking all the options in order, what to show,
# JSON kind); the evaluators look their public functions up at each call
_INTEGRALS = {
    "poly-cos": ({"k": 1, "m": 1}, {}, _poly_trig("bernoulli_poly", "cos"),
                 _show_ladder, "poly_cos_integral"),
    "poly-sin": ({"k": 0, "m": 1}, {}, _poly_trig("euler_poly", "sin"),
                 _show_ladder, "poly_sin_integral"),
    "apostol": ({"k": 0, "m": None}, {"mu": 0.0}, _by_name("exact_apostol_integral"),
                _show_complex, "apostol_exp_integral"),
    "zeta-odd": ({"k": 1}, {"tol": 1e-8}, _by_name("zeta_odd_integral"),
                 _show_quadrature, "zeta_odd_integral"),
    "beta-even": ({"k": 0}, {"tol": 1e-8}, _by_name("beta_even_integral"),
                  _show_quadrature, "beta_even_integral"),
}


def cmd_integrals(args: argparse.Namespace) -> int:
    least, further, evaluate, show, kind = _INTEGRALS[args.family]
    _require_options(args, args.family, least)
    params = {name: getattr(args, name) for name in least}
    for name in ("m", "mu", "tol"):
        value = getattr(args, name)
        _require(name in least or name in further or value is None,
                 "%s takes no --%s" % (args.family, name))
        if name in further:
            params[name] = further[name] if value is None else value
    _emit(args, *show(args, kind, params, evaluate(*params.values())))
    return 0


# (LaTeX?, constant family?) -> (header lines, row template, footer lines)
_TEXT_TABLES = {
    (False, True): ((), "k=%d  %s  %s", ()),
    (False, False): ((), "k=%d  %s", ()),
    (True, True): ((r"\begin{tabular}{rll}", r"k & exact & decimal \\"),
                   r"%d & $%s$ & %s \\", (r"\end{tabular}",)),
    (True, False): ((r"\begin{tabular}{rl}", r"k & coefficients \\"),
                    r"%d & %s \\", (r"\end{tabular}",)),
}


def cmd_table(args: argparse.Namespace) -> int:
    raw_cap = os.environ.get("TELESUM_MAX_K", str(DEFAULT_MAX_K))
    try:
        cap = int(raw_cap)
    except ValueError:
        raise ValueError("TELESUM_MAX_K must be an integer, not %r" % raw_cap) from None
    _require(args.max_k >= 0, "--max-k must be >= 0")
    _require(
        args.max_k <= cap,
        "--max-k %d exceeds the cap %d (override with TELESUM_MAX_K)" % (args.max_k, cap),
    )
    scalar = args.family in _CONSTANTS
    rows, body = [], []
    if scalar:
        name, least, _ = _CONSTANTS[args.family]
        show = _latex_pi if args.format == "latex" else format_pi_scalar
        for k in range(least, args.max_k + 1):
            v = _public(name)(k)
            approx = _fmt(float(v), args.digits)
            rows.append((k, show(v), approx))
            body.append({"k": k, "exact": _exact_dict(v), "approx": approx})
        columns = ("k", "exact", "approx")
    else:
        for k in range(args.max_k + 1):
            coeffs = [format_rational(c) for c in _POLYS[args.family](k).coeffs]
            rows.append((k, " ".join(coeffs)))
            body.append({"k": k, "coeffs": coeffs})
        columns = ("k", "coeffs")
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        lines = buf.getvalue().splitlines()
    else:
        head, template, foot = _TEXT_TABLES[args.format == "latex", scalar]
        lines = [*head, *(template % row for row in rows), *foot]
    doc = {"kind": "table", "params": {"family": args.family, "max_k": args.max_k}, "rows": body}
    _emit(args, doc, lines)
    return 0


# suite -> public name of its runner
_SUITES = {
    "identities": "run_identities",
    "closed-vs-oracle": "run_closed_vs_oracle",
    "integrals": "run_integrals",
    "hurwitz": "run_hurwitz",
    "all": "run_all",
}


def cmd_verify(args: argparse.Namespace) -> int:
    results = _public(_SUITES[args.suite])(tol=args.tol, seed=args.seed)
    print(_public("format_report")(results))
    return 0 if all(r.passed for r in results) else 1


def _add_format(sp: argparse.ArgumentParser, choices=("plain", "json")) -> None:
    sp.add_argument("--format", choices=list(choices), default="plain")
    sp.add_argument("--digits", type=int, default=15,
                    help="significant digits of each printed decimal and of the JSON approx strings")


class _Parser(argparse.ArgumentParser):
    """Reads -1e-10 as a negative number, not a flag; subparsers share the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="telesum",
        description=(
            "Exact closed forms, certified series oracles, and integral "
            "routes for even zeta values, odd beta values, and bilateral "
            "lattice sums."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poly", help="classical polynomial coefficients, exact rationals")
    sp.add_argument("family", choices=list(_POLYS))
    sp.add_argument("k", type=int)
    _add_format(sp)
    sp.set_defaults(func=cmd_poly)

    sp = sub.add_parser("apostol", help="deformed polynomial coefficients at a complex parameter")
    sp.add_argument("family", choices=list(_APOSTOL))
    sp.add_argument("k", type=int)
    sp.add_argument("--lambda-re", type=float, required=True)
    sp.add_argument("--lambda-im", type=float, default=0.0)
    sp.add_argument("--dps", type=int, default=None,
                    help="working decimal digits, >= 1 (default 40)")
    _add_format(sp)
    sp.set_defaults(func=cmd_apostol)

    sp = sub.add_parser("coeffs", help="Taylor coefficients of sec(w/2) or -cot(w/2) about mu")
    sp.add_argument("family", choices=["sec", "cot"])
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--order", type=int, default=8)
    _add_format(sp)
    sp.set_defaults(func=cmd_coeffs)

    sp = sub.add_parser("eval", help="closed-form values: series constants and lattice sums")
    sp.add_argument("family", choices=[*_CONSTANTS, *_LATTICE, "Ztilde0"])
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--method", default="auto")
    _add_format(sp, ("plain", "json", "latex"))
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("series", help="brute-force series oracles with certified bounds")
    sp.add_argument("family", choices=list(_SERIES))
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--terms", type=int, default=None)
    _add_format(sp)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("integrals", help="exact oscillatory integrals and numeric integral routes")
    sp.add_argument("family", choices=list(_INTEGRALS))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    _add_format(sp)
    sp.set_defaults(func=cmd_integrals)

    sp = sub.add_parser("table", help="value tables for the series families and polynomial families")
    sp.add_argument("family", choices=[*_CONSTANTS, *_POLYS])
    sp.add_argument("--max-k", type=int, required=True)
    _add_format(sp, ("plain", "json", "csv", "latex"))
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run the self-verification suites")
    sp.add_argument("suite", choices=sorted(_SUITES))
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        _require(getattr(args, "digits", 1) >= 1, "--digits must be >= 1")
        return int(args.func(args))
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
