"""Command-line front end: batch access to every operation with
machine-readable output.

Exit codes are a stable contract: 0 on success, 1 when a verification
suite fails or a certified computation cannot meet its tolerance, 2 on
usage errors (bad flags, domain violations).  JSON output is canonical:
keys sorted, floats in shortest round-trip form, so parse-and-redump is
byte-identical.

Each family of ``eval``, ``series`` and ``integrals`` is one record of
``_FAMILIES``: the options it needs, the options it takes and their
defaults, and how its value is shown; ``cmd_family`` binds an argv to it.
An argv with several usage faults reports the first by one rule:
argparse's own errors, then each option the family does not read, in
parser order, then each option it needs that is missing or too small, in
the family's order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from collections import namedtuple
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .classical_polys import bernoulli_poly, euler_poly
from .exact_core import _STR_BITS, PiScalar, _decimal, format_pi_scalar, format_rational

__all__ = [
    "OutputRecord",
    "main",
    "cmd_poly",
    "cmd_apostol",
    "cmd_coeffs",
    "cmd_family",
    "cmd_table",
    "cmd_verify",
]

MAX_TABLE_K = 30


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
    # no double's exact decimal expansion has more than 767 significant
    # digits, so a larger precision prints the same bytes
    return "%.*g" % (min(digits, 767), value)


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


_POLYS = {"bernoulli": bernoulli_poly, "euler": euler_poly}

# family -> (name of the deformed polynomial in apostol_polys, least k)
_APOSTOL = {
    "euler": ("apostol_euler_poly", 0),
    "bernoulli": ("apostol_bernoulli_poly", 1),
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
    args: argparse.Namespace, kind: str, params: Dict[str, object], x: PiScalar,
    method: str = "closed_form",
) -> _Shown:
    """An exact value: its record, and "exact = decimal" or its LaTeX."""
    rec = OutputRecord(kind, params, _fmt(float(x), args.digits), _exact_dict(x), method=method)
    if args.format == "latex":
        return rec, [_latex_pi(x)]
    return rec, ["%s = %s" % (format_pi_scalar(x), rec["approx"])]


# B_2k against cos(m*pi*x) and E_2k against sin(m*pi*x) leave a single power
# of pi: every other boundary term of the ladder is zero
_show_ladder = partial(_show_exact, method="exact_ladder")


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


def _show_float(
    args: argparse.Namespace, kind: str, params: Dict[str, object], v: float
) -> _Shown:
    """A lattice value as a decimal, with the route that gave it."""
    rec = OutputRecord(kind, {name: x for name, x in params.items() if name != "method"},
                       _fmt(v, args.digits), method=params.get("method", "closed_form"))
    return rec, [rec["approx"]]


def _show_sum(
    args: argparse.Namespace, kind: str, params: Dict[str, object], result
) -> _Shown:
    """A certified sum; its last parameter shows under the oracle's name."""
    names = {"tol": "target_tol", "terms": "N"}
    doc = {"kind": kind, "params": {names.get(name, name): v for name, v in params.items()},
           "value": result.value, "error_bound": result.error_bound,
           "terms_used": result.terms_used}
    return doc, [
        "value = %s" % _fmt(result.value, args.digits),
        "error_bound = %s" % _fmt(result.error_bound, 3),
        "terms_used = %d" % result.terms_used,
    ]


def _poly_cos(k: int, m: int) -> PiScalar:
    return _public("exact_poly_trig_integral")(bernoulli_poly(2 * k), _public("OscKernel").cos(m))


def _poly_sin(k: int, m: int) -> PiScalar:
    return _public("exact_poly_trig_integral")(euler_poly(2 * k), _public("OscKernel").sin(m))


# One family of eval, series or integrals: its public function's name, or a
# function, called with the values of the options it needs, then of those it
# takes; needs: option -> least value, None for any; takes: option -> its
# default; show(args, kind, params, value) -> _Shown; kind: the JSON kind,
# None for the family's name; note: what follows the error of a missing or
# low option; pinned: option -> the one value it may be given, which it
# ignores.
_Family = namedtuple("_Family", "call needs takes show kind note pinned", defaults=(None, "", {}))


# command -> (help, output formats, the options after the family in parser
# order: name -> add_argument keywords, the error of a missing or low option)
_COMMANDS = {
    "eval": ("closed-form values: series constants and lattice sums", ("plain", "json", "latex"),
             {"k": {"type": int}, "mu": {"type": float}, "method": {"default": "auto"}},
             "%(family)s needs --%(name)s%(least)s"),
    "series": ("brute-force series oracles with certified bounds", ("plain", "json"),
               {"s": {"type": int}, "k": {"type": int}, "mu": {"type": float},
                "theta": {"type": float}, "tol": {"type": float}, "terms": {"type": int}},
               "series %(family)s needs %(all)s"),
    "integrals": ("exact oscillatory integrals and numeric integral routes", ("plain", "json"),
                  {"k": {"type": int, "required": True}, "m": {"type": int},
                   "mu": {"type": float}, "tol": {"type": float}},
                  "%(family)s needs --%(name)s%(least)s"),
}

_FAMILIES = {
    "eval": {
        "zeta": _Family("zeta_even", {"k": 1}, {}, _show_exact, note=" (value is zeta(2k))"),
        "beta": _Family("beta_odd", {"k": 0}, {}, _show_exact, note=" (value is beta(2k+1))"),
        "eta": _Family("eta_even", {"k": 1}, {}, _show_exact, note=" (value is eta(2k))"),
        "lambda": _Family("lambda_even", {"k": 1}, {}, _show_exact, note=" (value is lambda(2k))"),
        "Z": _Family("Z", {"k": None, "mu": None}, {"method": "auto"}, _show_float),
        "Ztilde": _Family("Ztilde", {"k": None, "mu": None}, {"method": "auto"}, _show_float),
        "Ztilde0": _Family("Ztilde0", {"mu": None}, {}, _show_float, pinned={"k": 0}),
    },
    "series": {
        "zeta": _Family("sum_zeta", {"s": None}, {"tol": 1e-10}, _show_sum),
        "beta": _Family("sum_beta", {"s": None}, {"tol": 1e-10}, _show_sum),
        "Z": _Family("sum_Z", {"k": None, "mu": None}, {"terms": 10000}, _show_sum),
        "Ztilde": _Family("sum_Ztilde", {"k": None, "mu": None}, {"terms": 10000}, _show_sum),
        "theta2": _Family("sum_inverse_square", {"theta": None}, {"terms": 100000}, _show_sum),
        "cot": _Family("sum_cotangent", {"theta": None}, {"terms": 100000}, _show_sum),
    },
    "integrals": {
        "poly-cos": _Family(_poly_cos, {"k": 1, "m": 1}, {}, _show_ladder, "poly_cos_integral"),
        "poly-sin": _Family(_poly_sin, {"k": 0, "m": 1}, {}, _show_ladder, "poly_sin_integral"),
        "apostol": _Family("exact_apostol_integral", {"k": 0, "m": None}, {"mu": 0.0},
                           _show_complex, "apostol_exp_integral"),
        "zeta-odd": _Family("zeta_odd_integral", {"k": 1}, {"tol": 1e-8}, _show_quadrature,
                            "zeta_odd_integral"),
        "beta-even": _Family("beta_even_integral", {"k": 0}, {"tol": 1e-8}, _show_quadrature,
                             "beta_even_integral"),
    },
}

# the families of eval with an exact value, which table also lists
_EXACT = {name: family for name, family in _FAMILIES["eval"].items() if family.show is _show_exact}


def cmd_family(args: argparse.Namespace) -> int:
    """eval, series or integrals of one family: reject each option of the
    command that the family does not read, check those it needs, fill in
    the defaults of those it takes, then call it and show the result."""
    family = _FAMILIES[args.command][args.family]
    _, _, options, usage = _COMMANDS[args.command]
    for name, keywords in options.items():
        pin = family.pinned.get(name)
        _require(
            name in family.needs or name in family.takes
            or getattr(args, name) in (keywords.get("default"), pin),
            "%s takes no --%s%s" % (args.family, name,
                                    "" if pin is None else " (or --%s %d)" % (name, pin)),
        )
    params: Dict[str, object] = {}
    for name, least in family.needs.items():
        value = params[name] = getattr(args, name)
        _require(value is not None and (least is None or value >= least), usage % {
            "family": args.family, "name": name, "least": "" if least is None else " >= %d" % least,
            "all": " and ".join("--" + need for need in family.needs)} + family.note)
    for name, default in family.takes.items():
        value = getattr(args, name)
        params[name] = default if value is None else value
    call = family.call if callable(family.call) else _public(family.call)
    _emit(args, *family.show(args, family.kind or args.family, params, call(*params.values())))
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
    _require(args.max_k >= 0, "--max-k must be >= 0")
    _require(args.max_k <= MAX_TABLE_K, "--max-k %d exceeds the cap %d" % (args.max_k, MAX_TABLE_K))
    family = _EXACT.get(args.family)  # None for a polynomial family
    rows, body = [], []
    if family is not None:
        show = _latex_pi if args.format == "latex" else format_pi_scalar
        for k in range(family.needs["k"], args.max_k + 1):
            v = _public(family.call)(k)
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
        head, template, foot = _TEXT_TABLES[args.format == "latex", family is not None]
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
    results = _public(_SUITES[args.suite])(seed=args.seed)
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

    for command, (help_text, formats, options, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("family", choices=list(_FAMILIES[command]))
        for name, keywords in options.items():
            sp.add_argument("--" + name, **keywords)
        _add_format(sp, formats)
        sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("table", help="value tables for the series families and polynomial families")
    sp.add_argument("family", choices=[*_EXACT, *_POLYS])
    sp.add_argument("--max-k", type=int, required=True)
    _add_format(sp, ("plain", "json", "csv", "latex"))
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run the self-verification suites")
    sp.add_argument("suite", choices=sorted(_SUITES))
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
