"""Command-line front end: batch access to every operation with
machine-readable output.

Exit codes are a stable contract: 0 on success, 1 when a verification
suite fails or a certified computation cannot meet its tolerance, 2 on
usage errors (bad flags, domain violations).  JSON output is canonical:
keys sorted, floats in shortest round-trip form, so parse-and-redump is
byte-identical.

Every command is one ``_Command`` of ``_COMMANDS``: its help, its output
formats, its options and the error of a missing or low one.  Each of its
families is one record of ``_FAMILIES``: the options it needs, the options
it takes and their defaults, and how its value is shown.  ``build_parser``
builds every subcommand from the two tables in one loop, and
``cmd_family`` binds an argv to its family, calls it, and prints what it
shows through ``_emit``.
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

__all__ = ["OutputRecord", "main", "cmd_family"]

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
    """The one output path of every command: ``doc`` as canonical JSON for
    ``--format json``, otherwise the text ``lines``."""
    if getattr(args, "format", "plain") == "json":
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


def _show_poly(args: argparse.Namespace, kind: str, params: Dict[str, object], p) -> _Shown:
    """A polynomial's exact coefficients, low to high."""
    coeffs = [format_rational(c) for c in p.coeffs]
    return {"kind": kind, "params": params, "coeffs": coeffs}, [" ".join(coeffs)]


def _apostol(name: str, k: int, lambda_re: float, lambda_im: float, dps: Optional[int]):
    return _public(name)(k, complex(lambda_re, lambda_im), dps=dps)


def _show_apostol(args: argparse.Namespace, kind: str, params: Dict[str, object], p) -> _Shown:
    """A deformed polynomial's coefficients as doubles; its JSON leaves out dps."""
    finite = _public("apostol_polys")._finite_complex
    coeffs = [finite(c, "coefficient %d" % j) for j, c in enumerate(p.coeffs)]
    doc = {"kind": kind, "params": {name: v for name, v in params.items() if name != "dps"},
           "coeffs": [[c.real, c.imag] for c in coeffs]}
    return doc, ["%d %s %s" % (j, _fmt(c.real, args.digits), _fmt(c.imag, args.digits))
                 for j, c in enumerate(coeffs)]


def _show_taylor(
    args: argparse.Namespace, kind: str, params: Dict[str, object], values: List[float]
) -> _Shown:
    doc = {"kind": kind, "params": params, "coeffs": list(values)}
    return doc, ["%d %s" % (j, _fmt(v, args.digits)) for j, v in enumerate(values)]


# (LaTeX?, constant family?) -> (header lines, row template, footer lines)
_TEXT_TABLES = {
    (False, True): ((), "k=%d  %s  %s", ()),
    (False, False): ((), "k=%d  %s", ()),
    (True, True): ((r"\begin{tabular}{rll}", r"k & exact & decimal \\"),
                   r"%d & $%s$ & %s \\", (r"\end{tabular}",)),
    (True, False): ((r"\begin{tabular}{rl}", r"k & coefficients \\"),
                    r"%d & %s \\", (r"\end{tabular}",)),
}


def _column(name: str, least: int, max_k: int) -> List[Tuple[int, object]]:
    """(k, the public name's value at k) for k from least to max_k."""
    _require(max_k <= MAX_TABLE_K, "--max-k %d exceeds the cap %d" % (max_k, MAX_TABLE_K))
    return [(k, _public(name)(k)) for k in range(least, max_k + 1)]


def _show_table(
    args: argparse.Namespace, kind: str, params: Dict[str, object], column, exact: bool
) -> _Shown:
    """A row per k: an exact constant and its decimal, or a polynomial's
    coefficients."""
    rows, body = [], []
    for k, v in column:
        if exact:
            approx = _fmt(float(v), args.digits)
            rows.append((k, (_latex_pi if args.format == "latex" else format_pi_scalar)(v), approx))
            body.append({"k": k, "exact": _exact_dict(v), "approx": approx})
        else:
            coeffs = [format_rational(c) for c in v.coeffs]
            rows.append((k, " ".join(coeffs)))
            body.append({"k": k, "coeffs": coeffs})
    if args.format == "csv":
        buf = io.StringIO()
        columns = ("k", "exact", "approx") if exact else ("k", "coeffs")
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        lines = buf.getvalue().splitlines()
    else:
        head, template, foot = _TEXT_TABLES[args.format == "latex", exact]
        lines = [*head, *(template % row for row in rows), *foot]
    return {"kind": kind, "params": {"family": args.family, **params}, "rows": body}, lines


def _show_report(args: argparse.Namespace, kind: str, params: Dict[str, object], results) -> _Shown:
    """verify's report; its document records whether every check passed."""
    return ({"kind": kind, "params": params, "passed": all(r.passed for r in results)},
            [_public("format_report")(results)])


def _poly_cos(k: int, m: int) -> PiScalar:
    return _public("exact_poly_trig_integral")(bernoulli_poly(2 * k), _public("OscKernel").cos(m))


def _poly_sin(k: int, m: int) -> PiScalar:
    return _public("exact_poly_trig_integral")(euler_poly(2 * k), _public("OscKernel").sin(m))


# One family of a command: its public function's name, or a function,
# called with the values of the options it needs, then of the others it
# takes; needs: option -> least value, None for any; takes: option -> its
# default, filled in before needs are checked; show(args, kind, params,
# value) -> _Shown; kind: the JSON kind, None for the family's name; note:
# what follows the error of a missing or low option; pinned: option -> the
# one value it may be given, which it ignores.  An option is named by its
# argparse dest.
_Family = namedtuple("_Family", "call needs takes show kind note pinned", defaults=(None, "", {}))

# One command: its help, its output formats (none: text only, no --format or
# --digits), the arguments after the family in parser order (positional name
# or flag -> add_argument keywords), the error of a missing or low option,
# and the name of its family argument.
_Command = namedtuple("_Command", "help formats options usage choose", defaults=("family",))

_COMMANDS = {
    "poly": _Command("classical polynomial coefficients, exact rationals", ("plain", "json"),
                     {"k": {"type": int}}, "%(name)s must be%(least)s"),
    "apostol": _Command("deformed polynomial coefficients at a complex parameter", ("plain", "json"),
                        {"k": {"type": int}, "--lambda-re": {"type": float, "required": True},
                         "--lambda-im": {"type": float},
                         "--dps": {"type": int, "help": "working decimal digits, >= 1 (default 40)"}},
                        "%(name)s must be%(least)s"),
    "coeffs": _Command("Taylor coefficients of sec(w/2) or -cot(w/2) about mu", ("plain", "json"),
                       {"--mu": {"type": float, "required": True}, "--order": {"type": int}},
                       "%(name)s must be%(least)s"),
    "eval": _Command("closed-form values: series constants and lattice sums", ("plain", "json", "latex"),
                     {"--k": {"type": int}, "--mu": {"type": float}, "--method": {"default": "auto"}},
                     "%(family)s needs --%(name)s%(least)s"),
    "series": _Command("brute-force series oracles with certified bounds", ("plain", "json"),
                       {"--s": {"type": int}, "--k": {"type": int}, "--mu": {"type": float},
                        "--theta": {"type": float}, "--tol": {"type": float}, "--terms": {"type": int}},
                       "series %(family)s needs %(all)s"),
    "integrals": _Command("exact oscillatory integrals and numeric integral routes", ("plain", "json"),
                          {"--k": {"type": int, "required": True}, "--m": {"type": int},
                           "--mu": {"type": float}, "--tol": {"type": float}},
                          "%(family)s needs --%(name)s%(least)s"),
    "table": _Command("value tables for the series families and polynomial families",
                      ("plain", "json", "csv", "latex"), {"--max-k": {"type": int, "required": True}},
                      "--%(name)s must be%(least)s"),
    "verify": _Command("run the self-verification suites", (), {"--seed": {"type": int}}, "", "suite"),
}

_FAMILIES = {
    "poly": {name: _Family(name + "_poly", {"k": 0}, {}, _show_poly, name + "_poly")
             for name in ("bernoulli", "euler")},
    "apostol": {name: _Family(partial(_apostol, "apostol_%s_poly" % name), {"k": least, "lambda_re": None},
                              {"lambda_im": 0.0, "dps": None}, _show_apostol, "apostol_%s_poly" % name)
                for name, least in (("euler", 0), ("bernoulli", 1))},
    "coeffs": {name: _Family(name + "_taylor_coeffs", {"mu": None, "order": 0}, {"order": 8},
                             _show_taylor, name + "_taylor") for name in ("sec", "cot")},
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
# table lists the families of eval with an exact value, then the classical polynomials
_FAMILIES["table"] = {
    **{name: _Family(partial(_column, family.call, family.needs["k"]), {"max_k": 0}, {},
                     partial(_show_table, exact=True), "table")
       for name, family in _FAMILIES["eval"].items() if family.show is _show_exact},
    **{name: _Family(partial(_column, name + "_poly", 0), {"max_k": 0}, {},
                     partial(_show_table, exact=False), "table") for name in _FAMILIES["poly"]},
}
_FAMILIES["verify"] = {suite: _Family("run_" + suite.replace("-", "_"), {}, {"seed": 42}, _show_report)
                       for suite in ("all", "closed-vs-oracle", "hurwitz", "identities", "integrals")}


def cmd_family(args: argparse.Namespace) -> int:
    """Every command, for one family: reject each option of the command that
    the family does not read, fill in the defaults of those it takes, check
    those it needs, then call it and print what it shows; 1 when that
    records a failed check."""
    command = _COMMANDS[args.command]
    name = getattr(args, command.choose)
    family = _FAMILIES[args.command][name]
    for flag, keywords in command.options.items():
        dest = flag.lstrip("-").replace("-", "_")
        pin = family.pinned.get(dest)
        _require(
            dest in family.needs or dest in family.takes
            or getattr(args, dest) in (keywords.get("default"), pin),
            "%s takes no %s%s" % (name, flag, "" if pin is None else " (or %s %d)" % (flag, pin)),
        )
    params = {dest: getattr(args, dest) for dest in (*family.needs, *family.takes)}
    params.update({dest: default for dest, default in family.takes.items() if params[dest] is None})
    for dest, least in family.needs.items():
        value = params[dest]
        _require(value is not None and (least is None or value >= least), command.usage % {
            "family": name, "name": dest.replace("_", "-"),
            "least": "" if least is None else " >= %d" % least,
            "all": " and ".join("--" + need for need in family.needs)} + family.note)
    call = family.call if callable(family.call) else _public(family.call)
    doc, lines = family.show(args, family.kind or name, params, call(*params.values()))
    _emit(args, doc, lines)
    return 0 if doc.get("passed", True) else 1


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
    for command, (help_text, formats, options, _, choose) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument(choose, choices=list(_FAMILIES[command]))
        for flag, keywords in options.items():
            sp.add_argument(flag, **keywords)
        if formats:
            sp.add_argument("--format", choices=list(formats), default="plain")
            sp.add_argument("--digits", type=int, default=15, help=(
                "significant digits of each printed decimal and of the JSON approx strings"))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        _require(getattr(args, "digits", 1) >= 1, "--digits must be >= 1")
        return cmd_family(args)
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
