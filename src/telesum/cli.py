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
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from . import closed_forms, oracles, quadrature
from . import verify as verify_mod
from .apostol_polys import (
    apostol_bernoulli_poly,
    apostol_euler_poly,
    cot_taylor_coeffs,
    sec_taylor_coeffs,
)
from .classical_polys import bernoulli_poly, euler_poly
from .exact_core import PiScalar, format_pi_scalar, format_rational

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


@dataclass(frozen=True)
class OutputRecord:
    """One scalar result: exact part (when the value is rational times a
    power of pi), decimal rendering, and the route that produced it."""

    kind: str
    params: Dict[str, object]
    approx: str
    exact: Optional[Dict[str, object]] = None
    error_bound: Optional[str] = None
    method: str = "closed_form"

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "params": self.params,
            "approx": self.approx,
            "method": self.method,
        }
        if self.exact is not None:
            out["exact"] = self.exact
        if self.error_bound is not None:
            out["error_bound"] = self.error_bound
        return out


def _dump_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


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
    core = str(num) if den == 1 else r"\frac{%d}{%d}" % (num, den)
    if x.pi_power == 0:
        return sign + core
    pi = r"\pi" if x.pi_power == 1 else r"\pi^{%d}" % x.pi_power
    if num == 1 and den == 1:
        return sign + pi
    return sign + core + pi


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

# The exact constant families: family -> (value at k, least k, usage message).
_CONSTANTS = {
    "zeta": (closed_forms.zeta_even, 1, "zeta needs --k >= 1 (value is zeta(2k))"),
    "beta": (closed_forms.beta_odd, 0, "beta needs --k >= 0 (value is beta(2k+1))"),
    "eta": (closed_forms.eta_even, 1, "eta needs --k >= 1 (value is eta(2k))"),
    "lambda": (closed_forms.lambda_even, 1, "lambda needs --k >= 1 (value is lambda(2k))"),
}

_LATTICE = {"Z": closed_forms.Z, "Ztilde": closed_forms.Ztilde}

# family -> (oracle, its leading options, default --terms, or None when the
# oracle meets --tol instead of summing a fixed window)
_SERIES = {
    "zeta": (oracles.sum_zeta, ("s",), None),
    "beta": (oracles.sum_beta, ("s",), None),
    "Z": (oracles.sum_Z, ("k", "mu"), 10000),
    "Ztilde": (oracles.sum_Ztilde, ("k", "mu"), 10000),
    "theta2": (oracles.sum_inverse_square, ("theta",), 100000),
    "cot": (oracles.sum_cotangent, ("theta",), 100000),
}


def cmd_poly(args: argparse.Namespace) -> int:
    _require(args.k >= 0, "k must be >= 0")
    p = _POLYS[args.family](args.k)
    coeffs = [format_rational(c) for c in p.coeffs]
    if args.format == "json":
        print(_dump_json({
            "kind": "%s_poly" % args.family,
            "params": {"k": args.k},
            "coeffs": coeffs,
        }))
    else:
        print(" ".join(coeffs))
    return 0


def cmd_apostol(args: argparse.Namespace) -> int:
    lam = complex(args.lambda_re, args.lambda_im)
    if args.family == "euler":
        _require(args.k >= 0, "k must be >= 0")
        p = apostol_euler_poly(args.k, lam, dps=args.dps)
    else:
        _require(args.k >= 1, "k must be >= 1")
        p = apostol_bernoulli_poly(args.k, lam, dps=args.dps)
    coeffs = [complex(c) for c in p.coeffs]
    if args.format == "json":
        print(_dump_json({
            "kind": "apostol_%s_poly" % args.family,
            "params": {"k": args.k, "lambda_re": args.lambda_re, "lambda_im": args.lambda_im},
            "coeffs": [[c.real, c.imag] for c in coeffs],
        }))
    else:
        for j, c in enumerate(coeffs):
            print("%d %s %s" % (j, _fmt(c.real, args.digits), _fmt(c.imag, args.digits)))
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    _require(args.order >= 0, "order must be >= 0")
    if args.family == "sec":
        values = sec_taylor_coeffs(args.mu, args.order)
        kind = "sec_taylor"
    else:
        values = cot_taylor_coeffs(args.mu, args.order)
        kind = "cot_taylor"
    if args.format == "json":
        print(_dump_json({
            "kind": kind,
            "params": {"mu": args.mu, "order": args.order},
            "coeffs": list(values),
        }))
    else:
        for j, v in enumerate(values):
            print("%d %s" % (j, _fmt(v, args.digits)))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    family = args.family
    exact: Optional[PiScalar] = None
    method = "closed_form"
    if family in _CONSTANTS:
        value_at, least, message = _CONSTANTS[family]
        _require(args.k is not None and args.k >= least, message)
        exact = value_at(args.k)
        value = float(exact)
        params: Dict[str, object] = {"k": args.k}
    elif family in _LATTICE:
        _require_options(args, family, {"k": None, "mu": None})
        value = _LATTICE[family](args.k, args.mu, method=args.method)
        method = args.method
        params = {"k": args.k, "mu": args.mu}
    else:  # Ztilde0
        _require_options(args, family, {"mu": None})
        _require(args.k in (None, 0), "Ztilde0 takes no --k (or --k 0)")
        value = closed_forms.Ztilde0(args.mu)
        params = {"mu": args.mu}

    rec = OutputRecord(
        kind=family,
        params=params,
        approx=_fmt(value, args.digits),
        exact=_exact_dict(exact) if exact is not None else None,
        method=method,
    )
    if args.format == "json":
        print(_dump_json(rec.as_dict()))
    elif args.format == "latex":
        print(_latex_pi(exact) if exact is not None else rec.approx)
    else:
        if exact is not None:
            print("%s = %s" % (format_pi_scalar(exact), rec.approx))
        else:
            print(rec.approx)
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    oracle, names, default_terms = _SERIES[args.family]
    params: Dict[str, object] = {name: getattr(args, name) for name in names}
    _require(
        None not in params.values(),
        "series %s needs %s" % (args.family, " and ".join("--" + name for name in names)),
    )
    if default_terms is None:
        params["target_tol"] = args.tol
    else:
        params["N"] = args.terms if args.terms is not None else default_terms
    result = oracle(*params.values())

    if args.format == "json":
        print(_dump_json({
            "kind": args.family,
            "params": params,
            "value": result.value,
            "error_bound": result.error_bound,
            "terms_used": result.terms_used,
        }))
    else:
        print("value = %s" % _fmt(result.value, args.digits))
        print("error_bound = %s" % _fmt(result.error_bound, 3))
        print("terms_used = %d" % result.terms_used)
    return 0


def _print_exact_record(
    args: argparse.Namespace, kind: str, params: Dict[str, object], value: object
) -> None:
    if isinstance(value, PiScalar):
        rec = OutputRecord(
            kind=kind,
            params=params,
            approx=_fmt(float(value), args.digits),
            exact=_exact_dict(value),
            method="exact_ladder",
        )
        if args.format == "json":
            print(_dump_json(rec.as_dict()))
        else:
            print("%s = %s" % (format_pi_scalar(value), rec.approx))
    else:
        # multi-power exact value: finite list of (coefficient, pi_power)
        if args.format == "json":
            print(_dump_json({
                "kind": kind,
                "params": params,
                "terms": [
                    {"num": c.numerator, "den": c.denominator, "pi_power": p}
                    for c, p in value
                ],
                "method": "exact_ladder",
            }))
        else:
            print(" + ".join(
                format_pi_scalar(PiScalar(c, p)) for c, p in value
            ))


def _print_complex(
    args: argparse.Namespace, kind: str, params: Dict[str, object], z: complex
) -> None:
    if args.format == "json":
        print(_dump_json({
            "kind": kind,
            "params": params,
            "value": [z.real, z.imag],
            "method": "exact_ladder",
        }))
    else:
        print("%s %s" % (_fmt(z.real, args.digits), _fmt(z.imag, args.digits)))


def _print_quadrature(
    args: argparse.Namespace, kind: str, params: Dict[str, object], v: float
) -> None:
    rec = OutputRecord(
        kind=kind,
        params=params,
        approx=_fmt(v, args.digits),
        error_bound=_fmt(args.tol, 3),
        method="adaptive_quadrature",
    )
    if args.format == "json":
        print(_dump_json(rec.as_dict()))
    else:
        print("%s (tol %s)" % (rec.approx, rec.error_bound))


def _poly_trig(poly, kernel):
    return lambda k, m: quadrature.exact_poly_trig_integral(poly(2 * k), kernel(m))


# family -> (required options and their least values, further options,
# evaluator taking all the options in order, printer, JSON kind)
_INTEGRALS = {
    "poly-cos": ({"k": 1, "m": 1}, (), _poly_trig(bernoulli_poly, quadrature.OscKernel.cos),
                 _print_exact_record, "poly_cos_integral"),
    "poly-sin": ({"k": 0, "m": 1}, (), _poly_trig(euler_poly, quadrature.OscKernel.sin),
                 _print_exact_record, "poly_sin_integral"),
    "apostol": ({"k": 0, "m": None}, ("mu",), quadrature.exact_apostol_integral,
                _print_complex, "apostol_exp_integral"),
    "zeta-odd": ({"k": 1}, ("tol",), quadrature.zeta_odd_integral,
                 _print_quadrature, "zeta_odd_integral"),
    "beta-even": ({"k": 0}, ("tol",), quadrature.beta_even_integral,
                  _print_quadrature, "beta_even_integral"),
}


def cmd_integrals(args: argparse.Namespace) -> int:
    least, further, evaluate, show, kind = _INTEGRALS[args.family]
    _require_options(args, args.family, least)
    params = {name: getattr(args, name) for name in (*least, *further)}
    show(args, kind, params, evaluate(*params.values()))
    return 0


def _table_rows(family: str, max_k: int):
    if family in _CONSTANTS:
        value_at, least, _ = _CONSTANTS[family]
    else:
        value_at, least = _POLYS[family], 0
    return [(k, value_at(k)) for k in range(least, max_k + 1)]


def cmd_table(args: argparse.Namespace) -> int:
    cap = int(os.environ.get("TELESUM_MAX_K", str(DEFAULT_MAX_K)))
    _require(args.max_k >= 0, "--max-k must be >= 0")
    _require(
        args.max_k <= cap,
        "--max-k %d exceeds the cap %d (override with TELESUM_MAX_K)" % (args.max_k, cap),
    )
    rows = _table_rows(args.family, args.max_k)
    scalar = args.family in _CONSTANTS

    if args.format == "json":
        if scalar:
            body = [
                {"k": k, "exact": _exact_dict(v), "approx": _fmt(float(v), args.digits)}
                for k, v in rows
            ]
        else:
            body = [
                {"k": k, "coeffs": [format_rational(c) for c in v.coeffs]}
                for k, v in rows
            ]
        print(_dump_json({
            "kind": "table",
            "params": {"family": args.family, "max_k": args.max_k},
            "rows": body,
        }))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if scalar:
            writer.writerow(["k", "exact", "approx"])
            for k, v in rows:
                writer.writerow([k, format_pi_scalar(v), _fmt(float(v), args.digits)])
        else:
            writer.writerow(["k", "coeffs"])
            for k, v in rows:
                writer.writerow([k, " ".join(format_rational(c) for c in v.coeffs)])
        sys.stdout.write(buf.getvalue())
    elif args.format == "latex":
        if scalar:
            print(r"\begin{tabular}{rll}")
            print(r"k & exact & decimal \\")
            for k, v in rows:
                print(r"%d & $%s$ & %s \\" % (k, _latex_pi(v), _fmt(float(v), args.digits)))
            print(r"\end{tabular}")
        else:
            print(r"\begin{tabular}{rl}")
            print(r"k & coefficients \\")
            for k, v in rows:
                print(r"%d & %s \\" % (k, " ".join(format_rational(c) for c in v.coeffs)))
            print(r"\end{tabular}")
    else:
        if scalar:
            for k, v in rows:
                print("k=%d  %s  %s" % (k, format_pi_scalar(v), _fmt(float(v), args.digits)))
        else:
            for k, v in rows:
                print("k=%d  %s" % (k, " ".join(format_rational(c) for c in v.coeffs)))
    return 0


_SUITES = {
    "identities": verify_mod.run_identities,
    "closed-vs-oracle": verify_mod.run_closed_vs_oracle,
    "integrals": verify_mod.run_integrals,
    "hurwitz": verify_mod.run_hurwitz,
    "all": verify_mod.run_all,
}


def cmd_verify(args: argparse.Namespace) -> int:
    results = _SUITES[args.suite](tol=args.tol, seed=args.seed)
    print(verify_mod.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _add_format(sp: argparse.ArgumentParser, choices=("plain", "json")) -> None:
    sp.add_argument("--format", choices=list(choices), default="plain")
    sp.add_argument("--digits", type=int, default=15, help="decimal digits for plain output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    sp.add_argument("family", choices=["euler", "bernoulli"])
    sp.add_argument("k", type=int)
    sp.add_argument("--lambda-re", type=float, required=True)
    sp.add_argument("--lambda-im", type=float, default=0.0)
    sp.add_argument("--dps", type=int, default=None)
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
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--terms", type=int, default=None)
    _add_format(sp)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("integrals", help="exact oscillatory integrals and numeric integral routes")
    sp.add_argument("family", choices=list(_INTEGRALS))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--tol", type=float, default=1e-8)
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
        return int(args.func(args))
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
