"""Seeded operation lists for the three workloads.

Each generator takes a ``random.Random`` made from the workload seed and
returns the operation list of one pass.  Parameters are drawn over each
function's documented domain.  Where one parameter sets most of an
operation's cost (N, the tolerance, the polynomial index), the values are
stratified: every pass holds the same cost classes and the seed draws the
rest, so two seeds do about the same amount of work.

Worker operations are ``{"op": kind, "args": {...}}`` (see worker.py).  CLI
operations are ``{"op": "cli", "form": ..., "argv": [...], "fmt": ...}``;
``cli_reference`` and ``parse_cli`` give their reference and parse their
output into the same shape a worker reply has.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from typing import Dict, List

import mpmath

import refs

PI = math.pi


def _op(op: str, **args) -> dict:
    return {"op": op, "args": args}


def _interleave(rng: random.Random, streams: List[List[dict]]) -> List[dict]:
    """Seeded merge that keeps the order inside each stream."""
    streams = [list(reversed(s)) for s in streams if s]
    out = []
    while streams:
        pick = rng.choices(range(len(streams)), weights=[len(s) for s in streams])[0]
        out.append(streams[pick].pop())
        if not streams[pick]:
            streams.pop(pick)
    return out


def _rational_poly(rng: random.Random, degree: int) -> List[List[int]]:
    return [[rng.randint(-99, 99), rng.randint(1, 99)] for _ in range(degree + 1)]


def closed_grid(rng: random.Random, tiny: bool = False) -> List[dict]:
    """Exact constants, Z/Ztilde, exact ladders and Apostol integrals.

    zeta_even and beta_odd run k upward from 33, the first k past the
    import-time precompute (index 64), to 64 (index 128), so a fresh process
    warms its caches as it goes and every pass pays the same cold cost;
    every fourth k also asks for eta_even and lambda_even.  Smaller k are
    cached lookups of microseconds, which cli_oneshot's eval forms time; k
    stops at 64 rather than 80 so that two or three cold passes fit in a run.

    The k of every request is fixed and no request but the constants grows
    the classical caches (ladders stay within the precompute), so each seed
    has the same operation costs: the seed draws mu, m, the ladder
    polynomials and the order of the streams.
    """
    kmax, zk, n_ladders, n_apostol = (6, 4, 2, 2) if tiny else (64, 40, 8, 12)
    constants = []
    for k in range(kmax // 2 + 1, kmax + 1):
        constants += [_op("const", family="zeta_even", k=k), _op("const", family="beta_odd", k=k)]
        if k % 4 == 0:
            constants += [_op("const", family="eta_even", k=k),
                          _op("const", family="lambda_even", k=k)]
    streams = [
        constants,
        [_op("Z", k=k, mu=rng.uniform(-PI, PI)) for k in range(1, zk + 1, 2)],
        [_op("Ztilde", k=k, mu=rng.uniform(-4 * PI, 4 * PI)) for k in range(2, zk + 1, 2)],
    ]
    ladders = []
    for i in range(n_ladders):
        family = ("bernoulli_odd", "euler_odd")[i % 2]
        m = rng.randint(1 if family == "bernoulli_odd" else 0, 12)
        # 2k + 1 <= 63: within the precompute
        ladders.append(_op("j_integral", k=4 * i + 3, m=m, family=family))
        ladders.append(_op("poly_trig", coeffs=_rational_poly(rng, 5 * (i + 1)),
                           m=rng.randint(1, 12), kernel=("cos", "sin")[i % 2]))
    streams.append(ladders)
    apostol_kmax = 6 if tiny else 30
    streams.append([
        _op("apostol_integral", k=round(apostol_kmax * (i + 0.5) / n_apostol),
            m=rng.randint(-6, 6), mu=rng.uniform(-PI, PI))
        for i in range(n_apostol)
    ])
    return _interleave(rng, streams)


def series_grid(rng: random.Random, tiny: bool = False) -> List[dict]:
    """Certified oracles and adaptive quadrature over fixed N and tol ladders."""
    sizes = (10**3,) if tiny else (10**4, 10**5, 10**6)
    tols = (1e-6, 1e-8, 1e-10, 1e-12)
    quad_tols = (1e-8,) if tiny else (1e-8, 1e-10, 1e-12)
    ops = []
    for N in sizes:
        for k in (0, rng.randint(1, 40)):
            ops.append(_op("sum_Z", k=k, mu=rng.uniform(-PI, PI), N=N))
        for k in (0, rng.randint(1, 40)):
            ops.append(_op("sum_Ztilde", k=k, mu=rng.uniform(-4 * PI, 4 * PI), N=N))
        ops.append(_op("sum_inverse_square", theta=rng.uniform(-3, 3), N=N))
        ops.append(_op("sum_cotangent", theta=rng.uniform(-3, 3), N=N))
    for tol in tols:
        ops.append(_op("sum_zeta", s=rng.randint(2, 16), target_tol=tol))
        ops.append(_op("sum_beta", s=rng.randint(1, 16), target_tol=tol))
    for kind in ("B_even", "B_odd", "E_even", "E_odd"):
        for _ in range(1 if tiny else 4):
            ops.append(_op("hurwitz_partial", kind=kind, k=rng.randint(1, 8),
                           x=rng.uniform(0, 1), M=10**5))
    for tol in quad_tols:
        ops.append(_op("zeta_odd_integral", k=rng.randint(1, 12), tol=tol))
        ops.append(_op("beta_even_integral", k=rng.randint(0, 12), tol=tol))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- CLI

CLI_FORMS = (
    "poly bernoulli", "poly euler", "apostol euler", "apostol bernoulli",
    "coeffs sec", "coeffs cot",
    "eval zeta", "eval beta", "eval eta", "eval lambda",
    "eval Z", "eval Ztilde", "eval Ztilde0",
    "series zeta", "series beta", "series Z", "series Ztilde", "series theta2", "series cot",
    "integrals poly-cos", "integrals poly-sin", "integrals apostol",
    "integrals zeta-odd", "integrals beta-even",
    "table", "verify closed-vs-oracle",
)
TINY_CLI_FORMS = ("poly euler", "eval zeta", "series theta2", "integrals poly-cos", "table")
TABLE_FAMILIES = ("zeta", "beta", "eta", "lambda", "bernoulli", "euler")
EVAL_CONST = {"zeta": "zeta_even", "beta": "beta_odd", "eta": "eta_even", "lambda": "lambda_even"}


def _cli_params(form: str, rng: random.Random) -> Dict[str, object]:
    cmd, family = form.split(" ") if " " in form else (form, None)
    mu = rng.uniform(-PI, PI)
    if cmd == "poly":
        return {"k": rng.randint(0, 40)}
    if cmd == "apostol":
        return {"k": rng.randint(0 if family == "euler" else 1, 12),
                "lambda_re": round(rng.uniform(-2, 2), 6), "lambda_im": round(rng.uniform(-2, 2), 6)}
    if cmd == "coeffs":
        return {"mu": mu if family == "sec" else rng.uniform(-4 * PI, 4 * PI), "order": rng.randint(0, 16)}
    if cmd == "eval":
        if family in EVAL_CONST:
            # within the eager precompute depth: closed_grid covers deeper k
            return {"k": rng.randint(0 if family == "beta" else 1, 32)}
        if family == "Z":
            method = rng.choice(("auto", "complex", "taylor", "table"))
            return {"k": rng.randint(0, 6 if method == "table" else 12), "mu": mu, "method": method}
        if family == "Ztilde":
            method = rng.choice(("auto", "complex", "taylor", "table"))
            return {"k": rng.randint(1, 6 if method == "table" else 12),
                    "mu": rng.uniform(-4 * PI, 4 * PI), "method": method}
        return {"mu": rng.uniform(-4 * PI, 4 * PI)}
    if cmd == "series":
        if family in ("zeta", "beta"):
            return {"s": rng.randint(2 if family == "zeta" else 1, 12)}
        if family == "Z":
            return {"k": rng.randint(0, 12), "mu": mu}
        if family == "Ztilde":
            return {"k": rng.randint(0, 12), "mu": rng.uniform(-4 * PI, 4 * PI)}
        return {"theta": rng.uniform(-3, 3)}
    if cmd == "integrals":
        if family == "poly-cos":
            return {"k": rng.randint(1, 20), "m": rng.randint(1, 12)}
        if family == "poly-sin":
            return {"k": rng.randint(0, 20), "m": rng.randint(1, 12)}
        if family == "apostol":
            return {"k": rng.randint(0, 20), "m": rng.randint(-6, 6), "mu": mu}
        return {"k": rng.randint(1 if family == "zeta-odd" else 0, 10)}
    if cmd == "verify":
        return {"seed": rng.randint(0, 10**6)}
    return {"family": rng.choice(TABLE_FAMILIES), "max_k": rng.randint(0, 10)}


def cli_oneshot(rng: random.Random, tiny: bool = False) -> List[dict]:
    """Every README command form once, in seeded order and output format;
    verify runs one suite."""
    ops = []
    for form in TINY_CLI_FORMS if tiny else CLI_FORMS:
        params = _cli_params(form, rng)
        fmt = rng.choice(("plain", "json"))
        if form.startswith("verify"):
            # plain report only; the exit code says whether every check passed.
            # One suite: all four would double the pass.
            ops.append({"op": "cli", "form": form, "params": params, "fmt": "plain",
                        "argv": form.split(" ") + ["--seed", str(params["seed"])]})
            continue
        if form == "table":
            argv = ["table", params["family"], "--max-k", str(params["max_k"])]
        else:
            argv = form.split(" ")
            options = dict(params)
            if form.startswith(("poly", "apostol")):
                argv.append(str(options.pop("k")))
            argv += ["--%s=%s" % (key.replace("_", "-"), value) for key, value in options.items()]
        argv += ["--format", fmt, "--digits", "17"]
        ops.append({"op": "cli", "form": form, "params": params, "fmt": fmt, "argv": argv})
    rng.shuffle(ops)
    return ops


def _exact_list(coeffs) -> List[List[int]]:
    return [[Fraction(c).numerator, Fraction(c).denominator, i] for i, c in enumerate(coeffs)]


def _const_ref(family: str, k: int) -> dict:
    coeff, power = refs.exact_constant(family, k)
    return {"exact": [[coeff.numerator, coeff.denominator, power]],
            "float": refs.float_constant(family, k)}


def cli_reference(op: dict) -> dict:
    form, p = op["form"], op["params"]
    cmd, family = form.split(" ") if " " in form else (form, None)
    if cmd == "poly":
        poly = refs.bernoulli_poly(p["k"]) if family == "bernoulli" else refs.euler_poly(p["k"])
        return {"exact": _exact_list(poly)}
    if cmd == "apostol":
        lam = complex(p["lambda_re"], p["lambda_im"])
        return {"cvec": refs.apostol_poly(family, p["k"], lam), "tol": refs.ROUTE_TOL}
    if cmd == "coeffs":
        lattice = refs.Z if family == "sec" else refs.Ztilde
        return {"fvec": [2 * mpmath.factorial(j) * lattice(j, p["mu"]) for j in range(p["order"] + 1)],
                "tol": refs.ROUTE_TOL}
    if cmd == "eval":
        if family in EVAL_CONST:
            return _const_ref(EVAL_CONST[family], p["k"])
        if family == "Ztilde0":
            return {"float": refs.Ztilde(0, p["mu"]), "tol": refs.ROUTE_TOL, "derived": True}
        lattice = refs.Z if family == "Z" else refs.Ztilde
        return {"float": lattice(p["k"], p["mu"]), "tol": refs.ROUTE_TOL, "derived": True}
    if cmd == "series":
        args = {"zeta": ("sum_zeta", {"s": p.get("s")}), "beta": ("sum_beta", {"s": p.get("s")}),
                "Z": ("sum_Z", p), "Ztilde": ("sum_Ztilde", p),
                "theta2": ("sum_inverse_square", p), "cot": ("sum_cotangent", p)}[family]
        return refs.reference(_op(args[0], **args[1]))
    if cmd == "integrals":
        if family == "poly-cos":
            return {"exact": refs.exact_pairs(refs.exact_trig_integral(
                refs.bernoulli_poly(2 * p["k"]), p["m"], "cos"))}
        if family == "poly-sin":
            return {"exact": refs.exact_pairs(refs.exact_trig_integral(
                refs.euler_poly(2 * p["k"]), p["m"], "sin"))}
        if family == "apostol":
            return refs.reference(_op("apostol_integral", **p))
        kind = "zeta_odd_integral" if family == "zeta-odd" else "beta_even_integral"
        return refs.reference(_op(kind, k=p["k"], tol=1e-8))
    if cmd == "verify":
        return {"exit_code_only": True}
    rows = range(0 if p["family"] in ("beta", "bernoulli", "euler") else 1, p["max_k"] + 1)
    if p["family"] in EVAL_CONST:
        return {"exact": [_const_ref(EVAL_CONST[p["family"]], k)["exact"] for k in rows]}
    poly = refs.bernoulli_poly if p["family"] == "bernoulli" else refs.euler_poly
    return {"exact": [_exact_list(poly(k)) for k in rows]}


_PI_TERM = re.compile(r"^(-?\d+)(?:/(\d+))?(?: \* pi\^(-?\d+))?$")


def _parse_pi_terms(text: str) -> List[List[int]]:
    """'p/q * pi^n + ...' as printed by format_pi_scalar -> [[p, q, n], ...]."""
    out = []
    for term in text.split(" + "):
        m = _PI_TERM.match(term.strip())
        if m is None:
            raise ValueError("unparsable exact value %r" % term)
        num, den, power = int(m.group(1)), int(m.group(2) or 1), int(m.group(3) or 0)
        if num:
            out.append([num, den, power])
    return out


def _json_exact(d: dict) -> List[List[int]]:
    return [[d["num"], d["den"], d["pi_power"]]] if d["num"] else []


def _rational_list(tokens) -> List[List[int]]:
    return _exact_list(Fraction(t) for t in tokens)


def parse_cli(op: dict, out: str) -> dict:
    """The CLI's stdout as a reply in the shape ``refs.check`` expects."""
    form, fmt = op["form"], op["fmt"]
    cmd, family = form.split(" ") if " " in form else (form, None)
    doc = json.loads(out) if fmt == "json" else None
    lines = out.strip().splitlines()
    if cmd == "poly":
        return {"exact": _rational_list(doc["coeffs"] if doc else lines[0].split())}
    if cmd == "apostol":
        pairs = doc["coeffs"] if doc else [line.split()[1:] for line in lines]
        return {"cvec": [[float(re_), float(im)] for re_, im in pairs]}
    if cmd == "coeffs":
        return {"fvec": [float(v) for v in (doc["coeffs"] if doc else [l.split()[1] for l in lines])]}
    if cmd == "eval":
        if family in EVAL_CONST:
            if doc:
                return {"exact": _json_exact(doc["exact"]), "float": float(doc["approx"])}
            exact, approx = lines[0].split(" = ")
            return {"exact": _parse_pi_terms(exact), "float": float(approx)}
        return {"float": float(doc["approx"] if doc else lines[0])}
    if cmd == "series":
        if doc:
            return {"sum": [doc["value"], doc["error_bound"], doc["terms_used"]]}
        fields = dict(line.split(" = ") for line in lines)
        # plain output prints the bound to 3 digits: widen by that rounding
        return {"sum": [float(fields["value"]), float(fields["error_bound"]) * (1 + 5e-3),
                        int(fields["terms_used"])]}
    if cmd == "integrals":
        if family in ("poly-cos", "poly-sin"):
            if doc:
                terms = doc.get("terms")
                if terms is None:
                    return {"exact": _json_exact(doc["exact"])}
                return {"exact": [[t["num"], t["den"], t["pi_power"]] for t in terms]}
            return {"exact": _parse_pi_terms(lines[0].split(" = ")[0])}
        if family == "apostol":
            return {"complex": doc["value"] if doc else [float(v) for v in lines[0].split()]}
        return {"float": float(doc["approx"] if doc else lines[0].split(" (tol")[0])}
    if cmd == "verify":
        return {}
    scalar = op["params"]["family"] in EVAL_CONST
    if doc:
        if scalar:
            return {"exact": [_json_exact(r["exact"]) for r in doc["rows"]]}
        return {"exact": [_rational_list(r["coeffs"]) for r in doc["rows"]]}
    if scalar:
        return {"exact": [_parse_pi_terms(line.split("  ")[1]) for line in lines]}
    return {"exact": [_rational_list(line.split("  ", 1)[1].split()) for line in lines]}
