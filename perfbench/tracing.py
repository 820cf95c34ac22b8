"""Span tracer for the traced benchmark run.

``Tracer.install()`` wraps every function named in the ``__all__`` of each
telesum module, plus ``Poly.__mul__`` and ``PiScalar.__float__``, in every
``telesum.*`` namespace that binds it (``closed_forms`` binds ``ek_mu``
through ``from .apostol_polys import``, for example) and in the dict tables
those namespaces hold (the CLI dispatches verify suites through one).  Each call records a
span: id, parent span, request id, name, start, end and self time, where self
time is the span's duration minus the time its child spans cover.  Spans stay
in memory and ``dump()`` writes them out at the end.

Functions called inside inner loops (``binomial``, ``sinpi``, ``cospi``) are
counted, not timed: a span around each call would add its own cost to the
caller's self time, which is where their time is charged instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

LAYERS = (
    "exact_core",
    "classical_polys",
    "apostol_polys",
    "closed_forms",
    "oracles",
    "quadrature",
    "verify",
    "cli",
)

# Hot public functions that get their own calls/self_s metrics.
HOT = (
    "classical_polys.bernoulli_poly",
    "classical_polys.euler_poly",
    "apostol_polys.ek_mu",
    "apostol_polys.ektilde_mu",
    "apostol_polys.sec_taylor_coeffs",
    "apostol_polys.cot_taylor_coeffs",
    "apostol_polys.apostol_euler_poly",
    "closed_forms.Z",
    "closed_forms.Ztilde",
    "oracles.sum_zeta",
    "oracles.sum_beta",
    "oracles.sum_Z",
    "oracles.sum_Ztilde",
    "oracles.sum_inverse_square",
    "oracles.sum_cotangent",
    "oracles.hurwitz_partial",
    "quadrature.adaptive_integrate",
    "quadrature.exact_apostol_integral",
    "quadrature.exact_poly_trig_integral",
    "verify.run_identities",
    "verify.run_closed_vs_oracle",
    "verify.run_integrals",
    "verify.run_hurwitz",
    "verify.run_all",
    "cli.main",
    "exact_core.Poly.__mul__",
    "exact_core.poly_reflect",
    "exact_core.PiScalar.__float__",
)

COUNTED_ONLY = ("exact_core.binomial", "oracles.sinpi", "oracles.cospi")
METHODS = (("exact_core", "Poly", "__mul__"), ("exact_core", "PiScalar", "__float__"))

# Counts that repeat exactly for a given workload seed.
COUNTS = ("classical_polys.max_index", "oracles.terms", "quadrature.integrand_evals")

_POLY_INDEX = {"classical_polys.bernoulli_poly", "classical_polys.euler_poly"}


def layer_metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every metric ``Tracer.aggregate`` reports."""
    out = []
    for layer in LAYERS:
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s"), (layer + ".errors", "count")]
    for name in HOT:
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    return out


class Tracer:
    def __init__(self) -> None:
        # (span_id, parent_id, request, name, start, end, self_s, raised)
        self.spans: List[tuple] = []
        self.request: Optional[int] = None
        self.counts: Dict[str, int] = {name: 0 for name in COUNTED_ONLY}
        self.max_index = 0
        self.terms = 0
        self.integrand_evals = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._last_raised: Optional[BaseException] = None

    # ------------------------------------------------------------ wrapping

    def _timed(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        index_arg = name in _POLY_INDEX
        sums = name.startswith("oracles.sum_")
        integrand = name == "quadrature.adaptive_integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if index_arg and args:
                self.max_index = max(self.max_index, int(args[0]))
            if integrand and args:
                args = (self._counting(args[0]),) + args[1:]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            raised = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the innermost span it left
                raised = exc is not self._last_raised
                self._last_raised = exc
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, self.request, name, start, end,
                              end - start - frame[1], raised))
            if sums:
                self.terms += result.terms_used
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting(self, f):
        def counted_integrand(x):
            self.integrand_evals += 1
            return f(x)

        return counted_integrand

    def install(self) -> "Tracer":
        """Wrap telesum's public functions in every telesum namespace."""
        modules = [importlib.import_module("telesum." + layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = layer + "." + attr
                    wrap = self._counted if name in COUNTED_ONLY else self._timed
                    wrappers[id(fn)] = (fn, wrap(fn, name))
        def swap(table: dict, key, value) -> None:
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                table[key] = hit[1]

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "telesum" and not mod_name.startswith("telesum."):
                continue
            for attr, value in list(vars(module).items()):
                swap(vars(module), attr, value)
                if isinstance(value, dict):  # dispatch tables such as cli._SUITES
                    for key, entry in list(value.items()):
                        swap(value, key, entry)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module("telesum." + layer), cls_name)
            setattr(cls, meth, self._timed(getattr(cls, meth), "%s.%s.%s" % (layer, cls_name, meth)))
        return self

    # --------------------------------------------------------- reporting

    def mark(self) -> tuple:
        """Start of a measured pass; pass the result to ``aggregate``."""
        self.max_index = 0
        return (len(self.spans), dict(self.counts), self.terms, self.integrand_evals)

    def aggregate(self, mark: tuple) -> Dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``mark``."""
        first, counts0, terms0, evals0 = mark
        out: Dict[str, float] = {name: 0 for name, _ in layer_metric_names()}
        hot = set(HOT)
        for span in self.spans[first:]:
            name, self_s, raised = span[3], span[6], span[7]
            layer = name.split(".", 1)[0]
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += self_s
            out[layer + ".errors"] += raised
            if name in hot:
                out[name + ".calls"] += 1
                out[name + ".self_s"] += self_s
        for name, count in self.counts.items():
            out[name.split(".", 1)[0] + ".calls"] += count - counts0[name]
        out["classical_polys.max_index"] = self.max_index
        out["oracles.terms"] = self.terms - terms0
        out["quadrature.integrand_evals"] = self.integrand_evals - evals0
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
