"""Benchmark worker: runs telesum operations sent one JSON line at a time.

Usage: python3 perfbench/worker.py SRC_DIR [SPANS_FILE]

The worker imports telesum from SRC_DIR, answers ``{"ready": ...}`` and then
serves requests on stdin until ``{"cmd": "exit"}``:

  {"cmd": "op", "id": n, "op": kind, "args": {...}}
      -> {"ok": true, "dt": seconds, "got": {...}} or {"ok": false, "dt", "error"}
  {"cmd": "mark"}       -> {}   start of a measured pass
  {"cmd": "pass_end"}   -> {"rss_mb": peak RSS, "layers": per-layer metrics or null}

``dt`` times the telesum call alone; encoding the result for the reply is
outside it.  With SPANS_FILE the public functions are traced and the spans
are written there on exit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction


def _pairs(value):
    """PiScalar or list of (coeff, pi_power) -> [[num, den, pi_power], ...]."""
    if hasattr(value, "pi_power"):
        value = [] if value.coeff == 0 else [(value.coeff, value.pi_power)]
    return [[c.numerator, c.denominator, p] for c, p in value]


def _sum(r):
    return {"sum": [r.value, r.error_bound, r.terms_used]}


def build_ops(T):
    """op kind -> (call, encode); call runs inside the timed region."""

    def const(family, k):
        x = getattr(T, family)(k)
        return x, float(x)

    def poly_trig(coeffs, m, kernel):
        p = T.Poly([Fraction(n, d) for n, d in coeffs])
        return T.exact_poly_trig_integral(p, getattr(T.OscKernel, kernel)(m))

    as_float = lambda v: {"float": v}
    as_exact = lambda v: {"exact": _pairs(v)}
    return {
        "const": (const, lambda r: {"exact": _pairs(r[0]), "float": r[1]}),
        "Z": (T.Z, as_float),
        "Ztilde": (T.Ztilde, as_float),
        "j_integral": (T.j_integral, as_exact),
        "poly_trig": (poly_trig, as_exact),
        "apostol_integral": (T.exact_apostol_integral, lambda z: {"complex": [z.real, z.imag]}),
        "sum_Z": (T.sum_Z, _sum),
        "sum_Ztilde": (T.sum_Ztilde, _sum),
        "sum_inverse_square": (T.sum_inverse_square, _sum),
        "sum_cotangent": (T.sum_cotangent, _sum),
        "sum_zeta": (T.sum_zeta, _sum),
        "sum_beta": (T.sum_beta, _sum),
        "hurwitz_partial": (T.hurwitz_partial, as_float),
        "zeta_odd_integral": (T.zeta_odd_integral, as_float),
        "beta_even_integral": (T.beta_even_integral, as_float),
    }


def main(argv) -> int:
    src = argv[0]
    spans_file = argv[1] if len(argv) > 1 else None
    # replies go to the original stdout; anything telesum prints goes to stderr
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import telesum as T

    import_s = time.perf_counter() - start
    if not os.path.abspath(T.__file__).startswith(os.path.abspath(src)):
        raise SystemExit("telesum imported from %s, not %s" % (T.__file__, src))
    tracer = None
    if spans_file:
        from tracing import Tracer

        tracer = Tracer().install()
    ops = build_ops(T)
    mark = tracer.mark() if tracer else None

    def send(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    send({"ready": True, "import_s": import_s})
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "op":
            call, encode = ops[msg["op"]]
            if tracer:
                tracer.request = msg["id"]
            t0 = time.perf_counter()
            try:
                raw = call(**msg["args"])
            except Exception as exc:  # a raising operation is a failed one
                send({"ok": False, "dt": time.perf_counter() - t0,
                      "error": "%s: %s" % (type(exc).__name__, exc)})
                continue
            dt = time.perf_counter() - t0
            send({"ok": True, "dt": dt, "got": encode(raw)})
        elif cmd == "mark":
            mark = tracer.mark() if tracer else None
            send({})
        elif cmd == "pass_end":
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            send({"rss_mb": rss_mb, "layers": tracer.aggregate(mark) if tracer else None})
        else:
            break
    if tracer:
        tracer.dump(spans_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
