"""telesum benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load comes from this one process, a closed loop with one client: it
sends the next request only when the previous one has finished, and never
runs more than one child process at a time.  Telesum is driven from outside,
through a worker process (worker.py) that calls the public functions, or
through the CLI (cli_boot.py).  Every output is checked against an
independent mpmath reference (refs.py) computed before timing starts.

A run repeats its workload's pass, a fixed operation list drawn from the
seed, for --seconds; a pass starts only if it should end in time, and the
first always runs.  Each operation's time is the least over the passes.
End-to-end metrics (--trace 0):

  setup_s      median of fresh-process ``import telesum`` times, taken
               between passes
  wall_s       time to complete the operation list: the sum of its
               operations' times
  op_p50_ms    median operation time
  op_tail_ms   operation time at the highest percentile with at least ten
               operations above it (percentile and count in the details)
  peak_rss_mb  peak resident memory of the telesum process, median over passes

With --trace 1 the run measures untraced passes and then traced ones, and
reports the per-layer metrics (tracing.py), the import time by module and
the tracing overhead (traced minus untraced wall_s).  The line before the
result holds the details: environment, failures, fail_frac, max_rel_err,
the tail percentile.  Details and spans are also written under .perfbench/.

An operation fails when telesum raises or the CLI exits nonzero (failures
telesum reports; ``verify`` exits nonzero when a self-check fails), or when a
returned value disagrees with its reference (a wrong value).  "failed" counts both; "correct" is false
when any value was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cli_oneshot", "closed_grid", "series_grid")
LAYERS = ("exact_core", "classical_polys", "apostol_polys", "closed_forms",
          "oracles", "quadrature", "verify", "cli")
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import telesum; "
                "print(time.perf_counter() - t)")


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop, unrelated to telesum: recorded
    with each result so that a change in machine speed between two sets of
    runs shows, and is not read as a gain."""
    start = time.perf_counter()
    acc = Fraction(0)
    for n in range(1, 400):
        acc += Fraction(n * n + 1, 3 * n + 7) * n
    sum(i * i for i in range(40000))
    return time.perf_counter() - start


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("TELESUM_MAX_K", None)  # the table forms use the default cap
    return env


def environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": cpu}


# ------------------------------------------------------------------ setup


class Setup:
    """Fresh-process ``import telesum`` times, taken between passes so that
    they spread over the run; with by_module also the -X importtime self
    time of each telesum module (``import telesum.cli``, since the package
    does not import the CLI)."""

    def __init__(self, by_module: bool) -> None:
        self.by_module = by_module
        self.totals: List[float] = []
        self.modules: Dict[str, List[float]] = {layer: [] for layer in LAYERS}

    def _python(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)

    def sample(self) -> None:
        if len(self.totals) >= SETUP_SAMPLES:
            return
        self.totals.append(float(self._python("-c", IMPORT_PROBE).stdout))
        if self.by_module:
            for line in self._python("-X", "importtime", "-c", "import telesum.cli").stderr.splitlines():
                fields = [f.strip() for f in line.split(":", 1)[-1].split("|")]
                if len(fields) == 3 and fields[2].startswith("telesum."):
                    layer = fields[2][len("telesum."):]
                    if layer in self.modules:
                        self.modules[layer].append(int(fields[0]) * 1e-6)

    def result(self) -> dict:
        while len(self.totals) < SETUP_SAMPLES:
            self.sample()
        return {"setup_s": statistics.median(self.totals), "samples": self.totals,
                "modules": {k: statistics.median(v) for k, v in self.modules.items() if v}}


# ---------------------------------------------------------------- workers


class Worker:
    """One worker.py child process, spoken to one request at a time."""

    def __init__(self, spans_file: Optional[str], err) -> None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC]
        if spans_file:
            cmd.append(spans_file)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=err, text=True, cwd=ROOT, env=_env())
        self._recv()  # {"ready": ...} once telesum is imported

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited (see .perfbench/stderr.txt)")
        return json.loads(line)

    def ask(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def _worker_pass(worker: Worker, ops: List[dict]) -> dict:
    worker.ask({"cmd": "mark"})
    replies = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        replies.append(worker.ask({"cmd": "op", "id": i, "op": op["op"], "args": op["args"]}))
    wall = time.perf_counter() - start
    end = worker.ask({"cmd": "pass_end"})
    return {"wall_s": wall, "replies": replies, "rss_mb": end["rss_mb"], "layers": end["layers"]}


def _cli_pass(ops: List[dict], tag: Optional[str], err, setup: Setup) -> dict:
    replies, rss, layers = [], 0.0, None
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i % 5 == 4:
            setup.sample()  # spread over the pass; a pass is most of a run
        layers_file = "%s-op%d.json" % (tag, i) if tag else "-"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "cli_boot.py"), SRC, layers_file, *op["argv"]],
            stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT, env=_env())
        try:
            out = proc.stdout.read()
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            proc.stdout.close()
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss = max(rss, usage.ru_maxrss / 1024.0)
        replies.append({"dt": dt, "rc": proc.returncode, "out": out})
        if tag:
            with open(layers_file) as fh:
                op_layers = json.load(fh)
            layers = op_layers if layers is None else {
                k: layers[k] + v if not k.endswith("max_index") else max(layers[k], v)
                for k, v in op_layers.items()}
    wall = time.perf_counter() - start
    return {"wall_s": wall, "replies": replies, "rss_mb": rss, "layers": layers}


def _spans_path(workload: str, seed: int, traced: bool, index: int) -> Optional[str]:
    if not traced:
        return None
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    return os.path.join(OUT, "spans", "%s-s%d-p%d" % (workload, seed, index))


def measure(workload: str, seed: int, seconds: float, traced: bool, setup: Setup,
            tiny: bool = False, plant: bool = False) -> dict:
    """Run passes for ``seconds`` and check every reply.

    A pass starts only if, going by the last one, it ends within ``seconds``;
    the first always runs.  Set-up samples are taken between passes.
    """
    import refs
    import workloads

    rng = random.Random(seed)
    if workload == "cli_oneshot":
        ops = workloads.cli_oneshot(rng, tiny)
        references = [workloads.cli_reference(op) for op in ops]
    elif workload in ("closed_grid", "series_grid"):
        ops = getattr(workloads, workload)(rng, tiny)
        references = [refs.reference(op) for op in ops]

    passes, probes = [], [machine_probe()]
    err = open(os.path.join(OUT, "stderr.txt"), "a")
    worker = None
    try:
        if workload == "series_grid":
            worker = Worker(_spans_path(workload, seed, traced, 0), err)
            # warm caches: every operation kind once, at the smallest size, untimed
            for op in workloads.series_grid(random.Random(-seed), tiny=True):
                worker.ask({"cmd": "op", "id": -1, "op": op["op"], "args": op["args"]})
        start = time.perf_counter()
        while True:
            setup.sample()
            index = len(passes)
            pass_start = time.perf_counter()
            if workload == "cli_oneshot":
                tag = _spans_path(workload, seed, traced, index)
                result = _cli_pass(ops, tag, err, setup)
            elif workload == "closed_grid":
                # every pass starts cold, in a fresh process
                fresh = Worker(_spans_path(workload, seed, traced, index), err)
                try:
                    result = _worker_pass(fresh, ops)
                finally:
                    fresh.close()
            else:
                result = _worker_pass(worker, ops)
            result["ops"], result["refs"] = ops, references
            passes.append(result)
            probes.append(machine_probe())
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
    finally:
        if worker is not None:
            worker.close()
        err.close()
    return dict(judge(workload, passes, plant), probes=probes)


def verdict(workload: str, op: dict, ref: dict, reply: dict):
    """(failure, why, got) for one reply; failure is None when it passed.

    A failure is "reported" when telesum raised or the CLI exited nonzero
    (``verify`` exits nonzero when a self-check fails), and "wrong" when a
    value came back that disagrees with its reference.
    """
    import refs
    import workloads

    if workload == "cli_oneshot":
        if reply["rc"] != 0:
            return "reported", "exit code %d" % reply["rc"], None
        try:
            got = workloads.parse_cli(op, reply["out"])
        except (ValueError, KeyError, IndexError) as exc:
            return "wrong", "unparsable output: %s" % exc, None
    elif not reply["ok"]:
        return "reported", reply["error"], None
    else:
        got = reply["got"]
    ok, why = refs.check(ref, got)
    if not ok:
        return "wrong", why, got
    return None, "", got


def judge(workload: str, passes: List[dict], plant: bool) -> dict:
    """Check every reply against its reference; collect timings."""
    import refs

    counts = {"attempted": 0, "reported": 0, "wrong": 0}
    failures = []
    max_rel = 0.0
    for p in passes:
        for i, (op, ref, reply) in enumerate(zip(p["ops"], p["refs"], p["replies"])):
            counts["attempted"] += 1
            if plant and i == 0:
                ref = {"exact": [["planted wrong reference"]]}
            failure, why, got = verdict(workload, op, ref, reply)
            if failure:
                counts[failure] += 1
                if len(failures) < 10:
                    failures.append({"op": op.get("argv") or op, "failure": failure, "why": why})
            elif "float" in ref and ("exact" in ref or ref.get("derived")):
                # a float derived from an exact value: float(PiScalar), Z, Ztilde
                rel = refs.relerr(got["float"], ref["float"])
                if rel is not None:
                    max_rel = max(max_rel, rel)
    # Each operation's time is the least over the passes.  Interference on a
    # shared machine only ever slows an operation down, in spells of seconds,
    # so the least of repetitions spread over the run is the steadiest.
    op_s = [min(p["replies"][i]["dt"] for p in passes)
            for i in range(len(passes[0]["replies"]))]
    return dict(counts, failed=counts["reported"] + counts["wrong"], passes=passes,
                failures=failures, op_s=op_s, max_rel_err=max_rel)


# ---------------------------------------------------------------- metrics


def tail(samples: List[float]) -> dict:
    """The highest nearest-rank percentile with at least ten samples above
    it; with fewer than 21 samples that is not above the median, and the
    median is reported."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return {"value": statistics.median(xs), "pct": 50.0, "n": n}
    i = n - 11
    return {"value": xs[i], "pct": 100.0 * (i + 1) / n, "n": n}


def end_to_end(setup: dict, phase: dict) -> Dict[str, float]:
    passes = phase["passes"]
    return {
        "setup_s": setup["setup_s"],
        "wall_s": sum(phase["op_s"]),
        "op_p50_ms": 1e3 * statistics.median(phase["op_s"]),
        "op_tail_ms": 1e3 * tail(phase["op_s"])["value"],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(setup: dict, untraced: dict, traced: dict) -> Dict[str, float]:
    passes = traced["passes"]
    out = {name: statistics.median(p["layers"][name] for p in passes)
           for name in passes[0]["layers"]}
    for layer in LAYERS:
        out["setup.%s_s" % layer] = setup["modules"].get(layer, 0.0)
    out["tracing_overhead_s"] = sum(traced["op_s"]) - sum(untraced["op_s"])
    return out


def units(names) -> Dict[str, str]:
    def unit(name: str) -> str:
        if name.endswith("_mb"):
            return "MB"
        if name.endswith("_ms"):
            return "ms"
        return "s" if name.endswith("_s") else "count"

    return {name: unit(name) for name in names}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, plant: bool = False) -> dict:
    os.makedirs(OUT, exist_ok=True)
    sampler = Setup(by_module=trace)
    untraced = measure(workload, seed, seconds, False, sampler, tiny, plant)
    traced = measure(workload, seed, seconds, True, sampler, tiny, plant) if trace else None
    setup = sampler.result()
    e2e = end_to_end(setup, untraced)
    metrics = per_layer(setup, untraced, traced) if trace else e2e
    unit_of = units(metrics)
    tail_info = tail(untraced["op_s"])
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        design = json.load(fh)["workloads"][workload]
    details = {
        "workload": workload, "seed": seed, "trace": int(trace), "env": environment(),
        "design": design,
        "passes": len(untraced["passes"]), "ops_per_pass": len(untraced["passes"][0]["ops"]),
        "fail_frac": untraced["failed"] / untraced["attempted"],
        "failures": untraced["failures"],
        "max_rel_err": untraced["max_rel_err"],
        "op_tail_pct": tail_info["pct"], "op_samples": tail_info["n"],
        "setup_samples_s": setup["samples"], "end_to_end": e2e,
        "machine_probe_ms": [1e3 * t for t in untraced["probes"]],
    }
    phases = [untraced] + ([traced] if traced else [])
    if traced:
        details["traced_fail_frac"] = traced["failed"] / traced["attempted"]
    details["reported"] = sum(p["reported"] for p in phases)
    details["wrong"] = sum(p["wrong"] for p in phases)
    result = {
        # a failure telesum reports (a raise, a nonzero exit, a failed
        # self-check) counts in "failed"; "correct" is false only when a
        # value came back that disagrees with its reference
        "correct": details["wrong"] == 0,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, "%s-s%d-t%d.json" % (workload, seed, trace)), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    return {"details": details, "result": result, "phases": phases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "telesum", "__init__.py")):
        print("error: no telesum sources under %s" % SRC, file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
