"""Self-test of the benchmark harness.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs every workload at a tiny size, traced, with one planted wrong reference
per pass, and checks that
  * every end-to-end and per-layer metric in BENCHMARK.json is reported,
    with its unit;
  * the planted references, and nothing else, are counted as failed, and
    make the run incorrect;
  * in every traced pass the layers' self times sum to no more than the
    pass's wall time.
"""

from __future__ import annotations

import json
import os
import sys

import run


def check_workload(workload: str, spec: dict) -> None:
    out = run.run(workload, seed=1, seconds=0, trace=True, tiny=True, plant=True)
    details, result = out["details"], out["result"]
    e2e_units = run.units(details["end_to_end"])
    assert set(e2e_units) == {m["name"] for m in spec["end_to_end"]}, workload
    for metric in spec["end_to_end"]:
        assert e2e_units[metric["name"]] == metric["unit"], (workload, metric["name"])
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}, workload
    for metric in spec["per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (workload, metric["name"], got["unit"])

    untraced, traced = out["phases"]
    planted = len(untraced["passes"]) + len(traced["passes"])
    assert result["failed"] == planted == details["wrong"], (workload, result["failed"], planted)
    assert details["fail_frac"] == len(untraced["passes"]) / untraced["attempted"]
    assert result["correct"] is False

    for p in traced["passes"]:
        self_s = sum(v for k, v in p["layers"].items() if k.endswith(".self_s")
                     and k.count(".") == 1)
        assert self_s <= p["wall_s"], (workload, self_s, p["wall_s"])
    print("%s: ok (%d metrics, %d planted failures)" % (workload, len(result["metrics"]), planted))


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(workload, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
