"""Digest every result of the benchmark's operations, to show that a change
keeps every bit.

    python3 tools/same_bits.py [ROOT] [--seeds N]

ROOT is a checkout of this repository; it defaults to the one this tool is
in.  For each seed 1..N the tool draws one pass of each workload from ROOT's
``perfbench/workloads.py``, as ``perfbench/run.py`` draws its first pass,
runs it in this process against ROOT's ``src/telesum``, and prints one
sha256 per workload:

* ``closed_grid`` and ``series_grid``: each operation, and the encoding of
  its result by ``perfbench/worker.py``, or the exception's type and
  message;
* ``cli_oneshot``: each form's argv, and the exit code, stdout and stderr
  of ``telesum.cli.main`` on it.

Run it on two checkouts: the same three lines mean the same bits.  It writes
nothing, under ``perfbench/`` or elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("closed_grid", "series_grid", "cli_oneshot")


def _load(root: Path):
    """telesum, perfbench's workloads and worker, all from root."""
    sys.dont_write_bytecode = True  # no __pycache__ left in root
    for sub in ("perfbench", "src"):
        path = str(root / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import telesum
    import worker
    import workloads

    for module, sub in ((telesum, "src"), (worker, "perfbench"), (workloads, "perfbench")):
        if not Path(module.__file__).resolve().is_relative_to(root / sub):
            raise SystemExit("%s imported from %s, not from %s"
                             % (module.__name__, module.__file__, root / sub))
    return telesum, worker, workloads


def _outcome(run) -> str:
    """run()'s value as JSON, or the type and message of what it raised."""
    try:
        return json.dumps(run(), sort_keys=True)
    except Exception as exc:  # a raising operation's outcome is its error
        return "%s: %s" % (type(exc).__name__, exc)


def _cli(main, argv: List[str]) -> str:
    """The exit code, stdout and stderr of main(argv), as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return json.dumps([code, out.getvalue(), err.getvalue()])


def digests(root: Path, seeds: int) -> Dict[str, str]:
    """workload -> sha256 of every operation and its outcome over seeds 1..seeds."""
    telesum, worker, workloads = _load(root.resolve())
    from telesum.cli import main

    ops = worker.build_ops(telesum)
    result = {}
    for name in WORKLOADS:
        digest = hashlib.sha256()
        for seed in range(1, seeds + 1):
            for op in getattr(workloads, name)(random.Random(seed)):
                if name == "cli_oneshot":
                    outcome = _cli(main, op["argv"])
                else:
                    call, encode = ops[op["op"]]
                    outcome = _outcome(lambda: encode(call(**op["args"])))
                record = "%d\0%s\0%s\x1e" % (seed, json.dumps(op, sort_keys=True), outcome)
                digest.update(record.encode())
        result[name] = digest.hexdigest()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seeds", type=int, default=8, help="digest seeds 1..N (default 8)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    for name, digest in digests(args.root, args.seeds).items():
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
