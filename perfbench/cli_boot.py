"""Bootstrap for one CLI operation: the ``telesum`` console script, from source.

Usage: python3 perfbench/cli_boot.py SRC_DIR LAYERS_FILE|- ARG...

Runs ``telesum.cli.main(ARG...)`` with telesum imported from SRC_DIR and exits
with its return code, as the installed ``telesum`` command would.  When
LAYERS_FILE is not ``-`` the public functions are traced; the per-layer
metrics go to LAYERS_FILE and the spans to LAYERS_FILE + ".spans".
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    src, layers_file, args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    import telesum.cli

    if layers_file == "-":
        return telesum.cli.main(args)
    from tracing import Tracer

    tracer = Tracer().install()
    mark = tracer.mark()
    try:
        return telesum.cli.main(args)
    finally:
        with open(layers_file, "w") as fh:
            json.dump(tracer.aggregate(mark), fh)
        tracer.dump(layers_file + ".spans")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
