"""Count the code lines of Python sources.

A code line is a line that holds a token other than a comment, a docstring
or layout.  A docstring here is any string that forms a statement of its own:
the docstring of a module, class or function, or a bare string elsewhere.
Blank lines, comment lines, the lines of such strings and the continuation
lines inside brackets that hold nothing else are not code.

    python3 tools/count_code_lines.py src/telesum
    python3 tools/count_code_lines.py src/telesum/cli.py

Arguments are files or directories; a directory counts every ``*.py`` below
it.  It prints the total.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Optional, Set

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> Set[int]:
    """The numbers of the code lines of ``source``."""
    lines: Set[int] = set()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    at_start = True  # no token of the current statement seen yet
    skipping = False  # inside a string statement
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                at_start, skipping = True, False
            continue
        if at_start and tok.type == tokenize.STRING:
            skipping = _ends_statement(tokens, i)
        at_start = False
        if not skipping:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def _ends_statement(tokens: List[tokenize.TokenInfo], i: int) -> bool:
    # a string is a statement of its own when, after implicit concatenation
    # with further strings, the logical line ends
    while tokens[i].type in (tokenize.STRING, tokenize.NL, tokenize.COMMENT):
        i += 1
    return tokens[i].type in (tokenize.NEWLINE, tokenize.ENDMARKER)


def _sources(paths: Iterable[str]) -> List[Path]:
    found: List[Path] = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python sources.")
    parser.add_argument("paths", nargs="+", help="files or directories")
    args = parser.parse_args(argv)
    print(sum(len(code_lines(path.read_text(encoding="utf-8"))) for path in _sources(args.paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
