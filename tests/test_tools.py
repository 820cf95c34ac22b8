"""tools/count_code_lines.py: which lines count as code; tools/same_bits.py:
one stable digest per benchmark workload."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPEC = importlib.util.spec_from_file_location("count_code_lines", ROOT / "tools" / "count_code_lines.py")
counter = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(counter)

FIXTURE = '''"""A module docstring
on two lines."""

# a comment
import os  # a comment after code


def f(x):
    """A function docstring."""
    "a statement string"
    "joined" "statement strings"
    y = (
        x
        + 1
    )
    return "-".join([os.sep, str(y)])
'''


def test_code_lines_skip_comments_docstrings_statement_strings_and_layout(tmp_path, capsys):
    assert sorted(counter.code_lines(FIXTURE)) == [5, 8, 12, 13, 14, 15, 16]
    # a directory counts every .py file below it
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("y = 2\n")
    assert counter.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "8\n"


def test_same_bits_prints_one_stable_digest_per_workload():
    # two fresh runs of seed 1 hash the same results; each takes a few
    # tenths of a second
    runs = [subprocess.run([sys.executable, str(ROOT / "tools" / "same_bits.py"), "--seeds", "1"],
                           capture_output=True, text=True, timeout=60, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert [line.split(" ")[0] for line in lines] == ["closed_grid", "series_grid", "cli_oneshot"]
    assert all(re.fullmatch(r"[a-z_]+ [0-9a-f]{64}", line) for line in lines)
