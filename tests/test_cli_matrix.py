"""Every option of eval, series and integrals against every family.

Each family of the three commands runs with every subset of its command's
options: each option absent, at one valid value, one below the least value
where the family needs one, and at the one value it accepts where it
accepts only one.  A row without a fault also runs in each output format.

``cli_option_matrix.json`` holds, per command and family, a sha256 of every
row's exit code and stdout, and one of the stderr of every row whose first
fault is the one the older per-command code reported: a row with at most
one fault, with an argparse error, or with faults only among the options it
needs.  It also holds a sha256 of each ``--help`` text at 80 columns (the
same bytes on Python 3.10 to 3.13).  The digests were recorded on the code
from before the three commands shared one family table: a checkout of
commit a542a77 with this file and the README of this tree copied in (the
rows come from the README's table, which a542a77 lacks), by running, at
the root of that checkout,

    PYTHONPATH=src python tests/test_cli_matrix.py > cli_option_matrix.json

Running that command on a later tree hashes that tree's own output, so the
digests it writes no longer pin the older behaviour; regenerate them only
from such a checkout.

One entry has been re-recorded since, from the tree that made the change:
"help verify", when ``verify`` lost its ``--tol`` option (each check now
passes within its own table tolerance), which takes ``[--tol TOL]`` out of
the usage line and ``--tol TOL`` out of the option list.  The others are
as recorded at a542a77.

Any other row has several faults, one of them an option the family does not
read; its stderr must name the first such option in parser order.  The
families, what they need and what they take come from the README's table,
which the last test checks against the CLI's family records.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# per command, its options in parser order, each at one valid value
VALID = {
    "eval": {"k": "2", "mu": "0.5", "method": "taylor"},
    "series": {"s": "2", "k": "1", "mu": "0.5", "theta": "0.3", "tol": "1e-6", "terms": "50"},
    "integrals": {"k": "2", "m": "1", "mu": "0.5", "tol": "1e-6"},
}
FORMATS = {"eval": ("json", "latex"), "series": ("json",), "integrals": ("json",)}
SUBCOMMANDS = ("poly", "apostol", "coeffs", "eval", "series", "integrals", "table", "verify")


def readme_families():
    """(command, family) -> (needs: option -> least or None, takes: option ->
    default text, pinned: option -> its one value), from the README table."""
    text = (ROOT / "README.md").read_text()
    block = text.split("| command | family | needs | takes |\n|---|---|---|---|\n", 1)[1]
    table = {}
    for line in block.split("\n\n", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        command, family = cells[0].strip("`"), cells[1].strip("`")
        needs = {name: int(least) if least else None
                 for name, least in re.findall(r"`--([a-z]+)(?: >= (-?\d+))?`", cells[2])}
        takes, pinned = {}, {}
        for name, value, only in re.findall(r"`--([a-z]+) ([^`]+)`( only)?", cells[3]):
            (pinned if only else takes)[name] = value
        table[command, family] = (needs, takes, pinned)
    return table


def run(argv):
    """(exit code, stdout, stderr) of the CLI on argv, in this process."""
    from telesum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def rows(command, family, spec):
    """(argv, fault by the documented rule, or None where the older code
    reported the same fault) for each row of one family."""
    needs, takes, pinned = spec
    options = VALID[command]
    choices = [
        [None, value] + ([str(needs[name] - 1)] if needs.get(name) is not None else [])
        + ([pinned[name]] if name in pinned else [])
        for name, value in options.items()
    ]
    for values in itertools.product(*choices):
        given = {name: value for name, value in zip(options, values) if value is not None}
        argv = [command, family] + [part for name, value in given.items()
                                    for part in ("--" + name, value)]
        unread = [name for name, value in given.items()
                  if name not in needs and name not in takes and pinned.get(name) != value]
        missing = [name for name, least in needs.items()
                   if name not in given or (least is not None and int(given[name]) < least)]
        if not unread and not missing:
            yield argv, None
            for fmt in FORMATS[command]:
                yield argv + ["--format", fmt], None
        elif len(unread) + len(missing) == 1 or not unread or (
                command == "integrals" and "k" not in given):
            yield argv, None
        else:
            pin = pinned.get(unread[0])
            yield argv, "%s takes no --%s%s" % (
                family, unread[0], "" if pin is None else " (or --%s %s)" % (unread[0], pin))


def digests():
    """The digests of every row and of every --help text, and the rows whose
    stderr does not name the fault the documented rule picks."""
    result, wrong = {}, []
    for (command, family), spec in readme_families().items():
        out, err = hashlib.sha256(), hashlib.sha256()
        count = 0
        for argv, fault in rows(command, family, spec):
            code, stdout, stderr = run(argv)
            count += 1
            out.update(("%s\0%d\0%s\x1e" % (" ".join(argv), code, stdout)).encode())
            if fault is None:
                err.update(("%s\0%s\x1e" % (" ".join(argv), stderr)).encode())
            elif (code, stdout, stderr) != (2, "", "error: %s\n" % fault):
                wrong.append((argv, code, stdout, stderr))
        result["%s %s" % (command, family)] = {
            "rows": count, "out": out.hexdigest(), "err": err.hexdigest()}
    for sub in ("",) + SUBCOMMANDS:
        code, stdout, stderr = run(([sub] if sub else []) + ["--help"])
        assert (code, stderr) == (0, ""), sub
        result["help " + (sub or "telesum")] = hashlib.sha256(stdout.encode()).hexdigest()
    return result, wrong


def test_every_option_of_every_family_matches_the_recorded_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads((ROOT / "tests" / "cli_option_matrix.json").read_text())
    got, wrong = digests()
    assert wrong == []
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_the_readme_table_is_the_cli_family_records():
    from telesum.cli import _FAMILIES

    table = readme_families()
    assert list(table) == [(command, family) for command in _FAMILIES for family in _FAMILIES[command]]
    for (command, family), (needs, takes, pinned) in table.items():
        record = _FAMILIES[command][family]
        assert list(needs.items()) == list(record.needs.items()), (command, family)
        assert list(takes) == list(record.takes), (command, family)
        for name, default in record.takes.items():
            assert type(default)(takes[name]) == default, (command, family, name)
        assert {name: int(value) for name, value in pinned.items()} == record.pinned, (command, family)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(digests()[0], indent=1, sort_keys=True))
