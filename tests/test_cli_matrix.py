"""Every argument of every command against every family.

Each family runs with every subset of its command's arguments after the
family: each absent, at one valid value, one below the least value where
the family needs one, and at the one value it accepts where it accepts
only one.  A row without a fault also runs in each output format.
``verify`` runs its cheapest suite alone, and ``FAULTS`` adds the usage
faults and layer errors that the matrix does not reach.

``cli_option_matrix.json`` holds, per command and family, a sha256 of every
row's exit code and stdout, and one of the stderr of every row whose first
fault is the one the older per-command code reported: a row with at most
one fault, with an argparse error, or with faults only among the options it
needs.  It also holds a sha256 of the exit code, stdout and stderr of each
argv of ``FAULTS``, and of each ``--help`` text at 80 columns (the same
bytes on Python 3.10 to 3.13).

The digests of eval, series and integrals were recorded on the code from
before those three commands shared one family table: a checkout of commit
a542a77 with this file and the README of this tree copied in (the rows
come from the README's table, which a542a77 lacks).  Those of poly,
apostol, coeffs, table, verify and ``FAULTS`` were recorded the same way
on commit 1bc2b41, the code from before those five commands joined the
table, and that checkout gave the older entries the same digests.  The
command, at the root of such a checkout, is

    PYTHONPATH=src python tests/test_cli_matrix.py > cli_option_matrix.json

Running that command on a later tree hashes that tree's own output, so the
digests it writes no longer pin the older behaviour; regenerate them only
from such a checkout.

One entry has been re-recorded since a542a77, from the tree that made the
change: "help verify", when ``verify`` lost its ``--tol`` option (each
check now passes within its own table tolerance), which takes
``[--tol TOL]`` out of the usage line and ``--tol TOL`` out of the option
list.

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

# per command, its arguments after the family in parser order (a positional
# by its name, an option by its flag), each at one valid value
VALID = {
    "poly": {"k": "3"},
    "apostol": {"k": "2", "--lambda-re": "0.5", "--lambda-im": "0.25", "--dps": "30"},
    "coeffs": {"--mu": "0.5", "--order": "4"},
    "eval": {"--k": "2", "--mu": "0.5", "--method": "taylor"},
    "series": {"--s": "2", "--k": "1", "--mu": "0.5", "--theta": "0.3", "--tol": "1e-6",
               "--terms": "50"},
    "integrals": {"--k": "2", "--m": "1", "--mu": "0.5", "--tol": "1e-6"},
    "table": {"--max-k": "3"},
    "verify": {"--seed": "7"},
}
FORMATS = {"poly": ("json",), "apostol": ("json",), "coeffs": ("json",), "eval": ("json", "latex"),
           "series": ("json",), "integrals": ("json",), "table": ("json", "csv", "latex"),
           "verify": ()}
SUBCOMMANDS = tuple(VALID)
# verify runs its cheapest suite alone: the other suites are README rows
# too, but take up to a second a run
CHEAPEST_SUITE = "closed-vs-oracle"
# argvs of poly, apostol, coeffs, table and verify that the matrix does not
# reach: argparse's errors, the layers' own checks, table's cap, --digits
FAULTS = (
    "poly bogus 2", "poly euler", "poly euler 2 --digits 0", "poly euler 2 --format latex",
    "apostol euler 2", "apostol euler 2 --lambda-re 0.5 --dps 0", "apostol euler 2 --lambda-re nan",
    "apostol bernoulli 2 --lambda-re 1", "apostol euler -1 --lambda-re 0.5 --lambda-im x",
    "coeffs tan --mu 1", "coeffs sec", "coeffs sec --mu 4", "coeffs cot --mu 0",
    "coeffs sec --mu nan --order -1", "coeffs cot --mu 0.5 --order 3 --digits 0",
    "table zeta", "table bogus --max-k 2", "table zeta --max-k 31", "table euler --max-k 31",
    "table beta --max-k 30", "table euler --max-k 30 --format csv", "table zeta --max-k -5 --digits 0",
    "verify", "verify bogus", "verify all --tol 1", "verify hurwitz --seed x",
    "verify integrals --format json", "verify identities --digits 3",
)


def dest(name):
    """The attribute argparse stores a positional or an option under."""
    return name.lstrip("-").replace("-", "_")


def readme_families():
    """(command, family) -> (needs: option -> least or None, takes: option ->
    default text or None, pinned: option -> its one value), from the README
    table; each option is named as there, a positional without dashes."""
    text = (ROOT / "README.md").read_text()
    block = text.split("| command | family | needs | takes |\n|---|---|---|---|\n", 1)[1]
    table = {}
    for line in block.split("\n\n", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        command, family = cells[0].strip("`"), cells[1].strip("`")
        needs = {name: int(least) if least else None
                 for name, least in re.findall(r"`((?:--)?[a-z][a-z-]*)(?: >= (-?\d+))?`", cells[2])}
        takes, pinned = {}, {}
        for name, value, only in re.findall(r"`(--[a-z][a-z-]*)(?: ([^`]+))?`( only)?", cells[3]):
            (pinned if only else takes)[name] = value or None
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
                                    for part in ((name, value) if name[0] == "-" else (value,))]
        unread = [name for name, value in given.items()
                  if name not in needs and name not in takes and pinned.get(name) != value]
        missing = [name for name, least in needs.items()
                   if name not in given and name not in takes
                   or name in given and least is not None and int(given[name]) < least]
        if not unread and not missing:
            yield argv, None
            for fmt in FORMATS[command]:
                yield argv + ["--format", fmt], None
        elif len(unread) + len(missing) == 1 or not unread or (
                command == "integrals" and "--k" not in given):
            yield argv, None
        else:
            pin = pinned.get(unread[0])
            yield argv, "%s takes no %s%s" % (
                family, unread[0], "" if pin is None else " (or %s %s)" % (unread[0], pin))


def digests():
    """The digests of every row and of every --help text, and the rows whose
    stderr does not name the fault the documented rule picks."""
    result, wrong = {}, []
    for (command, family), spec in readme_families().items():
        if command == "verify" and family != CHEAPEST_SUITE:
            continue
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
    faults = hashlib.sha256()
    for line in FAULTS:
        faults.update(("%s\0%d\0%s\0%s\x1e" % (line, *run(line.split()))).encode())
    result["faults"] = faults.hexdigest()
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
        assert [(dest(name), least) for name, least in needs.items()] == list(record.needs.items()), (
            command, family)
        takes = {dest(name): value for name, value in takes.items()}
        assert list(takes) == list(record.takes), (command, family)
        for name, default in record.takes.items():
            assert takes[name] is None if default is None else type(default)(takes[name]) == default, (
                command, family, name)
        assert {dest(name): int(value) for name, value in pinned.items()} == record.pinned, (
            command, family)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(digests()[0], indent=1, sort_keys=True))
