"""The README's tables match the code.

``README.md`` lists, per subcommand, the flags it reads besides ``--out``,
``--format`` and ``--config``; ``acsgeom.cli.COMMANDS`` decides them.  It
also states the primary tolerance of each check, that of its first
sub-check, which the checker writes where it builds that sub-check.  These
tests read the tables' rows and compare the first with the flags of each
subcommand's settings and the second with the first sub-check of each
report of a small suite run, so the docs cannot drift from the code.
"""

import os
import re

import pytest

from acsgeom.cli import COMMANDS, SETTINGS
from acsgeom.verify import CHECK_NAMES, VerifyConfig, run_suite

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _rows(header: str) -> list[str]:
    """The rows of the README table whose header line is ``header``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    columns = header.count("|") - 1
    rule = "|" + " --- |" * columns
    return text.split(f"{header}\n{rule}\n", 1)[1].split("\n\n", 1)[0].splitlines()


def _documented() -> dict[str, set[str]]:
    """Subcommand -> flags, from the rows of the table headed ``| subcommand | flags |``."""
    rows = {}
    for line in _rows("| subcommand | flags |"):
        command, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        rows[command] = set(re.findall(r"--[a-z0-9-]+", flags))
    return rows


DOCUMENTED = _documented()


def test_every_subcommand_has_a_row():
    assert sorted(DOCUMENTED) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_row_lists_the_flags_read(command):
    assert DOCUMENTED[command] == {SETTINGS[key][0] for key in COMMANDS[command].settings}


def test_tolerance_table_states_each_first_sub_check():
    stated = {}
    for line in _rows("| check | first sub-check | tolerance |"):
        check, prefix, tol = re.fullmatch(r"\| `(\w+)` \| `(\w+)\*` \| (\S+) \|", line).groups()
        stated[check] = (prefix, float(tol))
    # signature's margin is stated in prose: its sub-checks hold 0
    assert sorted(stated) == sorted(set(CHECK_NAMES) - {"signature"})
    reports = run_suite(VerifyConfig(dims=(2,), fd_dims=(2,), points=1))
    for report in reports:
        first = report.details[0]
        if report.name == "signature":
            assert first["tolerance"] == 0.0
            continue
        prefix, tol = stated[report.name]
        assert (first["name"].startswith(prefix), first["tolerance"]) == (True, tol), report.name
