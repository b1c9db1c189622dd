"""The README's table of subcommand flags matches the command table.

``README.md`` lists, per subcommand, the flags it reads besides ``--out``,
``--format`` and ``--config``; ``acsgeom.cli.COMMANDS`` decides them.  This
test reads the table's rows and compares each with the flags of the
subcommand's settings and of the checks it runs, so the docs cannot drift
from the command table.  In a row, ``--tol-<check>`` stands for the
``--tol-*`` flag of every check the subcommand runs.
"""

import os
import re

import pytest

from acsgeom.cli import COMMANDS, SETTINGS
from acsgeom.verify import tolerance_flag

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _documented() -> dict[str, set[str]]:
    """Subcommand -> flags, from the rows of the table headed ``| subcommand | flags |``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| subcommand | flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        command, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        spec = COMMANDS[command]
        found = set(re.findall(r"--[a-z0-9-]+(?![<\w-])", flags))
        if "--tol-<check>" in flags:
            found |= set(map(tolerance_flag, spec.checks))
        rows[command] = found
    return rows


DOCUMENTED = _documented()


def test_every_subcommand_has_a_row():
    assert sorted(DOCUMENTED) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_row_lists_the_flags_read(command):
    spec = COMMANDS[command]
    read = {SETTINGS[key][0] for key in spec.settings} | set(map(tolerance_flag, spec.checks))
    assert DOCUMENTED[command] == read
