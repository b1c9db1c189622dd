"""The package runs on numpy alone: ``import acsgeom`` and every command,
the exponential ones (``verify``, ``geodesic``) included, leave scipy out
of ``sys.modules``, which keeps their start-up cheap.  Each case runs in a
fresh interpreter, because the one running the tests loads scipy as the
oracle of the exponential tests."""

import json
import os
import subprocess
import sys

import pytest

import acsgeom

SRC = os.path.dirname(os.path.dirname(os.path.abspath(acsgeom.__file__)))
BUNDLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "project_bundle.json")

# Runs the given argv lists through cli.main one after another and prints,
# after the import and after each command, whether scipy is loaded.
SCRIPT = """
import contextlib, io, json, sys
import acsgeom
from acsgeom.cli import main
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def scipy_loaded(*argvs) -> list[bool]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_exponential_free_commands_leave_scipy_unloaded():
    assert scipy_loaded(["signature"], ["curvature"],
                        ["project", "--in", BUNDLE]) == [False] * 4


@pytest.mark.parametrize("argv", [["verify", "--dim", "2"], ["geodesic"]])
def test_exponentials_leave_scipy_unloaded(argv):
    assert scipy_loaded(argv) == [False, False]
