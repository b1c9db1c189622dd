"""The package runs on numpy alone: ``import acsgeom`` and every command,
the exponential ones (``verify``, ``geodesic``) included, leave scipy out
of ``sys.modules``, which keeps their start-up cheap.  Each case runs in a
fresh interpreter, because the one running the tests loads scipy as the
oracle of the exponential tests.

Importing the package generates little code: only ``ChartField`` and
``VerifyConfig`` are dataclasses, because only their dataclass API is
read, and each dataclass costs one ``exec`` per generated method, about
0.2 to 1.4 ms in all.  ``csv`` is imported only where ``--format csv``
writes, so a default command does not load it."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys

import pytest

import acsgeom
import acsgeom.cli

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


# Counts the exec and eval calls of ``import acsgeom.cli`` in an interpreter
# that has already loaded what every command loads first, and prints them as
# module bodies (by file name) and generated sources; then counts what one
# frozen dataclass, one plain dataclass and two NamedTuples generate on this
# interpreter, the code ChartField, VerifyConfig, fiber.EvenAlgebra and
# charts.ComplexChart cost; then whether csv is loaded after the import and
# after a default verify.
IMPORT_COST = """
import __future__, argparse, builtins, contextlib, dataclasses, io, json, sys
from typing import NamedTuple
import numpy, numpy.random
calls = []
def counted(run):
    def counting(source, *args, **kwargs):
        calls.append(getattr(source, "co_filename", None))
        return run(source, *args, **kwargs)
    return counting
builtins.exec, builtins.eval = counted(builtins.exec), counted(builtins.eval)
import acsgeom.cli
imported = list(calls)
del calls[:]
@dataclasses.dataclass(frozen=True)
class Frozen:
    x: int
@dataclasses.dataclass
class Plain:
    x: int
class One(NamedTuple):
    x: int
class Other(NamedTuple):
    x: int
reference = len(calls)
csv = ["csv" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert acsgeom.cli.main(["verify"]) == 0
csv.append("csv" in sys.modules)
print(json.dumps({"imported": imported, "reference": reference, "csv": csv}))
"""


def test_import_generates_only_the_two_dataclasses_and_leaves_csv_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_COST], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    bodies = [os.path.basename(f) for f in got["imported"] if f is not None]
    assert sorted(bodies) == ["__init__.py", "charts.py", "cli.py", "errors.py", "fiber.py",
                              "geometry.py", "structures.py", "verify.py"]
    generated = got["imported"].count(None)
    assert generated == got["reference"], (
        f"{generated} generated sources, {got['reference']} expected; "
        f"{len(got['imported'])} exec and eval calls in all")
    assert got["csv"] == [False, False]


def test_chart_field_and_verify_config_are_the_only_dataclasses():
    found = {f"{module.__name__}.{name}"
             for module in (acsgeom.charts, acsgeom.cli, acsgeom.fiber, acsgeom.geometry,
                            acsgeom.structures, acsgeom.verify)
             for name, value in vars(module).items()
             if inspect.isclass(value) and value.__module__ == module.__name__
             and dataclasses.is_dataclass(value)}
    assert found == {"acsgeom.geometry.ChartField", "acsgeom.verify.VerifyConfig"}
