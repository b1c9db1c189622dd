"""The benchmark's tracer still hooks every constructor it traces.

``perfbench/tracer.py`` wraps each traced class's ``__init__`` and checks
its span counts against cProfile's calls of the class's own
``__post_init__``, so a constructor that stops calling ``__post_init__``,
or a module that keeps an unwrapped copy of a traced name, shows here as a
mismatch.  The tracer is installed, unchanged, in a fresh interpreter that
writes no bytecode beside it, and profiles one ``field_1000`` op and one
default ``geodesic``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs the tracer, runs the two ops under its cProfile check and prints
# the leftovers, the mismatches and each op's traced calls by name.
SCRIPT = """
import json, sys, tempfile
sys.path[:0] = sys.argv[1:3]
from tracer import SPAN_NAMES, Tracer
import workloads
tracer = Tracer()
tracer.install()
result = {"unwrapped": tracer.unwrapped_copies()}
with tempfile.TemporaryDirectory() as tmp:
    ops = {"field_1000": workloads.Field1000(0, tmp, sys.argv[1], True).cycle()[-1],
           "geodesic": workloads.CliDefault(0, tmp, sys.argv[1], True).cycle()[-1]}
    for name, op in ops.items():
        before = tracer.calls()
        _, result[name + "_mismatches"] = tracer.profile_check(op.run)
        result[name] = dict(zip(SPAN_NAMES, (tracer.calls() - before).tolist()))
print(json.dumps(result))
"""


def test_tracer_hooks_match_cprofile_on_a_field_op_and_a_geodesic():
    proc = subprocess.run([sys.executable, "-B", "-c", SCRIPT, os.path.join(ROOT, "src"),
                           os.path.join(ROOT, "perfbench")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    got = json.loads(proc.stdout)
    assert got["unwrapped"] == []
    assert got["field_1000_mismatches"] == []
    assert got["geodesic_mismatches"] == []
    # the ops reach the traced constructors, so the check covers them
    assert all(got["field_1000"][name] > 0 for name in (
        "geometry.ChartField", "charts.CayleyCoordinate", "structures.AcsField"))
    assert got["geodesic"]["cli.main"] == 1
    assert all(got["geodesic"][name] > 0 for name in (
        "structures.SampleSpace", "fiber.FiberMetric", "structures.AcsField",
        "structures.TangentField", "geometry.ChartField", "charts.CayleyCoordinate"))
