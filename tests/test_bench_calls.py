"""The benchmark's in-process workloads still run on the library and pass
their own correctness gate.

``perfbench/workloads.py`` calls the library from outside ``src/``:
``field_1000`` builds its fields and validators through ``structures`` and
``geometry``, and ``bundle_io`` saves, loads and projects a bundle.  A
change of signature there breaks the benchmark, which tier-1 does not run.
This test imports the workloads without writing bytecode beside them,
builds each at seed 0 and runs one cycle, checking every op with the
workload's own ``check``.
"""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def workloads():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        for name in ("workloads", "reference", "child"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["field_1000", "bundle_io"])
def test_one_cycle_passes_its_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](0, str(tmp_path), os.path.join(ROOT, "src"), True)
    ops = workload.cycle()
    assert ops
    for op in ops:
        assert workload.check(op, op.run()) is None, (name, op.kind, op.key)
