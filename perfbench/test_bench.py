"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/test_bench.py
(about a minute; the repository's own test suite does not collect it).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_smoke_passes_every_gate_and_reports_every_metric():
    proc = _bench(["--smoke", "--seed", "1"], ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "tracer self-check against cProfile: passed" in proc.stdout

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {}
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            expected[f"{w['name']}.{m['name']}"] = m["unit"]
        for m in spec["per_layer"]:
            expected[f"{w['name']}.trace.{m['name']}"] = m["unit"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    printed = {line.split()[0] for line in proc.stdout.splitlines()
               if line.startswith("  ") and not line.startswith("  #")}
    assert {"fail_frac", "verify_s_p50", "signature_s_p50", "curvature_s_p50",
            "geodesic_s_p50", "save_s_p50", "load_s_p50", "project_s_p50"} <= printed


def test_refuses_to_run_without_the_package_sources():
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench(["--workload", "bundle_io", "--seed", "0", "--seconds", "1",
                       "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


SELF_CHECK = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import acsgeom, acsgeom.cli
from tracer import Tracer
original = acsgeom.fiber.mat_exp
tracer = Tracer()
tracer.install()
assert tracer.unwrapped_copies() == [], tracer.unwrapped_copies()
_, mismatches = tracer.profile_check(lambda: acsgeom.geometry.mat_exp(np.eye(2)))
assert mismatches == [], mismatches
_, mismatches = tracer.profile_check(lambda: original(np.eye(2)))
assert mismatches == ["fiber.mat_exp: wrapped 0 != cProfile 1"], mismatches
acsgeom.verify.mat_exp = original
assert tracer.unwrapped_copies() == ["acsgeom.verify.mat_exp"], tracer.unwrapped_copies()
"""


def test_tracer_self_check_catches_untraced_calls_and_copies():
    proc = subprocess.run([sys.executable, "-c", SELF_CHECK, os.path.join(ROOT, "src"), HERE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
