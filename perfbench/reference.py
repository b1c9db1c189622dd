"""Fixed reference computations, timed between the ops of a run.

The host the benchmark was built on switches between speeds up to 1.6x
apart, in spells of under a second to minutes, and not every kind of
work slows by the same factor.  So op latencies in seconds follow the
host as much as the code.  Each workload therefore has a reference: a
fixed amount of the kind of work its ops do, using nothing from acsgeom.
Timed right before and right after each op, it gives the speed of the
host for that kind of work at that moment, and the op's latency divided
by it is a cost that follows the code rather than the host.

- ``linalg_s``: small dense linear algebra called from a Python loop,
  as in the per-point fiber kernels (``field_1000``).
- ``json_s``: JSON encoding with an indent, decoding, and per-point
  matrices rebuilt from lists, as in bundle I/O (``bundle_io``).
- ``fresh_interpreter_s``: a fresh interpreter that imports numpy and
  scipy.linalg and runs ``linalg_s`` work, as a CLI call does
  (``cli_default``).  Run as a script, this file is that interpreter.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

import numpy as np
import scipy.linalg

_RNG = np.random.default_rng(20020213)
_MATS = [np.eye(4) + 0.1 * _RNG.standard_normal((4, 4)) for _ in range(64)]
_DOC = {"dim": 4, "points": [
    {"id": f"p{i}", "weight": float(w),
     **{key: [[float(x) for x in row] for row in _RNG.standard_normal((4, 4))]
        for key in ("metric", "J", "W", "K")}}
    for i, w in enumerate(_RNG.uniform(0.5, 1.5, size=150))]}
FRESH_INTERPRETER_PASSES = 2


def _linalg_work() -> float:
    acc = 0.0
    for a in _MATS:
        acc += float(np.linalg.solve(a, a.T)[0, 0])
        acc += float(np.linalg.svd(a, compute_uv=False)[0])
        acc += float(np.linalg.qr(a)[1][0, 0])
        acc += float(scipy.linalg.expm(0.1 * a)[0, 0])
        acc += float(np.linalg.cond(a))
    for i in range(60000):
        acc += (i % 7) * 0.5
    return acc


def _json_work() -> float:
    buf = io.StringIO()
    json.dump(_DOC, buf, indent=1)
    doc = json.loads(buf.getvalue())
    acc = 0.0
    for entry in doc["points"]:
        stack = np.array([entry[key] for key in ("metric", "J", "W", "K")])
        acc += float(np.abs(stack).max()) * entry["weight"]
    return acc


def _timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def linalg_s() -> float:
    return _timed(_linalg_work)


def json_s() -> float:
    return _timed(_json_work)


def fresh_interpreter_s(env: dict) -> float:
    from child import run_timed
    rc, seconds = run_timed([sys.executable, os.path.abspath(__file__)], env, 60)
    if rc != 0:
        raise RuntimeError(f"reference interpreter exited with code {rc}")
    return seconds


if __name__ == "__main__":
    for _ in range(FRESH_INTERPRETER_PASSES):
        _linalg_work()
