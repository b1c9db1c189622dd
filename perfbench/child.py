"""Child processes: environment and precise timing.

``subprocess.run(..., timeout=...)`` waits by polling with sleeps of up
to 50 ms, which rounds every measured latency up to that grid.  Here the
wait blocks in ``waitpid`` and a timer thread enforces the time limit.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time


def env_with_src(src: str) -> dict:
    """The caller's environment, with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_timed(argv: list[str], env: dict, timeout_s: float) -> tuple[int, float]:
    """Run ``argv`` with its output discarded; return (exit code, wall s).

    A child still running after ``timeout_s`` is killed, which shows as a
    negative exit code.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    return rc, time.perf_counter() - start
