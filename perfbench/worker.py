"""One fresh-interpreter worker of the benchmark.

Usage: python3 worker.py REQUEST.json RESULT.json

The request names the workload, seed, window, mode and the ``src``
directory to import acsgeom from.  Set-up (``import acsgeom``, input
generation and the untimed warm-up) is timed from before the import, so
only the standard library is imported at module level.

Modes:
- ``setup``: set up and stop.
- ``run``: time whole op cycles, untraced, for about the window.
- ``trace``: time cycles untraced for half the window, install the tracer,
  check it against cProfile on one op, then trace the same ops again.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time


def timed_pass(wl, seconds: float, cycles: int | None = None) -> dict:
    """Run whole cycles for about ``seconds`` (at least one), or exactly
    ``cycles`` of them.  Each sample is [kind, latency_s, failure or None,
    reference_s before, reference_s after]: the workload's reference is
    timed between every two ops (see ``reference.py``)."""
    wl.reference_s()  # untimed: the first pass pays for lazy imports
    samples = []
    start = time.perf_counter()
    ref = wl.reference_s()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if done == cycles:
                break
        elif done and elapsed + elapsed / done > seconds:
            break
        for op in wl.cycle():
            sample = run_op(wl, op)
            ref_after = wl.reference_s()
            samples.append(sample + [ref, ref_after])
            ref = ref_after
        done += 1
    return {"samples": samples, "window_s": time.perf_counter() - start,
            "cycles": done}


def run_op(wl, op) -> list:
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        return [op.kind, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - t0
    try:
        failure = wl.check(op, out)
    except Exception as exc:
        failure = f"check raised {type(exc).__name__}: {exc}"
    return [op.kind, latency, failure]


def fiber_import_s(src: str) -> float:
    """``-X importtime`` cost of acsgeom.fiber in a fresh interpreter."""
    from child import env_with_src
    from tracer import importtime_layers
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import acsgeom"],
                          env=env_with_src(src), capture_output=True, text=True,
                          timeout=60, check=True)
    return importtime_layers(proc.stderr)


def main(request_path: str, result_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    mode = req["mode"]

    t0 = time.perf_counter()
    sys.path.insert(0, req["src"])
    import acsgeom
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(acsgeom.__file__)) != \
            os.path.join(os.path.abspath(req["src"]), "acsgeom"):
        raise RuntimeError(f"imported acsgeom from {acsgeom.__file__}, "
                           f"not from {req['src']}")
    import workloads
    wl = workloads.WORKLOADS[req["workload"]](
        req["seed"], req["tmpdir"], req["src"], in_process=(mode == "trace"))
    warmup = [run_op(wl, op) for op in wl.warmup()]
    result = {"setup_s": time.perf_counter() - t0, "import_s": import_s,
              "warmup": warmup}

    if mode == "run":
        result.update(timed_pass(wl, req["seconds"]))
    elif mode == "trace":
        result["fiber_import_s"] = fiber_import_s(req["src"])
        untraced = timed_pass(wl, req["seconds"] / 2)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        result["unwrapped"] = tracer.unwrapped_copies()
        op = wl.cycle()[0]
        start = time.perf_counter()
        out, result["profile_mismatches"] = tracer.profile_check(op.run)
        result["profile_op"] = [op.kind, time.perf_counter() - start, wl.check(op, out)]
        tracer.reset()
        traced = timed_pass(wl, 0.0, cycles=untraced["cycles"])
        layers, bases = tracer.layer_metrics(len(traced["samples"]))
        result.update(untraced=untraced["samples"], traced=traced["samples"],
                      layers=layers, layer_bases=bases)
        tracer.write_spans(req["spans_path"])

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if req["workload"] == "cli_default"
                               else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
