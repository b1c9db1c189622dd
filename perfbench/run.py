"""acsgeom benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout (acsgeom is imported from ``src/``):

    python3 perfbench/run.py --workload field_1000 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, untraced
    python3 perfbench/run.py --smoke        # every workload, short, both modes

Workloads are described in ``workloads.py``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a separate traced worker and prints
the per-layer metrics.  Every op passes a correctness gate.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, and the environment.  The BLAS
environment is left at the user's default.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

from child import env_with_src, run_timed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cli_default", "field_1000", "bundle_io")
# The end-to-end metrics of the result line.  Op times in seconds are
# printed but not in it: on a host whose speed changes for seconds to
# minutes at a time they follow the host more than the code.  The op cost
# in units of the reference (see reference.py) follows the code.
END_TO_END = ("setup_s", "op_cost_ref", "peak_rss_mb")
SETUP_REPEATS = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads(numpy) -> object:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "blas_env_policy": "left at the user default",
        "git_commit": _git_commit(),
    }


def run_worker(request: dict, tmpdir: str) -> dict:
    fd, req_path = tempfile.mkstemp(suffix=".json", dir=tmpdir)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    res_path = req_path[:-len(".json")] + ".result.json"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), req_path, res_path],
                   stdout=sys.stderr, timeout=WORKER_TIMEOUT_S, check=True)
    with open(res_path, encoding="utf-8") as fh:
        return json.load(fh)


def import_wall_s() -> float:
    """Wall time of ``import acsgeom`` in a fresh interpreter."""
    rc, seconds = run_timed([sys.executable, "-c", "import acsgeom"], env_with_src(SRC), 60)
    if rc != 0:
        raise subprocess.CalledProcessError(rc, "import acsgeom")
    return seconds


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond).  Below eleven samples the smallest value
    is returned and fewer than ten lie beyond it."""
    xs = sorted(values)
    rank = max(1, len(xs) - 10)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, samples) -> None:
        for kind, _, failure, *_ in samples:
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{kind}: {failure}")


def end_to_end(workload: str, seed: int, seconds: float, setups: int,
               tmpdir: str) -> tuple[list, Tally]:
    tally = Tally()
    request = {"workload": workload, "seed": seed, "seconds": seconds,
               "src": SRC, "tmpdir": tmpdir}

    def set_up() -> float:
        if workload == "cli_default":
            return import_wall_s()
        res = run_worker({**request, "mode": "setup"}, tmpdir)
        tally.add(res["warmup"])
        return res["setup_s"]

    # set-ups on both sides of the timed run: the host's speed changes in
    # spells of seconds, and their median should not rest on one spell
    setup = [set_up() for _ in range(setups // 2)]
    res = run_worker({**request, "mode": "run"}, tmpdir)
    if workload != "cli_default":
        setup.append(res["setup_s"])
    setup += [set_up() for _ in range(setups - len(setup))]
    samples = res["samples"]
    with open(os.path.join(OUT_DIR, f"samples-{workload}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"fields": ["kind", "latency_s", "failure", "reference_s_before",
                              "reference_s_after"], "setup_s": setup,
                   "samples": samples}, fh)
    tally.add(res["warmup"])
    tally.add(samples)

    lat = [s[1] for s in samples]
    by_kind: dict[str, list[float]] = {}
    cost_by_kind: dict[str, list[float]] = {}
    for kind, latency, _, ref_before, ref_after in samples:
        by_kind.setdefault(kind, []).append(latency)
        cost_by_kind.setdefault(kind, []).append(2.0 * latency / (ref_before + ref_after))
    refs = [s[3] for s in samples] + [samples[-1][4]]
    completed = sum(1 for s in samples if s[2] is None)
    value, pct, beyond = tail(lat)
    rows = [
        ("setup_s", statistics.median(setup), "s",
         f"median of {setups} " + ("fresh-interpreter imports" if workload == "cli_default"
                                   else "fresh workers")),
        ("op_s_p50", statistics.median(lat), "s", f"n={len(lat)}"),
        ("op_s_tail", value, "s", f"p{pct:.1f}, {beyond} samples beyond, n={len(lat)}"),
        ("op_cost_ref",
         statistics.geometric_mean(statistics.median(v) for v in cost_by_kind.values()),
         "ratio", f"geometric mean over {len(by_kind)} op kinds of the median op "
                  f"latency over the mean of the references timed before and after "
                  f"it, n>={min(map(len, by_kind.values()))} per kind"),
        ("reference_s_p50", statistics.median(refs), "s",
         f"one pass of the reference work, n={len(refs)}"),
        ("ops_per_s", completed / (res["window_s"] - sum(refs)), "1/s",
         f"{completed} ops in the {res['window_s']:.3f} s window less its "
         f"reference passes, closed loop, 1 client"),
        ("fail_frac", tally.failed / tally.attempted, "ratio",
         f"{tally.failed} failed of {tally.attempted} attempted"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB",
         "max over child processes" if workload == "cli_default" else "worker process"),
    ]
    if len(by_kind) > 1:
        rows += [(f"{kind}_s_p50", statistics.median(v), "s", f"n={len(v)}")
                 for kind, v in by_kind.items()]
    return rows, tally


def per_layer(workload: str, seed: int, seconds: float,
              tmpdir: str) -> tuple[list, Tally, list[str], list[str]]:
    tally = Tally()
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    res = run_worker({"workload": workload, "seed": seed, "seconds": seconds,
                      "src": SRC, "tmpdir": tmpdir, "mode": "trace",
                      "spans_path": spans_path}, tmpdir)
    for samples in (res["warmup"], res["untraced"], [res["profile_op"]], res["traced"]):
        tally.add(samples)
    problems = [f"unwrapped copy left: {name}" for name in res["unwrapped"]]
    problems += [f"tracer/cProfile mismatch: {m}" for m in res["profile_mismatches"]]

    layers, bases = res["layers"], res["layer_bases"]
    untraced_s = sum(s[1] for s in res["untraced"])
    traced_s = sum(s[1] for s in res["traced"])
    layers["cli.import_s"] = res["import_s"]
    layers["fiber.import_s"] = res["fiber_import_s"]
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    notes = [
        f"per op over {bases['ops']} traced ops, the same ops as "
        f"{len(res['untraced'])} untraced in-process ops",
        f"tracing overhead: traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s",
        f"fiber.matrices_per_call base: {bases['kernel_calls']} kernel calls",
        f"geometry.resolvents_per_functional base: {bases['resolvents_calls']} "
        f"resolvents calls / {bases['chart_functional_calls']} chart functional calls",
        "fiber.bytes_computed: argument and result bytes of the fiber kernels, "
        "computed from array sizes",
        f"tracer self-check against cProfile: {'FAILED' if problems else 'passed'}",
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    rows = [(name, value, layer_unit(name), "") for name, value in sorted(layers.items())]
    return rows, tally, notes, problems


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes") or name == "fiber.bytes_computed":
        return "B"
    if name.endswith(("_frac", "_per_functional")):
        return "ratio"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: bool, setups: int,
            tmpdir: str) -> tuple[dict, Tally, bool]:
    """Run one workload and print its metrics.

    Returns the metrics of the JSON result line, the op tally, and whether
    every gate (ops and, when tracing, the tracer self-check) passed.
    """
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    if trace:
        rows, tally, notes, problems = per_layer(workload, seed, seconds, tmpdir)
    else:
        rows, tally = end_to_end(workload, seed, seconds, setups, tmpdir)
        notes, problems = [], []
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:<22.10g} {unit:<6} {note}".rstrip())
    for line in notes + problems + [f"FAILED {r}" for r in tally.reasons]:
        print(f"  # {line}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
               if trace or name in END_TO_END}
    return metrics, tally, tally.failed == 0 and not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload for one second, untraced and traced")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "acsgeom", "__init__.py")):
        print(f"error: no acsgeom package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    workloads = WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    if args.smoke:
        plan = [(w, trace) for w in workloads for trace in (False, True)]
        seconds = 1.0
    else:
        plan = [(w, bool(args.trace)) for w in workloads]
        seconds = args.seconds

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT_DIR)
    results = []
    try:
        for workload, trace in plan:
            setups = 1 if args.smoke else SETUP_REPEATS
            results.append((workload, trace,
                            *run_one(workload, args.seed, seconds, trace, setups, tmpdir)))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    print(f"# environment {json.dumps(env, sort_keys=True)}")

    correct = all(ok for *_, ok in results)
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{w}{'.trace' if trace else ''}.{name}": m
                   for w, trace, ms, _, _ in results for name, m in ms.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(t.attempted for *_, t, _ in results),
                      "failed": sum(t.failed for *_, t, _ in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
