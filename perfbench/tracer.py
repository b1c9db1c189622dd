"""Span tracer for the acsgeom layers, installed from outside the package.

Each public name listed in ``LAYERS`` is replaced by a wrapper that
records one span (name, start, end, parent) per call.  Functions are
replaced in every ``acsgeom`` module namespace that holds them, because
``from .fiber import mat_inv_guarded`` binds the same object in several
modules; constructors and ``ChartField.resolvents`` are wrapped on their
classes.  Spans are kept in flat arrays and turned into per-layer counts
and self times when the run ends.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import pstats
import sys
import time
from array import array

import numpy as np

# layer -> traced attributes of its module; a dotted attribute names a
# method, a capitalised one a class whose constructor is traced.
LAYERS = {
    "fiber": ("mat_inv_guarded", "mat_exp", "mat_tanh_half", "g_adjoint",
              "FiberMetric"),
    "charts": ("CayleyCoordinate", "cayley_to_acs", "acs_to_cayley",
               "pushforward", "random_anticommuting"),
    "structures": ("SampleSpace", "AcsField", "TangentField", "validate_acs",
                   "validate_associated", "validate_orthogonal",
                   "sym_antisym_split", "random_tangent_field", "save_bundle",
                   "load_bundle"),
    "geometry": ("ChartField", "ChartField.resolvents", "shifted",
                 "chart_inner", "chart_omega", "christoffel", "curvature",
                 "geodesic_chart", "geodesic_ambient"),
    "verify": ("check_cayley", "check_theorem1", "check_theorem2",
               "check_geodesics", "check_curvature_fd",
               "check_metric_structure", "check_totally_geodesic",
               "check_signature"),
    "cli": ("main",),
}
KERNELS = ("fiber.mat_inv_guarded", "fiber.mat_exp", "fiber.mat_tanh_half",
           "fiber.g_adjoint")
CHART_FUNCTIONALS = ("geometry.chart_inner", "geometry.chart_omega",
                     "geometry.christoffel", "geometry.curvature")


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(layer, attr)
                   for layer, attrs in LAYERS.items() for attr in attrs)


def _matrices(x) -> int:
    """Number of n x n matrices in an array argument (1 for a single one)."""
    if isinstance(x, np.ndarray) and x.ndim >= 2:
        return int(np.prod(x.shape[:-2], dtype=np.int64))
    return 0


def _nbytes(x) -> int:
    if isinstance(x, np.ndarray):
        return x.nbytes
    matrix = getattr(x, "matrix", None)  # FiberMetric
    return matrix.nbytes if isinstance(matrix, np.ndarray) else 0


def _acsgeom_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "acsgeom" or name.startswith("acsgeom."))]


def _class_slot(layer: str, attr: str):
    """(class, attribute) through which a method or a constructor is
    traced, or None for a module-level function."""
    module = importlib.import_module(f"acsgeom.{layer}")
    if "." in attr:
        cls_name, key = attr.split(".")
        return getattr(module, cls_name), key
    if attr[0].isupper():
        return getattr(module, attr), "__init__"
    return None


class Tracer:
    """Wraps the traced names and records their spans in memory."""

    def __init__(self):
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.kernel_calls = 0
        self.kernel_matrices = 0
        self.kernel_bytes = 0
        self.failed = 0
        self.io_bytes = {"structures.save_bundle": 0, "structures.load_bundle": 0}
        self._last_failure = None
        self._originals: dict[str, object] = {}  # span name -> unwrapped object
        self._wrapped: dict[str, object] = {}
        self._profile_code: dict[str, object] = {}  # span name -> code cProfile sees

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from acsgeom.errors import SingularOperator
        self._singular = SingularOperator
        for layer in LAYERS:
            importlib.import_module(f"acsgeom.{layer}")
        modules = _acsgeom_modules()
        for layer, attrs in LAYERS.items():
            for attr in attrs:
                name = span_name(layer, attr)
                slot = _class_slot(layer, attr)
                if slot is not None:
                    cls, key = slot
                    orig = cls.__dict__[key]
                    wrapper = self._wrap(name, orig)
                    setattr(cls, key, wrapper)
                    # a dataclass __init__ is generated code; it runs the
                    # class's own __post_init__ once per construction
                    code = (cls.__dict__["__post_init__"] if key == "__init__"
                            else orig).__code__
                else:
                    orig = getattr(sys.modules[f"acsgeom.{layer}"], attr)
                    wrapper = self._wrap(name, orig)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, key, wrapper)
                    code = orig.__code__
                self._originals[name] = orig
                self._wrapped[name] = wrapper
                self._profile_code[name] = code

    def unwrapped_copies(self) -> list[str]:
        """Places in ``acsgeom`` that still hold an unwrapped original."""
        originals = {id(o): o for o in self._originals.values()}
        leftovers = [f"{mod.__name__}.{key}"
                     for mod in _acsgeom_modules()
                     for key, value in vars(mod).items()
                     if originals.get(id(value)) is value]
        for layer, attrs in LAYERS.items():
            for attr in attrs:
                slot = _class_slot(layer, attr)
                if slot is not None and \
                        slot[0].__dict__[slot[1]] is not self._wrapped.get(span_name(layer, attr)):
                    leftovers.append(f"acsgeom.{layer}.{attr}")
        return leftovers

    def _wrap(self, name: str, fn):
        tracer = self
        idx = SPAN_NAMES.index(name)
        kernel = name in KERNELS
        io_arg = {"structures.save_bundle": 1,
                  "structures.load_bundle": 0}.get(name)
        fiber = name.startswith("fiber.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(tracer.start)
            tracer.name_idx.append(idx)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(span)
            if kernel:
                tracer.kernel_calls += 1
                tracer.kernel_matrices += _matrices(np.asarray(args[0]))
                tracer.kernel_bytes += sum(_nbytes(a) for a in args)
            if io_arg == 0:
                tracer.io_bytes[name] += os.path.getsize(args[0])
            tracer.start[span] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if fiber and isinstance(exc, tracer._singular) \
                        and exc is not tracer._last_failure:
                    tracer.failed += 1
                    tracer._last_failure = exc
                raise
            finally:
                tracer.end[span] = time.perf_counter()
                tracer.stack.pop()
            if kernel:
                tracer.kernel_bytes += _nbytes(out)
            if io_arg == 1:
                tracer.io_bytes[name] += os.path.getsize(args[1])
            return out

        return traced

    # -- results --------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans and counters; wrappers stay installed."""
        for arr in (self.name_idx, self.parent, self.start, self.end):
            del arr[:]
        self.kernel_calls = self.kernel_matrices = self.kernel_bytes = 0
        self.failed = 0
        self.io_bytes = dict.fromkeys(self.io_bytes, 0)

    def calls(self) -> np.ndarray:
        return np.bincount(np.frombuffer(self.name_idx, dtype=np.int32),
                           minlength=len(SPAN_NAMES))

    def profile_check(self, op) -> tuple[object, list[str]]:
        """Run ``op`` under cProfile and compare call counts name by name.

        Returns the op's output and the names whose wrapped call count
        differs from cProfile's ``ncalls`` of the unwrapped code.
        """
        before = self.calls()
        prof = cProfile.Profile()
        prof.enable()
        try:
            out = op()
        finally:
            prof.disable()
        counted = self.calls() - before
        ncalls = {}
        for (filename, line, func), (_, nc, *_rest) in pstats.Stats(prof).stats.items():
            ncalls[(filename, line, func)] = nc
        mismatches = []
        for i, name in enumerate(SPAN_NAMES):
            code = self._profile_code[name]
            expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
            if expected != counted[i]:
                mismatches.append(f"{name}: wrapped {counted[i]} != cProfile {expected}")
        return out, mismatches

    def layer_metrics(self, n_ops: int) -> tuple[dict[str, float], dict[str, int]]:
        """Per-op counts and self times of every traced name and layer,
        and the bases of the ratios among them."""
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = np.bincount(names, weights=dur - covered, minlength=len(SPAN_NAMES))
        inclusive = np.bincount(names, weights=dur, minlength=len(SPAN_NAMES))
        calls = np.bincount(names, minlength=len(SPAN_NAMES))

        m: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(SPAN_NAMES):
            layer = name.split(".")[0]
            layer_self[layer] += float(self_time[i])
            if layer == "verify":
                m[f"{name}.s"] = float(inclusive[i]) / n_ops
            else:
                m[f"{name}.calls"] = float(calls[i]) / n_ops
                m[f"{name}.self_s"] = float(self_time[i]) / n_ops
        for layer, total in layer_self.items():
            if layer != "cli":
                m[f"{layer}.self_s"] = total / n_ops
        m["fiber.matrices_per_call"] = (self.kernel_matrices / self.kernel_calls
                                        if self.kernel_calls else 0.0)
        m["fiber.bytes_computed"] = self.kernel_bytes / n_ops
        m["fiber.failed"] = self.failed / n_ops
        for name, total in self.io_bytes.items():
            m[f"{name}.bytes"] = total / n_ops
        functionals = sum(int(calls[SPAN_NAMES.index(n)]) for n in CHART_FUNCTIONALS)
        resolvents = int(calls[SPAN_NAMES.index("geometry.resolvents")])
        m["geometry.resolvents_per_functional"] = (resolvents / functionals
                                                   if functionals else 0.0)
        bases = {"ops": n_ops, "kernel_calls": self.kernel_calls,
                 "chart_functional_calls": functionals,
                 "resolvents_calls": resolvents}
        return m, bases

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields and
        the span names, then one [name index, start, end, parent] each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent"],
                                 "names": SPAN_NAMES}) + "\n")
            for span in zip(self.name_idx, self.start, self.end, self.parent):
                fh.write(json.dumps(span) + "\n")


def importtime_layers(stderr: str) -> float:
    """``-X importtime`` self time of acsgeom.fiber plus the cumulative
    time of the scipy.linalg import it triggers, in seconds."""
    fiber_self = linalg_cum = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        module = parts[2].strip()
        if module == "acsgeom.fiber":
            fiber_self = self_us * 1e-6
        elif module == "scipy.linalg":
            linalg_cum = cum_us * 1e-6
    return fiber_self + linalg_cum
