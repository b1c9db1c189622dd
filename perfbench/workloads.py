"""The benchmark's workloads: inputs made from a seed, the ops, and the
correctness gate every op must pass.

All three are closed loops with one client that run one op at a time, in
cycles over the op kinds (or grid times) listed by ``cycle()``, with the
workload's reference (``reference.py``) timed between every two ops.  Ops look
up acsgeom functions through their modules at call time, so the tracer's
wrappers see every call.

- ``cli_default``: ``acsgeom verify``, ``signature``, ``curvature`` and
  ``geodesic`` at default flags, each a fresh interpreter; what users type.
- ``field_1000``: library use on 1000-point, dim-4 fields, one op per grid
  time t on [0, 2]; the large-sample regime where per-point loops dominate.
- ``bundle_io``: ``save_bundle``, ``load_bundle`` and ``acsgeom project``
  on a 1000-point bundle; I/O and input validation instead of math.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

import acsgeom
import acsgeom.cli
import reference
from child import env_with_src, run_timed

DIM = 4
POINTS = 1000
T_GRID = tuple(float(t) for t in np.linspace(0.0, 2.0, 9))
CLI_MAIN = "import sys; from acsgeom.cli import main; sys.exit(main())"
CLI_OP_TIMEOUT_S = 60


class Op(NamedTuple):
    kind: str
    key: object
    run: Callable[[], object]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _read_once(path: str) -> bytes:
    """Read an op's output file and remove it, so a later op that writes
    nothing cannot pass on stale output."""
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def _cli_in_process(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return acsgeom.cli.main(argv)


class CliDefault:
    """Round robin over four subcommands at default flags."""

    name = "cli_default"
    kinds = ("verify", "signature", "curvature", "geodesic")

    def __init__(self, seed: int, tmpdir: str, src: str, in_process: bool):
        self.in_process = in_process
        self.out = {k: os.path.join(tmpdir, f"{k}.json") for k in self.kinds}
        self.argv = {k: [k, "--seed", str(seed), "--out", self.out[k]]
                     for k in self.kinds}
        self.env = env_with_src(src)
        self.first: dict[str, bytes] = {}

    def cycle(self) -> list[Op]:
        return [Op(k, k, lambda k=k: self._run(k)) for k in self.kinds]

    def warmup(self) -> list[Op]:
        # a subprocess op pays start-up costs on every call, as users do
        return self.cycle()[:1] if self.in_process else []

    def reference_s(self) -> float:
        if self.in_process:
            return reference.linalg_s()
        return reference.fresh_interpreter_s(self.env)

    def _run(self, kind: str) -> int:
        if self.in_process:
            return _cli_in_process(self.argv[kind])
        rc, _ = run_timed([sys.executable, "-c", CLI_MAIN, *self.argv[kind]],
                          self.env, CLI_OP_TIMEOUT_S)
        return rc

    def check(self, op: Op, rc) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        data = _read_once(self.out[op.kind])
        doc = json.loads(data)
        if op.kind == "geodesic":
            # the geodesic trace has no pass flag; its values must be finite
            if not all(math.isfinite(x) for row in doc["rows"] for x in row):
                return "non-finite value in the geodesic trace"
        elif doc.get("passed") is not True:
            return "report does not say passed"
        if self.first.setdefault(op.kind, data) != data:
            return "output differs from the first op of this subcommand"
        return None


class Field1000:
    """One op per grid time t: chart geodesic, a chart field at K(t), the
    chart functionals, and two ambient geodesics with their validators."""

    name = "field_1000"
    reference_s = staticmethod(reference.linalg_s)

    def __init__(self, seed: int, tmpdir: str, src: str, in_process: bool):
        st = acsgeom.structures
        rng = np.random.default_rng(seed)
        self.space = st.random_sample_space(rng, DIM, POINTS)
        self.j0 = st.standard_acs_field(self.space)
        self.a = st.random_tangent_field(rng, self.j0)
        self.b = st.random_tangent_field(rng, self.j0)
        self.a_sym = st.random_tangent_field(rng, self.j0, part="symmetric")
        self.a_anti = st.random_tangent_field(rng, self.j0, part="antisymmetric")
        self.w = st.standard_symplectic_field(self.space)
        self.g = st.identity_metric_field(self.space)
        self.first: dict[int, str] = {}

    def cycle(self) -> list[Op]:
        return [Op("op", i, lambda t=t: self._run(t)) for i, t in enumerate(T_GRID)]

    def warmup(self) -> list[Op]:
        return self.cycle()[-1:]  # t > 0, so every kernel path runs

    def _run(self, t: float):
        ge, st = acsgeom.geometry, acsgeom.structures
        kt = ge.geodesic_chart(self.a, t)
        c = ge.ChartField(self.space, self.j0, kt)
        gamma = ge.christoffel(c, self.a, self.b)
        r = ge.curvature(c, self.a, self.b, self.b)
        inner = ge.chart_inner(c, self.a, self.b)
        omega = ge.chart_omega(c, self.a, self.b)
        j_sym = ge.geodesic_ambient(self.j0, self.a_sym, t)
        assoc = st.validate_associated(j_sym, self.w)
        j_anti = ge.geodesic_ambient(self.j0, self.a_anti, t)
        orth = st.validate_orthogonal(j_anti, self.g, self.j0)
        arrays = (kt.ops, gamma.ops, r.ops, np.array([inner, omega]),
                  j_sym.ops, j_anti.ops)
        return arrays, assoc.passed, orth.passed

    def check(self, op: Op, out) -> str | None:
        arrays, assoc, orth = out
        if not all(np.isfinite(a).all() for a in arrays):
            return "non-finite output"
        if not (assoc and orth):
            return f"validators: associated={assoc} orthogonal={orth}"
        digest = _digest(*arrays)
        if self.first.setdefault(op.key, digest) != digest:
            return f"output at t={T_GRID[op.key]} differs from its first run"
        return None


def commuting_metrics(rng: np.random.Generator, j0: np.ndarray,
                      points: int) -> np.ndarray:
    """SPD metrics that commute with j0, one per point: 1 + 0.3 C/|C| with
    C the j0-commuting part of a random symmetric matrix.  The standard
    structure stays skew for them, so tangent splits stay tangent."""
    out = np.empty((points,) + j0.shape)
    for i in range(points):
        m = rng.uniform(-1.0, 1.0, size=j0.shape)
        s = 0.5 * (m + m.T)
        c = 0.5 * (s - j0 @ s @ j0)
        out[i] = np.eye(j0.shape[0]) + 0.3 * c / np.linalg.norm(c, 2)
    return out


class BundleIO:
    """Cycles of save, load and ``acsgeom project`` on one bundle file."""

    name = "bundle_io"
    reference_s = staticmethod(reference.json_s)

    def __init__(self, seed: int, tmpdir: str, src: str, in_process: bool):
        st, ch = acsgeom.structures, acsgeom.charts
        rng = np.random.default_rng(seed)
        j0 = ch.standard_acs(DIM)
        metrics = commuting_metrics(rng, j0, POINTS)
        space = st.SampleSpace(DIM, rng.uniform(0.5, 1.5, size=POINTS), metrics)
        j = st.standard_acs_field(space)
        w = st.SymplecticField(space, -metrics @ j0)  # W J = G
        k = st.random_tangent_field(rng, j)
        self.bundle = st.FieldBundle(space, j, w, k)
        self.path = os.path.join(tmpdir, "bundle.json")
        self.project_out = os.path.join(tmpdir, "project.json")
        self.project_argv = ["project", "--in", self.path, "--out", self.project_out]
        self.first: dict[str, bytes] = {}

    def cycle(self) -> list[Op]:
        st = acsgeom.structures
        return [Op("save", "save", lambda: st.save_bundle(self.bundle, self.path)),
                Op("load", "load", lambda: st.load_bundle(self.path)),
                Op("project", "project",
                   lambda: _cli_in_process(self.project_argv))]

    def warmup(self) -> list[Op]:
        return self.cycle()  # load and project need the file save writes

    def check(self, op: Op, out) -> str | None:
        if op.kind == "save":
            with open(self.path, "rb") as fh:
                data = hashlib.sha256(fh.read()).digest()
        elif op.kind == "load":
            want, got = self.bundle, out
            pairs = ((want.space.weights, got.space.weights),
                     (want.space.metrics, got.space.metrics),
                     (want.J.ops, got.J.ops), (want.W.forms, got.W.forms),
                     (want.K.ops, got.K.ops))
            if got.space.point_ids != want.space.point_ids or \
                    not all(_bitwise_equal(a, b) for a, b in pairs):
                return "loaded arrays differ from the saved ones"
            return None
        else:
            if out != 0:
                return f"project exit code {out}"
            data = _read_once(self.project_out)
        if self.first.setdefault(op.kind, data) != data:
            return f"{op.kind} output differs from its first run"
        return None


WORKLOADS = {w.name: w for w in (CliDefault, Field1000, BundleIO)}
