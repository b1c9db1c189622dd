"""Command-line frontend.

Subcommands: ``verify`` (full checker suite), ``geodesic`` (trace table),
``curvature`` / ``signature`` (single checkers), ``project``
(symmetric/antisymmetric decomposition of a tangent field from a file).

Precedence of settings: flags > config file (``--config``, JSON with the
same keys) > built-in defaults.  Relative ``--out`` paths are resolved
against the directory named by the ACSGEOM_OUT_DIR environment variable
when it is set.  Exit codes: 0 all checks pass, 1 a check failed, 2 on
usage, configuration or input errors.

Outputs are reproducible byte for byte for identical flags and seed:
reports carry no timestamps, machine identifiers, or float formatting
that depends on locale.  CSV numbers use 17 significant digits, and cells
that hold a comma or a quote are quoted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError, IoError
from .fiber import max_abs
from .geometry import geodesic_ambient, geodesic_chart
from .structures import (
    FieldBundle,
    MetricField,
    load_bundle,
    point_classes,
    random_sample_space,
    random_tangent_field,
    standard_acs_field,
    standard_symplectic_field,
    sym_antisym_split,
    validate_acs,
    validate_associated,
    validate_orthogonal,
)
from .verify import (
    CHECK_NAMES,
    VerifyConfig,
    derive_rng,
    geodesic_equation_residual,
    report_document,
    run_check,
    run_suite,
    tolerance_flag,
)

OUT_DIR_ENV = "ACSGEOM_OUT_DIR"
# the single-check commands and the checker each runs; they take no --in
SINGLE_CHECKS = {"curvature": "curvature_fd", "signature": "signature"}
CONFIG_KEYS = ("dim", "points", "seed", "t_max", "t_steps", "h",
               "tolerances", "input", "output", "format")


@dataclass
class RunConfig:
    command: str
    dim: int = 4
    points: int = VerifyConfig.points
    seed: int = VerifyConfig.seed
    t_max: float = VerifyConfig.t_max
    t_steps: int = VerifyConfig.t_steps
    h: float = VerifyConfig.h
    tolerances: dict = field(default_factory=dict)
    input_path: str | None = None
    output_path: str | None = None
    format: str = "report"

    def validate(self) -> None:
        """Check the settings only the command line has, then every shared
        one through :meth:`VerifyConfig.validate`, with the size caps of the
        checkers this command runs."""
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.format not in ("report", "csv"):
            raise ConfigError(f"format must be 'report' or 'csv', got {self.format!r}")
        if self.command in SINGLE_CHECKS and self.input_path:
            raise ConfigError(f"{self.command} does not read an input bundle (--in)")
        if self.command == "verify":
            checks = CHECK_NAMES
        else:
            checks = [SINGLE_CHECKS[self.command]] if self.command in SINGLE_CHECKS else []
        self.verify_config().validate(checks)

    def verify_config(self, bundle: FieldBundle | None = None) -> VerifyConfig:
        return VerifyConfig(seed=self.seed, dims=(self.dim,), fd_dims=(self.dim,),
                            points=self.points, h=self.h, t_max=self.t_max,
                            t_steps=self.t_steps, tolerances=self.tolerances,
                            bundle=bundle)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, default=None,
                        help="fiber dimension 2n (default 4)")
    common.add_argument("--points", type=int, default=None,
                        help="sample points in the weighted space (default 8)")
    common.add_argument("--seed", type=int, default=None,
                        help="master seed for all random draws (default 0)")
    common.add_argument("--t-max", type=float, default=None,
                        help="end of the geodesic parameter grid (default 2.0)")
    common.add_argument("--t-steps", type=int, default=None,
                        help="number of grid points on [0, t-max] (default 9)")
    common.add_argument("--h", type=float, default=None,
                        help="finite-difference step (default 1e-4)")
    common.add_argument("--in", dest="input_path", default=None, metavar="FILE",
                        help="input field bundle (JSON)")
    common.add_argument("--out", dest="output_path", default=None, metavar="FILE",
                        help=f"output file; relative paths resolve against ${OUT_DIR_ENV} "
                             "when set (default: stdout)")
    common.add_argument("--format", choices=("report", "csv"), default=None,
                        help="output format (default report)")
    common.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config merged below flags")
    for name in CHECK_NAMES:
        common.add_argument(tolerance_flag(name),
                            dest=f"tol_{name}", type=float, default=None,
                            help=f"primary tolerance override for the {name} check")

    parser = argparse.ArgumentParser(
        prog="acsgeom",
        description="numerical geometry of the space of almost complex structures")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    for key in data:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r} in {path!r}")
    if "tolerances" in data and not isinstance(data["tolerances"], dict):
        raise ConfigError("config key 'tolerances' must be an object")
    for key in ("input", "output"):
        if key in data and not isinstance(data[key], str):
            raise ConfigError(f"config key {key!r} must be a path string, got {data[key]!r}")
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over the optional config file over defaults."""
    filed = _read_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=args.command)

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return filed.get(key, default)

    for key in ("dim", "points", "seed", "t_max", "t_steps", "h", "format"):
        setattr(cfg, key, pick(getattr(args, key), key, getattr(cfg, key)))
    cfg.input_path = pick(args.input_path, "input", None)
    cfg.output_path = pick(args.output_path, "output", None)
    tolerances = dict(filed.get("tolerances", {}))
    for name in CHECK_NAMES:
        value = getattr(args, f"tol_{name}")
        if value is not None:
            tolerances[name] = value
    cfg.tolerances = tolerances
    cfg.validate()
    return cfg


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            return os.path.join(base, path)
    return path


def _write_text(cfg: RunConfig, text: str) -> None:
    path = _resolve_out(cfg.output_path)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write output file {path!r}: {exc}") from exc


def _num(x) -> str:
    return format(float(x), ".17g")


def _emit(cfg: RunConfig, header: list[str], rows, doc: dict) -> None:
    """Write ``rows`` under ``header`` as CSV (numbers through :func:`_num`,
    cells quoted where needed), or ``doc`` as the JSON report."""
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell if isinstance(cell, str) else _num(cell) for cell in row]
                         for row in rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_text(cfg, text)


def _emit_reports(cfg: RunConfig, reports, vconf: VerifyConfig) -> int:
    doc = report_document(reports, vconf, input_path=cfg.input_path)
    rows = [[r.name, r.max_residual, r.tolerance, "1" if r.passed else "0"]
            for r in reports]
    _emit(cfg, ["check", "max_residual", "tolerance", "passed"], rows, doc)
    if cfg.output_path is not None:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name}: max_residual={r.max_residual:.3e} "
                  f"tolerance={r.tolerance:.3e}")
    return 0 if doc["passed"] else 1


def cmd_verify(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg.input_path) if cfg.input_path else None
    vconf = cfg.verify_config(bundle)
    return _emit_reports(cfg, run_suite(vconf), vconf)


def cmd_single_check(cfg: RunConfig) -> int:
    vconf = cfg.verify_config()
    return _emit_reports(cfg, [run_check(vconf, SINGLE_CHECKS[cfg.command])], vconf)


def cmd_geodesic(cfg: RunConfig) -> int:
    """Trace t, max|K(t)|, structure residual, geodesic-equation residual
    and the associated/orthogonal validator flags over the grid.  Exits 1
    when a traced value is not finite."""
    if cfg.input_path:
        bundle = load_bundle(cfg.input_path)
        if bundle.J is None or bundle.K is None:
            raise ConfigError("geodesic needs an input bundle with J and K fields")
        space, j0f, a = bundle.space, bundle.J, bundle.K
        acs = validate_acs(j0f)
        if not acs.passed:
            raise IoError(f"J at point {acs.worst_point!r} does not square to -identity, "
                          f"residual {acs.max_residual:.3e}")
        wf = bundle.W if bundle.W is not None else standard_symplectic_field(space)
    else:
        rng = derive_rng(cfg.seed, "cli_geodesic", cfg.dim)
        space = random_sample_space(rng, cfg.dim, cfg.points)
        j0f = standard_acs_field(space)
        a = random_tangent_field(rng, j0f)
        wf = standard_symplectic_field(space)
    gf = MetricField(space, space.metrics)

    rows = []
    for t in np.linspace(0.0, cfg.t_max, cfg.t_steps):
        t = float(t)
        try:
            jt = geodesic_ambient(j0f, a, t)
            assoc = validate_associated(jt, wf).passed
            orth = validate_orthogonal(jt, gf, j0f).passed
            rows.append([t, max_abs(geodesic_chart(a, t).ops), validate_acs(jt).max_residual,
                         geodesic_equation_residual(a, t, cfg.h), int(assoc), int(orth)])
        except GeometryError as exc:
            raise ConfigError(f"geodesic trace fails at t={t!r} (--t-max {cfg.t_max!r}, "
                              f"--h {cfg.h!r}): {exc}") from None
    header = ["t", "k_max", "acs_residual", "geodesic_residual",
              "associated", "orthogonal"]
    _emit(cfg, header, rows,
          {"command": "geodesic", "columns": header, "rows": rows,
           "seed": cfg.seed, "dim": space.dim, "points": space.npoints,
           "h": cfg.h, "t_max": cfg.t_max, "t_steps": cfg.t_steps,
           "input": cfg.input_path})
    if not np.isfinite([r[:4] for r in rows]).all():
        print("error: the geodesic trace holds a non-finite value", file=sys.stderr)
        return 1
    return 0


def cmd_project(cfg: RunConfig) -> int:
    """Per-point norms of the metric-symmetric and antisymmetric parts of
    an input tangent field, with a class label."""
    if not cfg.input_path:
        raise ConfigError("project requires --in with a bundle holding J and K")
    bundle = load_bundle(cfg.input_path)
    if bundle.J is None or bundle.K is None:
        raise ConfigError("project needs an input bundle with J and K fields")
    space, k = bundle.space, bundle.K
    gf = MetricField(space, space.metrics)
    p, l = sym_antisym_split(k, gf)
    header = ["id", "p_norm", "l_norm", "class"]
    rows = list(zip(map(str, space.point_ids),
                    np.max(np.abs(p), axis=(1, 2)).tolist(),
                    np.max(np.abs(l), axis=(1, 2)).tolist(),
                    point_classes(k, gf)))
    _emit(cfg, header, rows, {"command": "project", "input": cfg.input_path,
                              "points": [dict(zip(header, r)) for r in rows]})
    return 0


# subcommand -> (help text, handler)
COMMANDS = {
    "verify": ("run the full verification suite", cmd_verify),
    "geodesic": ("trace a geodesic and its validators", cmd_geodesic),
    "curvature": ("finite-difference curvature check", cmd_single_check),
    "project": ("split an input tangent field into symmetric and antisymmetric parts",
                cmd_project),
    "signature": ("signature of the metric at the chart origin", cmd_single_check),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = build_config(args)
        return COMMANDS[cfg.command][1](cfg)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
