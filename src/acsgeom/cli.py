"""Command-line frontend.

Subcommands: ``verify`` (full checker suite), ``geodesic`` (trace table),
``curvature`` / ``signature`` (single checkers), ``project`` (symmetric /
antisymmetric split of a tangent field from a file).  ``COMMANDS`` gives
each the checks it runs and the settings it reads, hence its flags, config
keys and size caps; an unread or abbreviated flag or key is a usage error.

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, IoError, NonFiniteValue
from .fiber import max_abs, slice_max_abs
from .geometry import geodesic_ambient, geodesic_chart
from .structures import (
    FieldBundle,
    load_bundle,
    random_sample_space,
    random_tangent_field,
    split_and_classify,
    standard_acs_field,
    standard_symplectic_field,
    validate_acs,
    validate_associated,
    validate_orthogonal,
)
from .verify import (
    CHECK_NAMES,
    FLAGS,
    VerifyConfig,
    derive_rng,
    geodesic_equation_residual,
    report_document,
    run_suite,
)

OUT_DIR_ENV = "ACSGEOM_OUT_DIR"
# Settings a subcommand may read besides output and format: config key -> flag, type, help
SETTINGS = {
    "dim": (FLAGS["dims"], int, "fiber dimension 2n (default 4)"),
    "points": (FLAGS["points"], int, "sample points in the weighted space (default 8)"),
    "seed": (FLAGS["seed"], int, "master seed for all random draws (default 0)"),
    "t_max": (FLAGS["t_max"], float, "end of the geodesic parameter grid (default 2.0)"),
    "t_steps": (FLAGS["t_steps"], int, "number of grid points on [0, t-max] (default 9)"),
    "input": ("--in", str, "input field bundle (JSON)"),
}


@dataclass(frozen=True)
class Command:
    """A subcommand: its help and handler, the checkers it runs (their size
    caps), the settings it reads besides output and format, and those of them
    an input bundle fixes, refused beside ``--in``.  Each checker states its
    own tolerances, which no flag or config key sets."""

    help: str
    handler: Callable
    checks: tuple = ()
    settings: tuple = ()
    bundle_fixes: tuple = ()


@dataclass
class RunConfig:
    command: str
    dim: int = 4
    points: int = VerifyConfig.points
    seed: int = VerifyConfig.seed
    t_max: float = VerifyConfig.t_max
    t_steps: int = VerifyConfig.t_steps
    input: str | None = None
    output: str | None = None
    format: str = "report"

    def validate(self) -> None:
        """Check the command and format, then the shared settings through
        :meth:`VerifyConfig.validate`, with the caps of its checks."""
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.format not in ("report", "csv"):
            raise ConfigError(f"format must be 'report' or 'csv', got {self.format!r}")
        self.verify_config().validate(COMMANDS[self.command].checks)

    def verify_config(self, bundle: FieldBundle | None = None) -> VerifyConfig:
        return VerifyConfig(seed=self.seed, dims=(self.dim,), fd_dims=(self.dim,),
                            points=self.points, t_max=self.t_max,
                            t_steps=self.t_steps, bundle=bundle)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with the flags of the settings it reads; an
    unread or abbreviated flag is an error."""
    parser = argparse.ArgumentParser(
        prog="acsgeom",
        description="numerical geometry of the space of almost complex structures")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for key in command.settings:
            flag, kind, text = SETTINGS[key]
            cmd.add_argument(flag, dest=key, type=kind, help=text,
                             metavar="FILE" if key == "input" else None)
        cmd.add_argument("--out", dest="output", metavar="FILE",
                         help=f"output file; relative paths resolve against ${OUT_DIR_ENV} "
                              "when set (default: stdout)")
        cmd.add_argument("--format", choices=("report", "csv"),
                         help="output format (default report)")
        cmd.add_argument("--config", metavar="FILE", help="JSON config merged below flags")
    return parser


def _read_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    for key in ("input", "output"):
        if key in data and not isinstance(data[key], str):
            raise ConfigError(f"config key {key!r} must be a path string, got {data[key]!r}")
    read = (*COMMANDS[command].settings, "output", "format")
    for key in data:
        if key not in read:
            flag = f" ({SETTINGS[key][0]})" if key in SETTINGS else ""
            raise ConfigError(f"{command} does not read config key {key!r}{flag} in {path!r}")
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over the optional config file over defaults."""
    command = COMMANDS[args.command]
    filed = _read_config_file(args.config, args.command) if args.config else {}
    keys = (*command.settings, "output", "format")
    values = {key: filed[key] for key in keys if key in filed}
    values.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    fixed = [SETTINGS[k][0] for k in command.bundle_fixes if k in values and "input" in values]
    if fixed:
        raise ConfigError(f"{args.command} reads the space from --in, not {', '.join(fixed)}")
    cfg = RunConfig(args.command, **values)
    cfg.validate()
    return cfg


def _resolve_out(path: str | None) -> str | None:
    if path is None or os.path.isabs(path) or not os.environ.get(OUT_DIR_ENV):
        return path
    return os.path.join(os.environ[OUT_DIR_ENV], path)


def _write_text(cfg: RunConfig, text: str) -> None:
    path = _resolve_out(cfg.output)
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


def _records_text(records) -> str | None:
    """The text of ``records`` as a value of a top-level key in
    ``json.dumps(doc, indent=2, sort_keys=True)``, when it is a list of dicts
    with the same str keys and str, int, float, bool or None values; else
    None.  The values take one pass of the C encoder, split on the raw
    newlines it writes between them and never inside a string."""
    if not isinstance(records, list) or set(map(type, records)) != {dict}:
        return None
    keys = list(records[0])
    if not keys or {type(k) for k in keys} != {str} or set(map(len, records)) != {len(keys)}:
        return None
    keys.sort()
    try:
        values = [record[k] for record in records for k in keys]
    except KeyError:
        return None
    if not set(map(type, values)) <= {str, int, float, bool, type(None)}:
        return None
    texts = json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
    heads = [f"\n      {json.dumps(k)}: ".replace("%", "%%") for k in keys]
    record = "{" + "%s,".join(heads) + "%s\n    }"
    return "[\n    " + ",\n    ".join(map(record.__mod__, zip(*[iter(texts)] * len(keys)))) \
        + "\n  ]"


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for a dict with
    str keys, byte for byte.  ``json`` indents only in its pure-Python
    encoder, so each top-level list of flat records, such as ``project``'s
    points, is written through :func:`_records_text` instead."""
    parts = []
    for key in sorted(doc):
        text = _records_text(doc[key])
        if text is None:
            text = json.dumps(doc[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        parts.append(f"\n  {json.dumps(key)}: {text}")
    return "{" + ",".join(parts) + "\n}\n" if parts else "{}\n"


def _emit(cfg: RunConfig, header: list[str], rows, doc: dict) -> None:
    """Write ``rows`` under ``header`` as CSV (numbers to 17 significant digits,
    cells quoted where needed), or ``doc`` as the JSON report."""
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else format(float(c), ".17g") for c in row]
                         for row in rows)
        text = buf.getvalue()
    else:
        text = _json_text(doc)
    _write_text(cfg, text)


def _emit_reports(cfg: RunConfig, reports, vconf: VerifyConfig) -> int:
    doc = report_document(reports, vconf, input_path=cfg.input)
    rows = [[r.name, r.max_residual, r.tolerance, "1" if r.passed else "0"]
            for r in reports]
    _emit(cfg, ["check", "max_residual", "tolerance", "passed"], rows, doc)
    if cfg.output is not None:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name}: max_residual={r.max_residual:.3e} "
                  f"tolerance={r.tolerance:.3e}")
    return 0 if doc["passed"] else 1


def cmd_checks(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg.input) if cfg.input is not None else None
    vconf = cfg.verify_config(bundle)
    return _emit_reports(cfg, run_suite(vconf, COMMANDS[cfg.command].checks), vconf)


def _load_j_and_k(cfg: RunConfig) -> FieldBundle:
    """The ``--in`` bundle, refused unless it holds J and K."""
    bundle = load_bundle(cfg.input)
    if bundle.J is None or bundle.K is None:
        raise ConfigError(f"{cfg.command} needs an input bundle with J and K fields")
    return bundle


def cmd_geodesic(cfg: RunConfig) -> int:
    """Trace t, max|K(t)|, structure residual, geodesic-equation residual
    and the associated/orthogonal validator flags over the grid.  Exits 1
    when a traced value is not finite or J_t fails :func:`validate_acs`,
    naming the first t at fault, its worst point and how many points fail
    there; the trace is written either way."""
    if cfg.input is not None:
        bundle = _load_j_and_k(cfg)
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

    rows, not_acs = [], None
    for t in np.linspace(0.0, cfg.t_max, cfg.t_steps):
        t = float(t)
        try:
            jt = geodesic_ambient(j0f, a, t)
            acs = validate_acs(jt)
            assoc = validate_associated(jt, wf).passed
            orth = validate_orthogonal(jt, space.fiber_metric, j0f).passed
            rows.append([t, max_abs(geodesic_chart(a, t).ops), acs.max_residual,
                         geodesic_equation_residual(a, t), int(assoc), int(orth)])
        except GeometryError as exc:
            raise ConfigError(f"geodesic trace fails at t={t!r} (--t-max {cfg.t_max!r}): "
                              f"{exc}") from None
        if not_acs is None and not acs.passed:
            not_acs = (f"J_t first fails to square to -identity at t={t!r}: acs_residual "
                       f"{acs.max_residual:.3e} at point {acs.worst_point!r} exceeds "
                       f"{acs.tolerance:.0e}; {np.count_nonzero(~acs.ok)} of {acs.ok.size} "
                       f"points fail")
    header = ["t", "k_max", "acs_residual", "geodesic_residual",
              "associated", "orthogonal"]
    _emit(cfg, header, rows,
          {"command": "geodesic", "columns": header, "rows": rows,
           "seed": cfg.seed, "dim": space.dim, "points": space.npoints,
           "t_max": cfg.t_max, "t_steps": cfg.t_steps,
           "input": cfg.input})
    problems = [not_acs] if not_acs else []
    if not np.isfinite([r[:4] for r in rows]).all():
        problems.insert(0, "the geodesic trace holds a non-finite value")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_project(cfg: RunConfig) -> int:
    """Per-point norms of the metric-symmetric and antisymmetric parts of
    an input tangent field, with a class label; a part that overflows is refused."""
    if cfg.input is None:
        raise ConfigError("project requires --in with a bundle holding J and K")
    bundle = _load_j_and_k(cfg)
    space, k = bundle.space, bundle.K
    p, l, classes = split_and_classify(k)
    norms = [slice_max_abs(part) for part in (p, l)]
    bad = np.flatnonzero(~np.isfinite(norms).all(axis=0))
    if bad.size:
        raise NonFiniteValue(f"the parts of K overflow at point {space.point_ids[bad[0]]!r}")
    header = ["id", "p_norm", "l_norm", "class"]
    rows = list(zip(map(str, space.point_ids), *(n.tolist() for n in norms), classes))
    _emit(cfg, header, rows, {"command": "project", "input": cfg.input,
                              "points": [dict(zip(header, r)) for r in rows]})
    return 0


COMMANDS = {
    "verify": Command("run the full verification suite", cmd_checks, CHECK_NAMES,
                      ("dim", "points", "seed", "t_max", "t_steps", "input")),
    "geodesic": Command("trace a geodesic and its validators", cmd_geodesic, (),
                        ("dim", "points", "seed", "t_max", "t_steps", "input"),
                        bundle_fixes=("dim", "points", "seed")),
    "curvature": Command("finite-difference curvature check", cmd_checks,
                         ("curvature_fd",), ("dim", "points", "seed")),
    "project": Command("split an input tangent field into symmetric and antisymmetric parts",
                       cmd_project, settings=("input",)),
    "signature": Command("signature of the metric at the chart origin", cmd_checks,
                         ("signature",), ("dim", "points", "seed")),
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each float flag and a following word that starts with one
    '-' joined as ``FLAG=VALUE``: argparse reads -0.5 as a value, but -1e-3
    and -inf as flags, and the value would never reach the rule that refuses it."""
    floats = {flag for flag, kind, _ in SETTINGS.values() if kind is float}
    joined = []
    for arg in argv:
        if joined and joined[-1] in floats and arg[:1] == "-" and arg[1:2] != "-":
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = build_config(args)
        return COMMANDS[cfg.command].handler(cfg)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
