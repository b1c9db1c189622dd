import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from acsgeom import cli, verify
from acsgeom.charts import standard_acs
from acsgeom.cli import RunConfig, build_config, build_parser, main
from acsgeom.errors import ConfigError, IoError
from acsgeom.fiber import FiberMetric, max_abs
from acsgeom.structures import (
    MAX_FIBER_DIM,
    FieldBundle,
    SampleSpace,
    TangentField,
    load_bundle,
    random_sample_space,
    random_tangent_field,
    save_bundle,
    standard_acs_field,
    standard_symplectic_field,
    sym_antisym_split,
)
from acsgeom.verify import CHECK_NAMES, FLAGS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_diag_bundle(path, a=0.8, points=2):
    """dim-2 bundle whose K is the diagonal direction diag(a, -a)."""
    space = SampleSpace(2, np.ones(points))
    j = standard_acs_field(space)
    k = TangentField(space, j, np.tile(np.diag([a, -a]), (points, 1, 1)))
    save_bundle(FieldBundle(space, J=j, K=k), path)
    return space


def write_part_bundle(path, part, dim=4, points=2, seed=0):
    space = SampleSpace(dim, np.ones(points))
    j = standard_acs_field(space)
    k = random_tangent_field(np.random.default_rng(seed), j, part=part)
    save_bundle(FieldBundle(space, J=j, K=k), path)


class TestConfigMerging:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_defaults(self):
        cfg = build_config(self.parse(["verify"]))
        assert (cfg.dim, cfg.points, cfg.seed) == (4, 8, 0)
        assert cfg.format == "report"

    def test_flags_win_over_file(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"dim": 2, "seed": 7}))
        cfg = build_config(self.parse(
            ["verify", "--dim", "6", "--config", str(conf)]))
        assert cfg.dim == 6        # flag beats file
        assert cfg.seed == 7       # file beats default

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"dims": [2, 4]}))
        with pytest.raises(ConfigError):
            build_config(self.parse(["verify", "--config", str(conf)]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig("verify", dim=3).validate()
        with pytest.raises(TypeError):
            RunConfig("verify", tolerances={"cayley": 1e-8})


class TestExitCodes:
    def test_odd_dim_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--dim", "3"], capsys)
        assert code == 2
        assert "even" in err
        assert "--dim" in err

    @pytest.mark.parametrize("flag, value", [
        ("--dim", "0"), ("--points", "0"), ("--seed", "-1"), ("--t-steps", "0"),
        ("--t-steps", "10000000"), ("--h", "-1"), ("--t-max", "0"),
        ("--tol-metric-structure", "nan"),
    ])
    def test_config_errors_name_the_flag(self, capsys, flag, value):
        # --h and --tol-metric-structure, which no subcommand reads, are
        # refused by name too
        command = {"--t-steps": "geodesic", "--h": "curvature", "--t-max": "geodesic",
                   "--tol-metric-structure": "verify"}.get(flag, "signature")
        code, out, err = run_cli([command, flag, value], capsys)
        assert (code, out) == (2, "")
        assert flag in err

    def test_validation_names_real_flags(self):
        parser = build_parser()
        for flag in FLAGS.values():
            parser.parse_args(["verify", flag, "2"])  # exits on an unknown flag

    def test_unknown_flag(self, capsys):
        assert main(["verify", "--frobnicate"]) == 2

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(["verify", "--in", "/nonexistent/x.json"], capsys)
        assert code == 2
        assert "error" in err

    def test_corrupted_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{{")
        code, _, err = run_cli(["verify", "--in", str(bad)], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "signature", "project"])
    @pytest.mark.parametrize("entry", [{"output": 1}, {"input": 0}, {"input": 1},
                                       {"input": True}],
                             ids=["output-1", "input-0", "input-1", "input-true"])
    def test_config_paths_must_be_strings(self, tmp_path, capsys, command, entry):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(entry))
        dim = [] if command == "project" else ["--dim", "2"]
        code, out, err = run_cli([command, *dim, "--config", str(conf)], capsys)
        (key,) = entry
        assert code == 2 and out == ""
        assert f"config key {key!r} must be a path string" in err

    @pytest.mark.parametrize("command", ["verify", "geodesic", "project"])
    def test_empty_input_path_is_read(self, tmp_path, capsys, command):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"input": ""}))
        dim = ["--dim", "2"] if command == "verify" else []
        for argv in (["--in", ""], ["--config", str(conf)]):
            code, out, err = run_cli([command, *dim, *argv], capsys)
            assert (code, out) == (2, "")
            assert "cannot read field file" in err

    @pytest.mark.parametrize("command", ["curvature", "signature"])
    def test_empty_input_path_rejected_where_unused(self, tmp_path, capsys, command):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"input": ""}))
        for argv in (["--in", ""], ["--config", str(conf)]):
            code, out, err = run_cli([command, "--dim", "2", *argv], capsys)
            assert (code, out) == (2, "")
            assert "--in" in err

    def test_failing_checker_names_itself_and_its_flags(self, capsys):
        code, out, err = run_cli(["verify", "--dim", "2", "--t-max", "300"], capsys)
        assert (code, out) == (2, "")
        assert "check geodesics fails" in err and "--t-max" in err
        assert "exceeds cap" in err  # the original reason is kept

    def test_check_failure_is_exit_1(self, tmp_path, capsys):
        # a J that misses J^2 = -identity by 0.1 fails field_acs, and only it
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "J": [0.0, -1.0, 1.1, 0.0]}]}))
        code, out, _ = run_cli(["verify", "--dim", "2", "--in", str(path),
                                "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] \
            == ["FAIL field_acs"]

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                             ids=["invalid-utf8", "nested-100000"])
    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys, text):
        conf = tmp_path / "c.json"
        conf.write_bytes(text)
        code, out, err = run_cli(["verify", "--config", str(conf)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file {str(conf)!r} is not valid JSON")

    def test_project_requires_input(self, capsys):
        code, _, err = run_cli(["project"], capsys)
        assert code == 2

    def test_step_too_small_to_move_the_grid_fails_geodesics(self, capsys, monkeypatch):
        # a collapsed stencil reads NaN (TestGeodesicCommand reaches one);
        # the report keeps the NaN and fails the check
        monkeypatch.setattr(verify, "geodesic_equation_residual", lambda a, t: math.nan)
        code, out, _ = run_cli(["verify", "--dim", "2"], capsys)
        assert code == 1
        check = next(c for c in json.loads(out)["checks"] if c["name"] == "geodesics")
        ode = next(s for s in check["details"] if s["name"] == "ode_residual_dim2")
        assert math.isnan(ode["residual"]) and ode["passed"] is False
        assert check["passed"] is False and math.isnan(check["max_residual"])

    @pytest.mark.parametrize("command, dim, points, code, err", [
        ("verify", 2, [{"id": 0, "weight": 1.0, "J": [1e200, -1e200, 1e200, 1e200],
                        "W": [0, 1e200, -1e200, 0]}], 1, ""),
        # finite, antisymmetric and nondegenerate W, but W J is inf - inf = NaN,
        # which eigvalsh refuses at dim 4: min_eig reads NaN and the run reports
        ("verify", 4, [{"id": 0, "weight": 1.0, "J": [1.5e308] * 16,
                        "W": [0, 2, 0, -2, -2, 0, 1, 0, 0, -1, 0, 3, 2, 0, -3, 0]}], 1, ""),
        ("project", 2, [{"id": 0, "weight": 1.0, "J": [0, -1, 1, 0], "K": [1e308, 0, 0, 1e308]}],
         2, "error: tangent ops fail to anticommute with the base, residual inf\n"),
        # K anticommutes exactly and loads, but K + K^sharp overflows
        ("project", 2, [{"id": 0, "weight": 1.0, "J": [0, -1, 1, 0], "K": [1e308, 0, 0, -1e308]}],
         2, "error: the parts of K overflow at point 0\n"),
    ], ids=["verify_jw", "verify_jw_nan_dim4", "project_k", "project_split"])
    def test_overflowing_bundle_prints_no_warning(self, tmp_path, command, dim, points, code, err):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": dim, "points": points}))
        proc = subprocess.run([sys.executable, "-m", "acsgeom.cli", command, "--in", str(path)],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, err)
        assert code != 2 or proc.stdout == ""
        if command == "verify":
            checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
            assert [name for name, c in checks.items() if not c["passed"]] \
                == ["field_acs", "field_associated"]
            if dim == 4:
                assert math.isnan(checks["field_associated"]["max_residual"])
                assert math.isnan(checks["field_associated"]["details"][-1]["min_eig"])

    def test_tangent_with_nan_residual_is_input_error(self, tmp_path, capsys):
        # finite J and K whose anticommutator overflows to inf - inf
        path = tmp_path / "nan_k.json"
        path.write_text(json.dumps({"dim": 4, "points": [{"id": 0, "weight": 1.0, "J": [
            2.0, -2.0, 1.0, 1.0, 1e308, 2.0, 2.0, 0.0, -1e308, -1e308, -1e308, 1e308,
            -2.0, -1e308, 0.0, 1.0], "K": [
            0.0, -1e308, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 0.0, -1e200, 1.0,
            1.0, -1e308, 1e200, 1e308]}]}))
        code, out, err = run_cli(["project", "--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: tangent ops fail to anticommute with the base, residual nan\n"

    @pytest.mark.parametrize("flag", [flag for flag, kind, _ in cli.SETTINGS.values()
                                      if kind is float])
    def test_negative_value_in_exponent_form_reaches_the_rule(self, capsys, flag):
        # argparse alone reads "-1e-3" after a flag as another flag
        for argv in ([flag, "-1e-3"], [f"{flag}=-1e-3"]):
            code, out, err = run_cli(["verify", "--dim", "2", *argv], capsys)
            assert (code, out) == (2, "")
            assert err.endswith(f"({flag}) must be a finite positive number, got -0.001\n")

    @pytest.mark.parametrize("flag", [["--t-max", "-inf"], ["--t-max", "inf"],
                                      ["--t-max", "nan"], ["--t-max", "1e309"]])
    def test_non_finite_flag_is_usage_error(self, capsys, flag):
        code, _, err = run_cli(["verify", "--dim", "2", *flag], capsys)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("command", ["curvature", "signature"])
    def test_input_rejected_where_unused(self, tmp_path, capsys, command):
        path = tmp_path / "b.json"
        write_diag_bundle(path)
        code, out, err = run_cli([command, "--dim", "2", "--in", str(path)], capsys)
        assert code == 2
        assert out == "" and "--in" in err

    @pytest.mark.parametrize("points", [
        [{"id": 0, "weight": 1.0, "J": ["a", -1, 1, 0]}],
        [{"id": 0, "weight": 1.0, "J": [[0, -1], [1]]}],
        [{"id": 0, "weight": 1.0, "J": [0, -1, 1, float("nan")], "K": [0, 0, 0, 0]}],
        [{"id": 0, "weight": "heavy", "J": [0, -1, 1, 0], "K": [0, 0, 0, 0]}],
    ], ids=["string_cell", "ragged_matrix", "nan_entry", "string_weight"])
    def test_malformed_bundle_is_input_error(self, tmp_path, capsys, points):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "points": points}))
        with pytest.raises(IoError):
            load_bundle(path)
        code, out, err = run_cli(["project", "--in", str(path)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error:")


    @pytest.mark.parametrize("command", ["verify", "geodesic", "curvature", "signature"])
    def test_dim_above_cap_is_usage_error(self, capsys, command):
        code, out, err = run_cli([command, "--dim", "100000"], capsys)
        assert code == 2
        assert out == "" and str(MAX_FIBER_DIM) in err

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--t-steps", "1000000000000000"],
        ["signature", "--points", "1000000000000000"],
        ["curvature", "--points", "1000000000000000"],
        ["verify", "--dim", "64", "--points", "1025"],
        ["signature", "--dim", "16", "--points", "1000"],
    ])
    def test_size_above_cap_is_usage_error_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run_cli(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == "" and "at most" in err
        assert peak < 10**6

    # the Gram stack of signature grows as points * dim**6 and only
    # signature builds it, so only the commands that run signature refuse it
    @pytest.mark.parametrize("command", ["geodesic", "curvature"])
    def test_gram_cap_spares_commands_without_signature(self, capsys, command):
        code, out, err = run_cli([command, "--dim", "18"], capsys)
        assert code == 0, err
        assert out and err == ""

    @pytest.mark.parametrize("argv", [
        ["signature", "--dim", "16", "--points", "1000"],
        ["verify", "--dim", "18"],
    ])
    def test_gram_cap_refuses_before_any_check_runs(self, capsys, monkeypatch, argv):
        def ran(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in CHECK_NAMES:
            monkeypatch.setattr(verify, f"check_{name}", ran)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and "(dim**2 / 2)**2" in err

    def test_bundle_dim_above_cap_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 100000, "points": [{"id": 0, "weight": 1}]}))
        code, out, err = run_cli(["project", "--in", str(path)], capsys)
        assert code == 2
        assert out == "" and f"above the cap {MAX_FIBER_DIM}" in err


# The flags each subcommand reads besides --out, --format and --config, and
# the config key of each.
READS = {
    "verify": ["--dim", "--points", "--seed", "--t-max", "--t-steps", "--in"],
    "geodesic": ["--dim", "--points", "--seed", "--t-max", "--t-steps", "--in"],
    "curvature": ["--dim", "--points", "--seed"],
    "project": ["--in"],
    "signature": ["--dim", "--points", "--seed"],
}
# Flags of settings that are now constants of the method: --h set the
# finite-difference step and --tol-<check> a check's primary tolerance (config
# key "tolerances").  Every subcommand refuses the flag and the config key like
# any it does not read.
REMOVED = ["--h", *(f"--tol-{name.replace('_', '-')}" for name in CHECK_NAMES)]
CONFIG = {"--dim": ("dim", 2), "--points": ("points", 1), "--seed": ("seed", 1),
          "--t-max": ("t_max", 1.0), "--t-steps": ("t_steps", 2), "--in": ("input", "b.json"),
          "--h": ("h", 0.001),
          **{flag: ("tolerances", {name: 1.0}) for flag, name in zip(REMOVED[1:], CHECK_NAMES)}}
UNREAD = [(command, flag) for command in READS for flag in [*READS["verify"], *REMOVED]
          if flag not in READS[command]]


def config_entry(flag):
    """The config entry of ``flag`` and the name a refusal of it must show."""
    key, value = CONFIG[flag]
    return {key: value}, repr(key)


class TestCommandTable:
    def test_counts(self):
        assert sum(len(flags) + 3 for flags in READS.values()) == 34
        assert len(UNREAD) == 56
        keys = {command: {"output", "format", *(CONFIG[f][0] for f in flags)}
                for command, flags in READS.items()}
        assert sum(map(len, keys.values())) == 29

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_or_key_is_usage_error(self, tmp_path, capsys, command, flag):
        code, out, err = run_cli([command, flag, "1"], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err
        entry, name = config_entry(flag)
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(entry))
        code, out, err = run_cli([command, "--config", str(conf)], capsys)
        assert (code, out) == (2, "")
        assert name in err

    @pytest.mark.parametrize("command", sorted(READS))
    def test_read_keys_are_accepted(self, tmp_path, command):
        conf = tmp_path / "c.json"
        for flag in READS[command]:
            conf.write_text(json.dumps(config_entry(flag)[0]))
            build_config(build_parser().parse_args([command, "--config", str(conf)]))
        conf.write_text(json.dumps({"output": "o.json", "format": "csv"}))
        cfg = build_config(build_parser().parse_args([command, "--config", str(conf)]))
        assert (cfg.output, cfg.format) == ("o.json", "csv")

    def test_abbreviated_flag_is_usage_error(self, capsys):
        # without allow_abbrev=False, argparse reads `--h` as `--help` and exits 0
        assert run_cli(["signature", "--h", "1"], capsys)[:2] == (2, "")
        code, out, err = run_cli(["verify", "--poi", "3"], capsys)
        assert (code, out) == (2, "") and "--poi" in err

    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_the_flags_read(self, capsys, command):
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", out, re.M)
        assert sorted(listed) == sorted(["--help", *READS[command], "--out", "--format",
                                         "--config"])

    @pytest.mark.parametrize("command", ["verify", "curvature", "signature"])
    def test_settings_are_what_the_checkers_take(self, command):
        spec = cli.COMMANDS[command]
        taken = {FLAGS[key] for name in spec.checks
                 for key in inspect.signature(getattr(verify, f"check_{name}")).parameters
                 if key in FLAGS}
        assert {cli.SETTINGS[key][0] for key in spec.settings} \
            == taken | ({"--in"} if command == "verify" else set())

    @pytest.mark.parametrize("given", [["--dim", "4"], ["--points", "3"], ["--seed", "9"],
                                       ["--seed", "9", "--dim", "6"]])
    def test_geodesic_input_refuses_what_the_bundle_fixes(self, tmp_path, capsys, given):
        bundle = os.path.join(GOLDEN, "project_bundle.json")
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({CONFIG[f][0]: int(v) for f, v in zip(given[::2], given[1::2])}))
        for argv in (["--in", bundle, *given], ["--in", bundle, "--config", str(conf)]):
            code, out, err = run_cli(["geodesic", *argv], capsys)
            assert (code, out) == (2, "")
            assert "reads the space from --in" in err
            assert all(flag in err for flag in given[::2])


class TestVerifyCommand:
    def test_report_to_stdout(self, capsys):
        code, out, _ = run_cli(["verify", "--dim", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["config"]["dims"] == [2]
        assert {c["name"] for c in doc["checks"]} >= {"cayley", "signature"}

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["verify", "--dim", "2", "--out"]
        assert main(args + [str(tmp_path / "r1.json")]) == 0
        assert main(args + [str(tmp_path / "r2.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["verify", "--dim", "2", "--format", "csv"],
                               capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,max_residual,tolerance,passed"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ACSGEOM_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            ["verify", "--dim", "2", "--out", "sub/report.json"], capsys)
        assert code == 0
        assert (tmp_path / "sub" / "report.json").exists()

    def test_summary_lines_when_writing_file(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["verify", "--dim", "2", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0
        assert out.count("PASS") == 8

    def test_bundle_validated(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        write_diag_bundle(path)
        code, out, _ = run_cli(["verify", "--dim", "2", "--in", str(path)],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert "field_acs" in {c["name"] for c in doc["checks"]}

    # a valid input fails a correct identity: metric_compat_fd_dim2 reads
    # 1.007e-6, 1.107e-6 and 1.217e-6 at these seeds against its 1e-6
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: metric_compat_fd stencil")
    @pytest.mark.parametrize("seed", [8, 23, 34])
    def test_dim2_seeds_pass(self, seed, capsys):
        assert run_cli(["verify", "--dim", "2", "--seed", str(seed)], capsys)[0] == 0

    # the same stencil at more points: its sum over points is not
    # normalised, so its truncation error grows with the count.
    # metric_compat_fd_dim4 reads 1.465e-6 and metric_compat_fd_dim2 2.83e-6
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: metric_compat_fd stencil")
    @pytest.mark.parametrize("argv", [["--points", "1000"], ["--dim", "2", "--points", "512"]],
                             ids=["points-1000", "dim-2-points-512"])
    def test_large_sample_spaces_pass(self, argv, capsys):
        assert run_cli(["verify", *argv], capsys)[0] == 0


class TestGeodesicCommand:
    def test_initial_row_is_exactly_zero(self, capsys):
        code, out, _ = run_cli(
            ["geodesic", "--dim", "2", "--t-steps", "3", "--format", "csv"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == ["t", "k_max", "acs_residual",
                                       "geodesic_residual", "associated",
                                       "orthogonal"]
        first = lines[1].split(",")
        assert first[:4] == ["0", "0", "0", "0"]
        assert first[4] == "1" and first[5] == "1"

    def test_diagonal_input_matches_scalar_tanh(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        write_diag_bundle(path, a=0.8)
        code, out, _ = run_cli(
            ["geodesic", "--in", str(path), "--t-max", "2.0",
             "--t-steps", "5", "--format", "csv"], capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            t, k_max = float(cells[0]), float(cells[1])
            assert abs(k_max - math.tanh(0.4 * t)) < 1e-14
            assert float(cells[3]) < 1e-6      # geodesic residual
            assert cells[4] == "1"             # symmetric direction: associated

    def test_17_digit_cells(self, capsys):
        _, out, _ = run_cli(
            ["geodesic", "--dim", "2", "--t-steps", "2", "--format", "csv"],
            capsys)
        row = out.strip().splitlines()[-1].split(",")
        for cell in row[:4]:
            assert cell == format(float(cell), ".17g")

    def test_report_format(self, capsys):
        code, out, _ = run_cli(["geodesic", "--dim", "2", "--t-steps", "2"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "geodesic"
        assert len(doc["rows"]) == 2

    def test_non_finite_trace_exits_1(self, capsys, monkeypatch):
        # a time so large that the step rounds away reads a NaN residual too
        # (test_step_too_small_to_move_the_grid_exits_1); here the
        # residual is replaced by NaN at every time
        monkeypatch.setattr(cli, "geodesic_equation_residual", lambda a, t: math.nan)
        code, out, err = run_cli(["geodesic", "--dim", "2", "--t-steps", "2",
                                  "--format", "csv"], capsys)
        assert code == 1
        assert len(out.strip().splitlines()) == 3  # the trace is still written
        assert "nan" in out and "non-finite" in err

    @pytest.mark.parametrize("flags", [["--t-max", "1e13", "--t-steps", "2"],
                                       ["--t-max", "2e13", "--t-steps", "3"]])
    def test_step_too_small_to_move_the_grid_exits_1(self, tmp_path, capsys, flags):
        # from t = 1e13 on, t + 1e-4 == t: the stencil collapses and reads NaN,
        # not 0; K = 0 keeps every other value of the trace exact
        path = tmp_path / "still.json"
        path.write_text(json.dumps({"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "J": [0, -1, 1, 0], "K": [0, 0, 0, 0]}]}))
        code, out, err = run_cli(["geodesic", "--in", str(path), *flags, "--format", "csv"],
                                 capsys)
        assert code == 1
        assert err == "error: the geodesic trace holds a non-finite value\n"
        rows = out.splitlines()[1:]
        assert rows[:2] == ["0,0,0,0,1,1", "10000000000000,0,0,nan,1,1"]
        assert all(row.endswith(",0,0,nan,1,1") for row in rows[1:])

    def test_structure_defect_exits_1_and_names_the_first_t(self, capsys):
        code, out, err = run_cli(["geodesic", "--dim", "2", "--t-max", "30",
                                  "--t-steps", "31"], capsys)
        assert code == 1
        doc = json.loads(out)  # the trace is still written, in the same document
        assert len(doc["rows"]) == 31 and doc["rows"][-1][2] > 1e6
        first = next(row for row in doc["rows"] if row[2] > 1e-10)
        assert all(row[2] <= 1e-10 for row in doc["rows"] if row[0] < first[0])
        assert err == (f"error: J_t first fails to square to -identity at t={first[0]!r}: "
                       f"acs_residual {first[2]:.3e} at point 6 exceeds 1e-10; "
                       f"2 of 8 points fail\n")

    def test_long_trace_at_dim4_names_the_first_t_at_fault(self, capsys):
        # dim 4, 8 points, seed 0: J(t) is a structure to working precision,
        # but ||J(t)|| grows to about 2e4 at t = 11.25, where J^2 + 1 rounds
        # above 1e-10; the residual's digits sit at that rounding floor and
        # move with the kernels' bits, so only its form is pinned; point 5
        # is the worst of the 3 points past 1e-10 there
        code, out, err = run_cli(["geodesic", "--t-max", "30"], capsys)
        assert code == 1
        doc = json.loads(out)  # the trace is still written, in the same document
        assert (doc["dim"], doc["points"], doc["seed"]) == (4, 8, 0)
        assert [row[0] for row in doc["rows"]] == np.linspace(0.0, 30.0, 9).tolist()
        first = next(row for row in doc["rows"] if row[2] > 1e-10)
        assert first[0] == 11.25 and first[2] < 1e-6
        assert re.fullmatch(r"error: J_t first fails to square to -identity at t=11\.25: "
                            r"acs_residual \d\.\d{3}e-0\d at point 5 exceeds 1e-10; "
                            r"3 of 8 points fail\n", err)
        assert err.split("acs_residual ")[1].startswith(f"{first[2]:.3e} ")

    def test_default_flags_exit_0(self, capsys):
        code, out, err = run_cli(["geodesic"], capsys)
        assert (code, err) == (0, "")
        assert max(row[2] for row in json.loads(out)["rows"]) <= 1e-10

    def test_input_without_k(self, tmp_path, capsys):
        space = SampleSpace(2, np.ones(2))
        path = tmp_path / "j_only.json"
        save_bundle(FieldBundle(space, J=standard_acs_field(space)), path)
        code, _, err = run_cli(["geodesic", "--in", str(path)], capsys)
        assert code == 2

    def test_input_j_not_acs_is_input_error(self, tmp_path, capsys):
        # K = 0 is a valid tangent at any J, but this J does not square to -1
        path = tmp_path / "bad_j.json"
        path.write_text(json.dumps({"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "J": [0.5, -1, 1, 0], "K": [0, 0, 0, 0]}]}))
        code, out, err = run_cli(["geodesic", "--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "J at point 0" in err and "residual 5.000e-01" in err
        assert run_cli(["project", "--in", str(path)], capsys)[0] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [["--t-max", "1e300"], ["--t-max", "1e10"],
                                       ["--t-max", "1e5", "--dim", "2"]])
    def test_overflow_names_the_flags(self, capsys, flags):
        code, out, err = run_cli(["geodesic", *flags], capsys)
        assert (code, out) == (2, "")
        assert "t=" in err and "--t-max" in err
        assert "entries must be finite" in err  # the original reason is kept


class TestProjectCommand:
    def test_symmetric_input(self, tmp_path, capsys):
        path = tmp_path / "sym.json"
        write_part_bundle(path, "symmetric")
        code, out, _ = run_cli(["project", "--in", str(path), "--format", "csv"],
                               capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[2]) == 0.0
            assert cells[3] == "symmetric"

    def test_antisymmetric_input(self, tmp_path, capsys):
        path = tmp_path / "skew.json"
        write_part_bundle(path, "antisymmetric")
        code, out, _ = run_cli(["project", "--in", str(path), "--format", "csv"],
                               capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[1]) < 1e-15
            assert cells[3] == "antisymmetric"

    def test_dim2_antisymmetric_part_is_zero(self, tmp_path, capsys):
        path = tmp_path / "d2.json"
        write_diag_bundle(path)
        code, out, _ = run_cli(["project", "--in", str(path), "--format", "csv"],
                               capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_mixed_input(self, tmp_path, capsys):
        space = SampleSpace(4, np.ones(2))
        j = standard_acs_field(space)
        sym = random_tangent_field(np.random.default_rng(0), j, part="symmetric")
        skew = random_tangent_field(np.random.default_rng(1), j,
                                    part="antisymmetric")
        k = TangentField(space, j, sym.ops + skew.ops)
        path = tmp_path / "mixed.json"
        save_bundle(FieldBundle(space, J=j, K=k), path)
        code, out, _ = run_cli(["project", "--in", str(path), "--format", "csv"],
                               capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[1]) > 0.0 and float(cells[2]) > 0.0
            assert cells[3] == "mixed"

    def test_structure_not_skew_for_the_metric(self, capsys):
        # this bundle's J is not skew-adjoint for its metrics, so its parts
        # do not anticommute with J; project reports them all the same
        path = os.path.join(GOLDEN, "assoc_bundle.json")
        code, out, err = run_cli(["project", "--in", path], capsys)
        assert code == 0 and err == ""
        bundle = load_bundle(path)
        j, k = bundle.J.ops, bundle.K.ops
        p, l = sym_antisym_split(bundle.K)
        assert max_abs(p @ j + j @ p) > 1e-3
        assert max_abs(p + l - k) <= 2 * np.spacing(max_abs(k))
        doc = json.loads(out)
        assert [pt["p_norm"] for pt in doc["points"]] == np.max(np.abs(p), axis=(1, 2)).tolist()
        assert [pt["l_norm"] for pt in doc["points"]] == np.max(np.abs(l), axis=(1, 2)).tolist()

    def test_csv_quotes_ids(self, tmp_path, capsys):
        ids = ["a,b", [1, 2], 'q"x']
        space = SampleSpace(2, np.ones(3), point_ids=ids)
        j = standard_acs_field(space)
        path = tmp_path / "ids.json"
        save_bundle(FieldBundle(space, J=j, K=TangentField(space, j, np.zeros((3, 2, 2)))),
                    path)
        code, out, _ = run_cli(["project", "--in", str(path), "--format", "csv"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows[0] == ["id", "p_norm", "l_norm", "class"]
        assert [len(row) for row in rows] == [4, 4, 4, 4]
        assert [row[0] for row in rows[1:]] == [str(i) for i in ids]

    def test_report_format(self, tmp_path, capsys):
        path = tmp_path / "sym.json"
        write_part_bundle(path, "symmetric")
        code, out, _ = run_cli(["project", "--in", str(path)], capsys)
        doc = json.loads(out)
        assert code == 0
        assert all(p["class"] == "symmetric" for p in doc["points"])


@pytest.mark.parametrize("command", ["project", "geodesic"])
def test_bundle_metric_is_validated_once(monkeypatch, capsys, command):
    # the loaded space's metric is the one FiberMetric; the split and the
    # orthogonality validator read it and build no other
    built, original = [], FiberMetric.__post_init__
    monkeypatch.setattr(FiberMetric, "__post_init__",
                        lambda self: built.append(self) or original(self))
    code, _, _ = run_cli([command, "--in", os.path.join(GOLDEN, "assoc_bundle.json")], capsys)
    assert code == 0
    assert len(built) == 1 and built[0].matrix.ndim == 3


@pytest.mark.parametrize("command", ["project", "verify", "geodesic"])
def test_identity_bundle_holds_one_identity_metric(monkeypatch, capsys, tmp_path, command):
    # a bundle saved without custom metrics loads as a space holding the
    # one n x n identity, never inverted: its adjoints are transposes
    rng = np.random.default_rng(4)
    space = random_sample_space(rng, 4, 6)
    j = standard_acs_field(space)
    path = tmp_path / "identity.json"
    save_bundle(FieldBundle(space, j, standard_symplectic_field(space),
                            random_tangent_field(rng, j)), path)
    built, original = [], FiberMetric.__post_init__
    monkeypatch.setattr(FiberMetric, "__post_init__",
                        lambda self: built.append(self) or original(self))
    code, _, _ = run_cli([command, "--in", str(path)], capsys)
    assert code == 0
    # the loaded space's metric comes first; verify's suite builds its own spaces
    assert len(built) == 1 or command == "verify"
    assert built[0].matrix.shape == (4, 4) and built[0].is_identity
    assert "inverse" not in vars(built[0])
    # the tiled metrics are kept, so a save writes the same bytes
    again = tmp_path / "again.json"
    save_bundle(load_bundle(path), again)
    assert again.read_bytes() == path.read_bytes()


class TestSingleCheckCommands:
    def test_curvature(self, capsys):
        code, out, _ = run_cli(["curvature", "--dim", "2", "--format", "csv"],
                               capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("curvature_fd,")

    def test_signature(self, capsys):
        code, out, _ = run_cli(["signature", "--dim", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"][0]["name"] == "signature"
        assert doc["passed"] is True


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "acsgeom.cli", "signature", "--dim", "2",
         "--format", "csv"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("check,")
