import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from acsgeom import cli, verify
from acsgeom.charts import standard_acs
from acsgeom.cli import RunConfig, build_config, build_parser, main
from acsgeom.errors import ConfigError, IoError
from acsgeom.fiber import max_abs
from acsgeom.structures import (
    MAX_FIBER_DIM,
    FieldBundle,
    MetricField,
    SampleSpace,
    TangentField,
    load_bundle,
    random_tangent_field,
    save_bundle,
    standard_acs_field,
    sym_antisym_split,
)
from acsgeom.verify import CHECK_NAMES, FLAGS, tolerance_flag

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

    def test_file_tolerances_merge(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"tolerances": {"cayley": 1e-7,
                                                   "theorem1": 1e-7}}))
        cfg = build_config(self.parse(
            ["verify", "--config", str(conf), "--tol-cayley", "1e-5"]))
        assert cfg.tolerances == {"cayley": 1e-5, "theorem1": 1e-7}

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"dims": [2, 4]}))
        with pytest.raises(ConfigError):
            build_config(self.parse(["verify", "--config", str(conf)]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig("verify", dim=3).validate()
        with pytest.raises(ConfigError):
            RunConfig("verify", h=-1.0).validate()
        with pytest.raises(ConfigError):
            RunConfig("verify", tolerances={"bogus": 1.0}).validate()


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
        code, out, err = run_cli(["signature", flag, value], capsys)
        assert (code, out) == (2, "")
        assert flag in err

    def test_validation_names_real_flags(self):
        parser = build_parser()
        for flag in {*FLAGS.values(), *map(tolerance_flag, CHECK_NAMES)}:
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
        code, out, err = run_cli([command, "--dim", "2", "--config", str(conf)], capsys)
        (key,) = entry
        assert code == 2 and out == ""
        assert f"config key {key!r} must be a path string" in err

    @pytest.mark.parametrize("command", ["verify", "geodesic", "project"])
    def test_empty_input_path_is_read(self, tmp_path, capsys, command):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"input": ""}))
        for argv in (["--in", ""], ["--config", str(conf)]):
            code, out, err = run_cli([command, "--dim", "2", *argv], capsys)
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

    def test_check_failure_is_exit_1(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--dim", "2", "--tol-cayley", "1e-30"], capsys)
        assert code == 1

    def test_project_requires_input(self, capsys):
        code, _, err = run_cli(["project"], capsys)
        assert code == 2

    def test_step_too_small_to_move_the_grid_fails_geodesics(self, capsys):
        # 0.2 + 1e-20 == 0.2: the stencil would collapse to a residual of 0
        code, out, _ = run_cli(["verify", "--dim", "2", "--h", "1e-20"], capsys)
        assert code == 1
        check = next(c for c in json.loads(out)["checks"] if c["name"] == "geodesics")
        ode = next(s for s in check["details"] if s["name"] == "ode_residual_dim2")
        assert math.isnan(ode["residual"]) and ode["passed"] is False
        assert check["passed"] is False and math.isnan(check["max_residual"])

    @pytest.mark.parametrize("dim, h, residual", [("2", "1e-9", 638.3), ("4", "1e-8", 7.215)])
    def test_step_swamped_by_rounding_fails_geodesics(self, capsys, dim, h, residual):
        # rounding of order eps/h swamps the difference quotient: the check
        # fails on a large residual, and the step is not an input error
        code, out, err = run_cli(["verify", "--dim", dim, "--h", h], capsys)
        assert (code, err) == (1, "")
        check = next(c for c in json.loads(out)["checks"] if c["name"] == "geodesics")
        assert check["passed"] is False and check["tolerance"] == 1e-6
        assert check["max_residual"] == pytest.approx(residual, rel=1e-3)

    @pytest.mark.parametrize("command, points, code, err", [
        ("verify", [{"id": 0, "weight": 1.0, "J": [1e200, -1e200, 1e200, 1e200],
                     "W": [0, 1e200, -1e200, 0]}], 1, ""),
        ("project", [{"id": 0, "weight": 1.0, "J": [0, -1, 1, 0], "K": [1e308, 0, 0, 1e308]}],
         2, "error: tangent ops fail to anticommute with the base, residual inf\n"),
    ], ids=["verify_jw", "project_k"])
    def test_overflowing_bundle_prints_no_warning(self, tmp_path, command, points, code, err):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "points": points}))
        proc = subprocess.run([sys.executable, "-m", "acsgeom.cli", command, "--in", str(path)],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, err)
        if command == "verify":
            failed = [c["name"] for c in json.loads(proc.stdout)["checks"] if not c["passed"]]
            assert failed == ["field_acs", "field_associated"]

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

    @pytest.mark.parametrize("flag", [["--h", "inf"], ["--t-max", "inf"],
                                      ["--tol-cayley", "inf"], ["--tol-signature", "nan"]])
    def test_non_finite_flag_is_usage_error(self, capsys, flag):
        code, _, err = run_cli(["verify", "--dim", "2", *flag], capsys)
        assert code == 2
        assert "finite" in err

    # numpy's RuntimeWarning of a squared step that underflows fails the test
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["verify", "geodesic"])
    def test_step_whose_square_underflows_is_usage_error(self, capsys, command):
        code, out, err = run_cli([command, "--dim", "2", "--h", "1e-300"], capsys)
        assert (code, out) == (2, "")
        assert "--h" in err and "RuntimeWarning" not in err

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
        # `geodesic --dim 4 --h 1e-17` reads a NaN residual too, since its
        # step rounds away (test_step_too_small_to_move_the_grid_exits_1);
        # here the residual is replaced by NaN at the default step
        monkeypatch.setattr(cli, "geodesic_equation_residual", lambda a, t, h: math.nan)
        code, out, err = run_cli(["geodesic", "--dim", "2", "--t-steps", "2",
                                  "--format", "csv"], capsys)
        assert code == 1
        assert len(out.strip().splitlines()) == 3  # the trace is still written
        assert "nan" in out and "non-finite" in err

    @pytest.mark.parametrize("flags", [["--dim", "4", "--h", "1e-17"],
                                       ["--dim", "2", "--h", "1e-150"]])
    def test_step_too_small_to_move_the_grid_exits_1(self, capsys, flags):
        code, out, err = run_cli(["geodesic", *flags], capsys)
        assert code == 1
        assert err == "error: the geodesic trace holds a non-finite value\n"
        rows = json.loads(out)["rows"]
        assert rows[0][3] == 0.0  # t = 0: t + h moves, and the residual is 0 by oddness
        assert all(math.isnan(row[3]) for row in rows[1:])

    def test_step_swamped_by_rounding_gives_finite_residuals(self, capsys):
        code, out, err = run_cli(["geodesic", "--h", "1e-9"], capsys)
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert all(math.isfinite(row[3]) for row in rows)
        assert max(row[3] for row in rows) > 1e-6  # rounding swamps the stencil

    def test_structure_defect_exits_1_and_names_the_first_t(self, capsys):
        code, out, err = run_cli(["geodesic", "--dim", "2", "--t-max", "30",
                                  "--t-steps", "31"], capsys)
        assert code == 1
        doc = json.loads(out)  # the trace is still written, in the same document
        assert len(doc["rows"]) == 31 and doc["rows"][-1][2] > 1e6
        first = next(row for row in doc["rows"] if row[2] > 1e-10)
        assert all(row[2] <= 1e-10 for row in doc["rows"] if row[0] < first[0])
        assert err == (f"error: J_t first fails to square to -identity at t={first[0]!r}: "
                       f"acs_residual {first[2]:.3e} exceeds 1e-10\n")

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
    @pytest.mark.parametrize("flags", [["--t-max", "1e300"], ["--h", "1e300"],
                                       ["--h", "1e10"]])
    def test_overflow_names_the_flags(self, capsys, flags):
        code, out, err = run_cli(["geodesic", *flags], capsys)
        assert (code, out) == (2, "")
        assert "t=" in err and "--t-max" in err and "--h" in err
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
        p, l = sym_antisym_split(bundle.K, MetricField(bundle.space, bundle.space.metrics))
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
