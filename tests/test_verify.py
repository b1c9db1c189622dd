import functools
import inspect
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from acsgeom import charts, cli, fiber, geometry, verify
from acsgeom.errors import ConfigError
from acsgeom.geometry import chart_inner, chart_origin
from acsgeom.structures import (
    MAX_FIBER_DIM,
    AcsField,
    FieldBundle,
    SampleSpace,
    random_sample_space,
    random_tangent_field,
    standard_acs_field,
    standard_symplectic_field,
)
from acsgeom.verify import (
    CASES,
    CHECK_NAMES,
    FD_CASES,
    MAX_STACK_ENTRIES,
    MAX_T_STEPS,
    VerifyConfig,
    check_cayley,
    check_curvature_fd,
    check_geodesics,
    check_metric_structure,
    check_signature,
    check_theorem1,
    check_theorem2,
    check_totally_geodesic,
    fd_directional,
    report_document,
    run_check,
    run_suite,
)

FAST = dict(dims=(2, 4))


def small_suite_config(**over):
    base = dict(dims=(2,), fd_dims=(2,), points=3)
    base.update(over)
    return VerifyConfig(**base)


def assert_report_invariant(report):
    """passed is the conjunction of sub-checks and matches the headline."""
    sub_ok = all(s["passed"] for s in report.details if "residual" in s)
    assert report.passed == sub_ok
    if report.tolerance > 0.0:
        assert report.passed == (report.max_residual <= report.tolerance)
    for sub in report.details:
        if "residual" in sub:
            assert sub["tolerance"] >= 0.0
            assert sub["residual"] >= 0.0


class TestFdDirectional:
    def test_zero_direction(self):
        space = SampleSpace(2, np.ones(2))
        j = standard_acs_field(space)
        c = chart_origin(j)
        zero = random_tangent_field(np.random.default_rng(0), j, bound=0.0)
        assert np.all(zero.ops == 0.0)
        a = random_tangent_field(np.random.default_rng(1), j)
        got = fd_directional(lambda cc: chart_inner(cc, a, a), c, zero, 1e-4)
        assert got == 0.0

    def test_linear_functional_exact(self):
        space = SampleSpace(2, np.ones(2))
        j = standard_acs_field(space)
        c = chart_origin(j)
        a = random_tangent_field(np.random.default_rng(2), j)
        m = np.arange(8.0).reshape(2, 2, 2)

        def f(cc):
            return float(np.sum(cc.K.ops * m))

        expected = float(np.sum(a.ops * m))
        assert abs(fd_directional(f, c, a, 1e-4) - expected) < 1e-10

    def test_rejects_bad_step(self):
        space = SampleSpace(2, np.ones(1))
        j = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(3), j)
        with pytest.raises(ValueError):
            fd_directional(lambda cc: 0.0, chart_origin(j), a, 0.0)


class TestCheckers:
    def test_cayley(self):
        r = check_cayley(**FAST)
        assert r.passed
        assert r.name == "cayley"
        assert_report_invariant(r)
        names = {s["name"] for s in r.details}
        assert "roundtrip_dim2" in names and "acs_identity_dim4" in names

    def test_theorem1(self):
        r = check_theorem1(**FAST)
        assert r.passed
        assert_report_invariant(r)

    def test_theorem2(self):
        r = check_theorem2(dims=(2,), points=3)
        assert r.passed
        assert_report_invariant(r)
        order = [s for s in r.details if s["name"] == "fd_order_dim2"][0]
        assert 2.5 <= order["factor"] <= 6.0
        # the center terms are identically zero by symmetry of the stencil
        terms = [s for s in r.details if s["name"] == "terms_dim2"][0]
        assert terms["residual"] == 0.0

    def test_geodesics(self):
        r = check_geodesics(dims=(2,), points=3)
        assert r.passed
        assert_report_invariant(r)

    def test_curvature_fd(self):
        r = check_curvature_fd(dims=(2,), points=3)
        assert r.passed
        assert_report_invariant(r)
        anti = [s for s in r.details if s["name"] == "antisymmetry_dim2"][0]
        assert anti["residual"] == 0.0 and anti["tolerance"] == 0.0

    def test_metric_structure(self):
        r = check_metric_structure(dims=(2,), points=3)
        assert r.passed
        assert_report_invariant(r)

    def test_totally_geodesic(self):
        r = check_totally_geodesic(dims=(2, 4), points=3)
        assert r.passed
        assert_report_invariant(r)
        names = {s["name"] for s in r.details}
        assert "antisymmetric_trivial_dim2" in names
        assert "orthogonal_invariance_dim4" in names

    def test_signature(self):
        r = check_signature(dims=(2, 4), points=3)
        assert r.passed
        assert_report_invariant(r)
        by_name = {s["name"]: s for s in r.details}
        assert by_name["basis_dims_dim4"]["sym_count"] == 6
        assert by_name["basis_dims_dim4"]["antisym_count"] == 2
        assert by_name["basis_dims_dim2"]["antisym_count"] == 0
        assert by_name["symmetric_positive_dim4"]["min_eig"] > 1e-10
        assert by_name["antisymmetric_negative_dim4"]["max_eig"] < -1e-10
        full = by_name["full_indefinite_dim4"]
        assert full["min_eig"] < -1e-10 < 1e-10 < full["max_eig"]

    def test_every_checker_reports_step_and_tolerance(self):
        # the difference checkers report the tolerance of each sub-check in
        # details and of the binding one as the headline; the tolerances and
        # the step, the one method constant FD_STEP, are no params
        step = inspect.signature(verify.fd_directional).parameters["h"].default
        assert step == verify.FD_STEP == 1e-4
        for check in (check_theorem2, check_geodesics, check_curvature_fd,
                      check_metric_structure):
            r = check(dims=(2,), points=2)
            assert r.tolerance in {s["tolerance"] for s in r.details}, r.name
            assert not {"h", "tolerance"} & set(r.params), r.name
            assert not {"h", "tolerance"} & set(inspect.signature(check).parameters), r.name

    def test_deterministic(self):
        a = check_cayley(dims=(2,))
        b = check_cayley(dims=(2,))
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_draws(self):
        a = check_cayley(seed=0, dims=(4,))
        b = check_cayley(seed=1, dims=(4,))
        assert a.max_residual != b.max_residual

    def test_nan_subcheck_ranks_worst(self):
        subs = [{"name": "fine", "residual": 0.5, "tolerance": 1.0},
                {"name": "broken", "residual": math.nan, "tolerance": 1.0}]
        r = verify._compose("demo", {"seed": 0, "dims": (2,)}, subs)
        assert math.isnan(r.max_residual)
        assert r.passed is False
        assert r.passed == (r.max_residual <= r.tolerance)

    def test_nan_residual_never_passes(self, monkeypatch):
        # a stencil that collapses reads NaN at every time
        monkeypatch.setattr(verify, "geodesic_equation_residual", lambda a, t: math.nan)
        r = check_geodesics(seed=0, dims=(2,))
        assert math.isnan(r.max_residual)
        assert r.passed is False
        ode = [s for s in r.details if s["name"] == "ode_residual_dim2"]
        assert math.isnan(ode[0]["residual"]) and ode[0]["passed"] is False

    def test_theorem2_binds_a_nan_ray_value(self, monkeypatch):
        # the analytic ray value is NaN at the first case only; the fd_order
        # pick must bind that case instead of passing over it
        original = verify._omega_ray_derivative
        calls = []

        def first_case_nan(*args):
            exact = np.array(original(*args), dtype=float)
            if not calls:
                exact.flat[0] = math.nan
            calls.append(None)
            return exact

        monkeypatch.setattr(verify, "_omega_ray_derivative", first_case_nan)
        r = check_theorem2(dims=(2,))
        order = [s for s in r.details if s["name"] == "fd_order_dim2"][0]
        assert order["passed"] is False and r.passed is False
        assert not 2.5 <= order["factor"] <= 6.0

    def test_failure_is_reported_not_raised(self, monkeypatch):
        # a chart inverse off by 1e-6 relative misses the 1e-9 round trip
        original = verify.acs_to_cayley
        monkeypatch.setattr(verify, "acs_to_cayley", lambda j0, j: original(j0, j) * (1.0 + 1e-6))
        r = check_cayley(dims=(2,))
        assert not r.passed
        assert r.max_residual > r.tolerance
        assert_report_invariant(r)

    def test_a_chart_map_off_the_structures_fails_cayley_as_a_report(self, monkeypatch,
                                                                      capsys):
        # the mutant J_K + 1e-3 J0 K^3 of cayley_to_acs: the inverse map
        # builds no chart point, so the round trip reports it, and so does
        # the identity of J_K, which binds
        original = verify.cayley_to_acs
        monkeypatch.setattr(verify, "cayley_to_acs", lambda coord: original(coord) + 1e-3
                            * coord.base.ops @ np.linalg.matrix_power(coord.K.ops, 3))
        r = check_cayley()
        assert_report_invariant(r)
        assert {s["name"] for s in r.details if not s["passed"]} == {
            f"{sub}_dim{dim}" for sub in ("roundtrip", "acs_identity") for dim in (2, 4, 6)}
        assert [s["residual"] for s in r.details if s["name"] == "acs_identity_dim2"] == [
            r.max_residual]
        # verify still exits 2: theorem2 draws tangents at the J_K it recentres
        # on, which is then no structure, and the tangent check refuses them
        assert cli.main(["verify"]) == 2
        assert "check theorem2 fails" in capsys.readouterr().err


class TestCaseDraws:
    """cayley (one draw per case) and theorem1 (two) draw their tangents on a
    space of one point per case, which draws nothing itself."""

    @staticmethod
    def per_case_calls(seed, name, dim, count, bound):
        """One random_anticommuting call per draw, case by case."""
        j0 = charts.standard_acs(dim)
        draws = [[charts.random_anticommuting(rng, j0, bound=bound) for _ in range(count)]
                 for rng in (verify.derive_rng(seed, name, dim, case)
                             for case in range(CASES))]
        return (np.tile(j0, (CASES, 1, 1)), *np.stack(draws, axis=1))

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_bits_of_per_case_calls(self, dim, count, monkeypatch):
        name, check = {1: ("cayley", check_cayley), 2: ("theorem1", check_theorem1)}[count]
        drawn = []

        def recorded(*args, **kwargs):
            drawn.append(random_tangent_field(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(verify, "random_tangent_field", recorded)
        for seed in (0, 1, 2, 7):
            drawn.clear()
            assert check(seed, dims=(dim,)).passed
            looped = self.per_case_calls(seed, name, dim, count, 0.9)
            assert len(drawn) == count and drawn[0].base is drawn[-1].base
            assert np.array_equal(drawn[0].space.weights, np.ones(CASES))
            stacked = (drawn[0].base.ops, *(k.ops for k in drawn))
            assert all(np.array_equal(a, b) for a, b in zip(stacked, looped))


class TestCaseSpace:
    """The cases of a finite-difference checker, stacked on the point axis,
    hold the bits of a per-case loop over their own generators."""

    @pytest.mark.parametrize("part", [None, "symmetric", "antisymmetric"])
    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_bits_of_per_case_draws(self, dim, points, part):
        cases = 3
        for seed in (0, 1, 7):
            rng, space, j0f = verify._case_space(seed, "theorem2", dim, cases, points)
            stacked = [random_tangent_field(rng, j0f, part=part) for _ in range(3)]
            weights, looped = [], []
            for case in range(cases):
                case_rng = verify.derive_rng(seed, "theorem2", dim, case)
                case_space = random_sample_space(case_rng, dim, points)
                case_j0f = standard_acs_field(case_space)
                weights.append(case_space.weights)
                looped.append([random_tangent_field(case_rng, case_j0f, part=part).ops
                               for _ in range(3)])
            assert space.npoints == cases * points
            assert np.array_equal(space.weights, np.concatenate(weights))
            for i, field in enumerate(stacked):
                assert np.array_equal(field.ops, np.concatenate([ops[i] for ops in looped]))


class TestVerifyConfig:
    def test_defaults_valid(self):
        VerifyConfig().validate()
        # the largest dims the caps admit: signature's Gram stack holds fd_dims to 16
        VerifyConfig(dims=(MAX_FIBER_DIM,), fd_dims=(16,), points=1).validate()

    @pytest.mark.parametrize("bad", [
        dict(seed=-1),
        dict(dims=()),
        dict(dims=(3,)),
        dict(fd_dims=(0,)),
        dict(points=0),
        dict(t_max=-1.0),
        dict(seed=True),
        dict(t_steps=2.0),
        dict(t_max=math.nan),
        dict(t_max=math.inf),
        dict(t_max="1"),
        dict(points=True),
        dict(dims=(MAX_FIBER_DIM + 2,)),
        dict(fd_dims=(2, 10**30)),
        dict(t_steps=0),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            VerifyConfig(**bad).validate()

    @pytest.mark.parametrize("bad", [
        dict(points=10**15),
        dict(points=MAX_STACK_ENTRIES // 36 + 1, dims=(6,)),
        dict(points=MAX_STACK_ENTRIES // MAX_FIBER_DIM**2 + 1, fd_dims=(2, MAX_FIBER_DIM)),
        dict(t_steps=MAX_T_STEPS + 1),
        dict(t_steps=10**30),
        dict(points=MAX_STACK_ENTRIES // (8**2 * 4**2) + 1, fd_dims=(4,)),
        dict(points=1000, fd_dims=(16,)),
        dict(points=8, fd_dims=(12,)),
        dict(points=1, fd_dims=(18,)),
    ])
    def test_size_caps_refuse_before_allocating(self, bad):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="at most"):
                VerifyConfig(**bad).validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_size_caps_admit_their_bounds(self):
        VerifyConfig(points=MAX_STACK_ENTRIES // (FD_CASES * 36), dims=(6,),
                     fd_dims=(2,)).validate()
        VerifyConfig(points=MAX_STACK_ENTRIES // (FD_CASES * MAX_FIBER_DIM**2),
                     dims=(MAX_FIBER_DIM,), fd_dims=(2,)).validate()
        # signature's Gram stack: a basis of (dim**2 / 2) = 8 fields at dim 4
        VerifyConfig(points=MAX_STACK_ENTRIES // (8**2 * 4**2), fd_dims=(4,)).validate()
        VerifyConfig(points=1, fd_dims=(16,)).validate()
        VerifyConfig(t_steps=MAX_T_STEPS).validate()

    def test_algebraic_stacks_are_within_the_cap(self):
        # so VerifyConfig needs no cap of its own for cayley and theorem1
        assert CASES * MAX_FIBER_DIM**2 <= MAX_STACK_ENTRIES

    def test_every_setting_is_set_by_a_flag(self):
        # a value no flag sets is a constant of the method, not a field
        settings = {f.name for f in fields(VerifyConfig)} - {"bundle"}
        assert settings == set(verify.FLAGS)
        verify_flags = {cli.SETTINGS[key][0] for key in cli.COMMANDS["verify"].settings}
        assert set(verify.FLAGS.values()) <= verify_flags


class TestRunSuite:
    def test_small_suite_passes(self):
        reports = run_suite(small_suite_config())
        assert [r.name for r in reports] == sorted(r.name for r in reports)
        assert {r.name for r in reports} == set(CHECK_NAMES)
        assert all(r.passed for r in reports)

    def test_one_failing_check_fails_alone(self, monkeypatch):
        # an analytic ray derivative off by 1 breaks theorem2's order window
        original = verify._omega_ray_derivative
        monkeypatch.setattr(verify, "_omega_ray_derivative", lambda *args: original(*args) + 1.0)
        reports = run_suite(small_suite_config())
        assert [r.name for r in reports if not r.passed] == ["theorem2"]
        assert_report_invariant(next(r for r in reports if r.name == "theorem2"))

    def test_bundle_reports_prepended(self):
        rng = np.random.default_rng(0)
        space = random_sample_space(rng, 2, 3)
        bundle = FieldBundle(space, J=standard_acs_field(space),
                             W=standard_symplectic_field(space))
        reports = run_suite(small_suite_config(bundle=bundle))
        names = {r.name for r in reports}
        assert "field_acs" in names and "field_associated" in names
        assert all(r.passed for r in reports)

    def test_defective_bundle_fails_field_check(self):
        space = SampleSpace(2, np.ones(2))
        ops = np.tile(np.asarray([[0.0, -1.0], [1.0, 0.0]]), (2, 1, 1))
        ops[1, 0, 0] += 1e-3
        bundle = FieldBundle(space, J=AcsField(space, ops))
        reports = run_suite(small_suite_config(bundle=bundle))
        by_name = {r.name: r for r in reports}
        assert not by_name["field_acs"].passed

    def test_document_shape_and_serializable(self):
        cfg = small_suite_config()
        reports = run_suite(cfg)
        doc = report_document(reports, cfg, input_path=None)
        assert doc["passed"] is True
        assert len(doc["checks"]) == len(CHECK_NAMES)
        assert doc["config"]["seed"] == 0
        text = json.dumps(doc, sort_keys=True)
        assert "NaN" not in text
        assert json.loads(text) == doc

    def test_default_suite_inverts_each_resolvent_once(self, monkeypatch):
        original = fiber.mat_inv_guarded
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for module in (fiber, charts, geometry, verify):
            if getattr(module, "mat_inv_guarded", None) is original:
                monkeypatch.setattr(module, "mat_inv_guarded", counted)
        conds = []
        cond = np.linalg.cond

        def counted_cond(*args, **kwargs):
            conds.append(None)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        assert all(r.passed for r in run_suite(VerifyConfig()))
        assert 0 < len(calls) <= 57
        assert 0 < len(conds) <= 2  # the two SymplecticFields; the guard calls no cond

    def test_signature_builds_its_gram_without_chart_inner(self, monkeypatch):
        calls = []
        original = geometry.chart_inner

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for module in (geometry, verify):
            if hasattr(module, "chart_inner"):
                monkeypatch.setattr(module, "chart_inner", counted)
        assert check_signature(seed=0).passed
        assert calls == []

    def test_run_check_matches_suite(self):
        cfg = small_suite_config()
        by_name = {r.name: r for r in run_suite(cfg)}
        assert run_check(cfg, "signature").to_dict() == by_name["signature"].to_dict()
        with pytest.raises(ConfigError):
            run_check(cfg, "bogus")
        (report,) = run_suite(cfg, ("signature",))
        assert report.to_dict() == by_name["signature"].to_dict()

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            run_suite(VerifyConfig(dims=(5,)))


class TestCheckerSkeleton:
    """Every checker echoes its own arguments as params, and run_check binds
    the config to each checker by the names in its signature."""

    def test_params_are_the_signature_minus_seed_and_dims(self):
        # and each a config value; method constants, the tolerances among
        # them, are no keywords and echo nowhere
        settings = {"points", "t_max", "t_steps"}
        keywords = 0
        for report in run_suite(small_suite_config()):
            check = getattr(verify, f"check_{report.name}")
            names = set(inspect.signature(check).parameters) - {"seed", "dims"}
            assert set(report.params) == names <= settings, report.name
            keywords += len(names) + 2
        assert keywords == 26
        assert len(fields(VerifyConfig)) == 7
        with pytest.raises(TypeError):
            check_cayley(tolerance=1e-8)
        with pytest.raises(TypeError):
            VerifyConfig(tolerances={"cayley": 1e-8})

    def test_config_binding(self):
        cfg = small_suite_config(dims=(4,), seed=3, t_max=1.5, t_steps=4)
        for name in CHECK_NAMES:
            report = run_check(cfg, name)
            algebraic = name in ("cayley", "theorem1")
            assert report.seed == 3
            assert report.dims == (cfg.dims if algebraic else cfg.fd_dims)
            for key in ("points", "t_max", "t_steps"):
                if key in report.params:
                    assert report.params[key] == getattr(cfg, key)

    def test_run_check_finds_a_replaced_checker(self, monkeypatch):
        # a profiler swaps the module attribute for a functools.wraps
        # wrapper; run_check must call the wrapper, with the same arguments
        original = verify.check_signature
        calls = []

        @functools.wraps(original)
        def spy(**kwargs):
            calls.append(kwargs)
            return original(**kwargs)

        cfg = small_suite_config()
        want = run_check(cfg, "signature").to_dict()
        monkeypatch.setattr(verify, "check_signature", spy)
        assert run_check(cfg, "signature").to_dict() == want
        assert calls == [{"seed": 0, "dims": (2,), "points": 3}]
