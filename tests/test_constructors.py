"""The written constructors of the record classes keep the calling
convention of the dataclass ``__init__`` they replace: the same parameters
in the same order, each accepted by position or by keyword, the same
defaults, and a ``TypeError`` for an unknown keyword, a missing argument
or one argument too many."""

import inspect

import numpy as np
import pytest

from acsgeom.charts import CayleyCoordinate
from acsgeom.cli import Command, RunConfig, cmd_checks
from acsgeom.fiber import FiberMetric, PadeBasis
from acsgeom.structures import (
    AcsField,
    FieldBundle,
    FieldReport,
    SampleSpace,
    SymplecticField,
    TangentField,
    random_tangent_field,
    standard_acs_field,
    standard_symplectic_field,
)
from acsgeom.verify import CheckReport, VerifyConfig

REQUIRED = inspect.Parameter.empty


def _cases():
    """(class, [(parameter, default)], a valid positional call) per class."""
    space = SampleSpace(4, np.ones(3))
    j = standard_acs_field(space)
    k = random_tangent_field(np.random.default_rng(0), j, bound=0.5)
    w = standard_symplectic_field(space)
    basis = k.pade
    residuals = np.zeros(3)
    return [
        (FiberMetric, [("matrix", REQUIRED)], (np.eye(4),)),
        (PadeBasis, [(name, REQUIRED) for name in (
            "shape", "stack", "largest", "even", "matrix", "algebra", "norm")],
         (basis.shape, basis.stack, basis.largest, basis.even, basis.matrix,
          basis.algebra, basis.norm)),
        (CayleyCoordinate, [("base", REQUIRED), ("K", REQUIRED)], (j, k)),
        (SampleSpace, [("dim", REQUIRED), ("weights", REQUIRED), ("metrics", None),
                       ("point_ids", None)],
         (4, np.ones(3), np.tile(2.0 * np.eye(4), (3, 1, 1)), ("a", "b", "c"))),
        (AcsField, [("space", REQUIRED), ("ops", REQUIRED)], (space, j.ops)),
        (TangentField, [("space", REQUIRED), ("base", REQUIRED), ("ops", REQUIRED)],
         (space, j, k.ops)),
        (SymplecticField, [("space", REQUIRED), ("forms", REQUIRED)], (space, w.forms)),
        (FieldReport, [("name", REQUIRED), ("point_ids", REQUIRED), ("residuals", REQUIRED),
                       ("ok", REQUIRED), ("tolerance", REQUIRED), ("values", None)],
         ("acs", space.point_ids, residuals, residuals <= 1.0, 1.0, {"x": residuals})),
        (FieldBundle, [("space", REQUIRED), ("J", None), ("W", None), ("K", None)],
         (space, j, w, k)),
        (CheckReport, [("name", REQUIRED), ("passed", REQUIRED), ("max_residual", REQUIRED),
                       ("tolerance", REQUIRED), ("seed", REQUIRED), ("dims", REQUIRED),
                       ("params", None), ("details", None)],
         ("cayley", True, 0.0, 1e-10, 0, (4,), {"cases": 2}, [{"name": "x"}])),
        (Command, [("help", REQUIRED), ("handler", REQUIRED), ("checks", ()),
                   ("settings", ()), ("bundle_fixes", ())],
         ("run", cmd_checks, ("cayley",), ("dim",), ("dim",))),
        (RunConfig, [("command", REQUIRED), ("dim", 4), ("points", VerifyConfig.points),
                     ("seed", VerifyConfig.seed), ("t_max", VerifyConfig.t_max),
                     ("t_steps", VerifyConfig.t_steps), ("input", None), ("output", None),
                     ("format", "report")],
         ("geodesic", 2, 3, 5, 1.5, 4, "in.json", "out.json", "csv")),
    ]


CASES = _cases()
IDS = [cls.__name__ for cls, _, _ in CASES]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a is b or a == b


@pytest.mark.parametrize("cls, params, args", CASES, ids=IDS)
def test_parameters_keep_their_order_and_defaults(cls, params, args):
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD
               for p in inspect.signature(cls).parameters.values())


@pytest.mark.parametrize("cls, params, args", CASES, ids=IDS)
def test_positional_and_keyword_calls_build_the_same_record(cls, params, args):
    names = [name for name, _ in params]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for name in names:
        assert _same(getattr(by_position, name), getattr(by_keyword, name)), name


@pytest.mark.parametrize("cls, params, args", CASES, ids=IDS)
def test_bad_calls_raise_type_error(cls, params, args):
    required = sum(default is REQUIRED for _, default in params)
    with pytest.raises(TypeError):
        cls(*args, bogus=1)
    with pytest.raises(TypeError):
        cls(*args[:required - 1])
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, **{params[0][0]: args[0]})


def test_defaults_and_keywords_as_callers_write_them():
    space = SampleSpace(4, np.ones(3))
    j = standard_acs_field(space)
    k = random_tangent_field(np.random.default_rng(1), j)
    bundle = FieldBundle(space, J=j, K=k)
    assert (bundle.space, bundle.J, bundle.W, bundle.K) == (space, j, None, k)

    weights, ids = np.ones(2), ("p", "q")
    spaced = SampleSpace(2, weights, np.tile(np.eye(2), (2, 1, 1)), ids)
    assert spaced.point_ids == ids and spaced.fiber_metric.is_identity
    assert SampleSpace(2, weights).point_ids == (0, 1)

    cfg = RunConfig("verify", dim=3)
    assert vars(cfg) == {"command": "verify", "dim": 3, "points": 8, "seed": 0,
                         "t_max": 2.0, "t_steps": 9, "input": None, "output": None,
                         "format": "report"}

    command = Command("help", cmd_checks)
    assert (command.checks, command.settings, command.bundle_fixes) == ((), (), ())

    reports = [CheckReport("c", True, 0.0, 1.0, 0, (2,)) for _ in range(2)]
    assert reports[0].to_dict() == {"name": "c", "passed": True, "max_residual": 0.0,
                                    "tolerance": 1.0, "seed": 0, "dims": [2],
                                    "params": {}, "details": []}
    assert reports[0].params is not reports[1].params
    assert reports[0].details is not reports[1].details

    report = FieldReport("acs", (0, 1), np.array([0.5, 2.0]), np.array([True, False]), 1.0)
    assert report.values == {} and report.per_point[1] == {"id": 1, "residual": 2.0,
                                                            "passed": False}
    assert (report.passed, report.max_residual, report.worst_point) == (False, 2.0, 1)
