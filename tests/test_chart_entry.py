"""Chart points have one construction path: in ``src/`` only
``geometry.ChartField`` calls ``CayleyCoordinate(``, and no module builds one
by a named constructor or ``__new__``, so every chart point runs the one
``__post_init__`` that checks its domain, which a tracer of the
constructor sees.  At default flags no command hands a chart field a K
made at another base field, which the field would have to remake."""

import ast
import contextlib
import io
import os

import pytest

import acsgeom
from acsgeom import geometry
from acsgeom.cli import main

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))


def chart_point_builders(source: str) -> list[str]:
    """The scopes (``Class.function``, dotted) that call ``CayleyCoordinate``,
    a named constructor ``CayleyCoordinate.x``, or ``__new__`` inside the
    class ``CayleyCoordinate``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                named = isinstance(f, ast.Name) and f.id == "CayleyCoordinate"
                attribute = (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                             and f.value.id == "CayleyCoordinate")
                new = (isinstance(f, ast.Attribute) and f.attr == "__new__"
                       and "CayleyCoordinate" in scope)
                if named or attribute or new:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_detects_each_construction():
    assert chart_point_builders("class ChartField:\n def f(self):\n  CayleyCoordinate(a, b)\n"
                                ) == ["ChartField.f"]
    assert chart_point_builders("x = CayleyCoordinate.of_fields(a, b)\n") == [""]
    assert chart_point_builders("class CayleyCoordinate:\n @classmethod\n def g(cls):\n"
                                "  return cls.__new__(cls)\n") == ["CayleyCoordinate.g"]
    assert chart_point_builders("def h(c):\n return c.coord.K\n") == []


def test_only_chart_field_builds_chart_points():
    builders = {}
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            for scope in chart_point_builders(fh.read()):
                builders.setdefault(name, []).append(scope)
    assert builders == {"geometry.py": ["ChartField.__post_init__"]}


# chart fields that each command builds at its default flags
DEFAULT_CHART_FIELDS = {"verify": 36, "geodesic": 9, "signature": 1, "curvature": 6}


@pytest.mark.parametrize("command", sorted(DEFAULT_CHART_FIELDS))
def test_default_commands_remake_no_coordinate(command, monkeypatch):
    """At default flags every chart field gets a K made at its own base, so
    none pays the remake of a K made at another base field."""
    foreign = []
    built = geometry.ChartField.__post_init__

    def traced(self):
        foreign.append(self.K.base is not self.base)
        built(self)

    monkeypatch.setattr(geometry.ChartField, "__post_init__", traced)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command]) == 0
    assert len(foreign) == DEFAULT_CHART_FIELDS[command]
    assert not any(foreign)
