"""Chart points have one construction path: in ``src/`` only
``geometry.ChartField`` calls ``CayleyCoordinate(``, and no module builds one
by a named constructor or ``__new__``, so every chart point runs the one
``__post_init__`` that checks its domain, which a tracer of the
constructor sees."""

import ast
import os

import acsgeom

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
