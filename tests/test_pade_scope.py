"""The Pade-13 approximant of the matrix route has one implementation:
``src/`` names ``_powers`` and ``_pade_parts`` only inside
``fiber._pade_13``, which scales each slice of c A by its squaring count
and forms the powers and the parts afresh at every exponent.  A
reference counts as a call, so an alias such as ``parts = _pade_parts``
is found too, and so is an attribute such as ``fiber._powers``."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))
APPROXIMANT = {"_powers", "_pade_parts"}


def approximant_scopes(source: str) -> list[str]:
    """The scopes (``Class.function``, dotted; ``""`` at module level) that
    name ``_powers`` or ``_pade_parts``, other than by defining them."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            named = (isinstance(child, ast.Name) and child.id in APPROXIMANT
                     or isinstance(child, ast.Attribute) and child.attr in APPROXIMANT)
            imported = (isinstance(child, ast.ImportFrom)
                        and any(alias.name in APPROXIMANT for alias in child.names))
            if named or imported:
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_detects_each_approximant_reference():
    source = ("def _powers(x):\n"
              "    return x\n"
              "def f(a):\n"
              "    return _pade_parts(*_powers(a))\n"
              "class G:\n"
              "    def h(self, a):\n"
              "        return fiber._powers(a)\n"
              "parts = _pade_parts\n"
              "from .fiber import _pade_parts\n"
              "y = _pade_13(a)\n")
    assert approximant_scopes(source) == ["f", "f", "G.h", "", ""]


def test_only_the_scaled_approximant_forms_the_powers():
    scopes = {}
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            for scope in approximant_scopes(fh.read()):
                scopes.setdefault(name, []).append(scope)
    assert scopes == {"fiber.py": ["_pade_13", "_pade_13"]}
