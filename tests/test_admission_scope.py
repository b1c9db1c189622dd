"""Array input is admitted once, where it enters: ``src/`` names
``fiber.as_fiber_matrix`` only in the functions listed in ``ADMITTERS``.

Those are the fields' constructors, ``FiberMetric``, the public kernels
that take raw arrays (``mat_inv_guarded``, ``pade_basis``, ``g_adjoint``),
``charts.shape_anticommuting`` and ``charts.CayleyCoordinate``.  A value
derived from admitted input is not admitted again: where a kernel needs a
derived stack to be finite, it checks finiteness alone, as
``mat_tanh_half`` does on its cosh factor.  ``CayleyCoordinate`` calls it
once, on 1 - K^2 where that square overflowed.  A K admitted finite can
still square past the floating-point range, and that call refuses it as
non-finite with the admission rule's message, after 1 - K's guard:
the order that ``TestChartFieldResolvents.test_refusal_order`` in
``tests/test_geometry.py`` pins.  A reference counts as a call, so an
alias is found too."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))
ADMITTERS = {
    "charts.py": ["CayleyCoordinate.__post_init__", "shape_anticommuting",
                  "shape_anticommuting"],
    "fiber.py": ["FiberMetric.__post_init__", "mat_inv_guarded", "pade_basis", "g_adjoint"],
    "structures.py": ["SampleSpace.__post_init__", "AcsField.__post_init__",
                      "TangentField.__post_init__", "SymplecticField.__post_init__"],
}


def admission_scopes(source: str) -> list[str]:
    """The scopes (``Class.function``, dotted; ``""`` at module level) of
    each reference to ``as_fiber_matrix``, by name or attribute, in order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "as_fiber_matrix"
                    or isinstance(child, ast.Attribute) and child.attr == "as_fiber_matrix"):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_detects_each_reference():
    source = ("from .fiber import as_fiber_matrix\n"
              "def as_fiber_matrix_twin(a):\n"
              "    return a\n"
              "def f(a):\n"
              "    return as_fiber_matrix(a)\n"
              "class G:\n"
              "    def h(self, a):\n"
              "        return fiber.as_fiber_matrix(a, (2, 2), 'a')\n"
              "admit = as_fiber_matrix\n")
    assert admission_scopes(source) == ["f", "G.h", ""]


def test_only_the_entry_points_admit():
    scopes = {}
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            found = admission_scopes(fh.read())
        if found:
            scopes[name] = found
    assert scopes == ADMITTERS
