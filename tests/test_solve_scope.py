"""Every inversion in the package shares one singular-slice rule: ``src/``
names ``np.linalg.solve`` or ``np.linalg.inv`` only inside ``fiber._solve``,
which raises ``SingularOperator("Singular matrix")`` for an exactly singular
slice and leaves an overflow for the guard.  ``mat_inv``, the
exponentials' Pade quotient and ``complex_inverse`` above dim 4 all call
it.  A reference counts as a call, so an alias such as
``solve = np.linalg.solve`` is found too, and so is an import of those
names from ``numpy.linalg``; ``pinv``, ``lstsq``, ``tensorsolve`` and
``tensorinv`` are held to the same rule."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))
SOLVERS = {"solve", "inv", "pinv", "lstsq", "tensorsolve", "tensorinv"}


def linalg(node) -> bool:
    """``linalg`` or ``<anything>.linalg``."""
    return (isinstance(node, ast.Name) and node.id == "linalg"
            or isinstance(node, ast.Attribute) and node.attr == "linalg")


def solver_scopes(source: str) -> list[str]:
    """The scopes (``Class.function``, dotted; ``""`` at module level) that
    name a ``linalg`` solver or import one from ``numpy.linalg``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            named = (isinstance(child, ast.Attribute) and child.attr in SOLVERS
                     and linalg(child.value))
            imported = (isinstance(child, ast.ImportFrom)
                        and (child.module or "").endswith("linalg")
                        and any(alias.name in SOLVERS for alias in child.names))
            if named or imported:
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_detects_each_solver_reference():
    source = ("def f(a):\n"
              "    return np.linalg.solve(a, b)\n"
              "class G:\n"
              "    def h(self, a):\n"
              "        return numpy.linalg.inv(a)\n"
              "solve = np.linalg.solve\n"
              "from numpy.linalg import inv\n"
              "from numpy import linalg\n"
              "x = linalg.pinv(a)\n"
              "y = np.linalg.eigvalsh(a)\n"
              "z = np.linalg.norm(a)\n"
              "w = solver.solve(a)\n")
    assert solver_scopes(source) == ["f", "G.h", "", "", ""]


def test_only_the_solve_helper_inverts():
    scopes = {}
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            for scope in solver_scopes(fh.read()):
                scopes.setdefault(name, []).append(scope)
    assert scopes == {"fiber.py": ["_solve"]}
