"""Both exponentials against closed forms where A^2 is a scalar.

Where A^2 = -nu^2 I (a compact direction, such as an antisymmetric tangent
at J_std), exp(t A) = cos(nu t) I + (sin(nu t) / nu) A and
tanh((t/2) A) = (tan(nu t / 2) / nu) A; where A^2 = nu^2 I, the same with
cosh, sinh and tanh.  nu and t are dyadic, so nu t is exact and the
references are the correctly rounded values of numpy's scalar functions.
Each route of ``mat_exp`` and ``mat_tanh_half`` is held to these forms:

- the matrix route, on the same blocks put into dim 6, where every
  non-diagonal slice takes it;
- the algebra route, at dims 2 and 4;
- the diagonal route, on diag(nu, -nu) at dim 2.

The error is max |got - reference| / max(1, max |reference|), bounded by
a multiple of u (1 + nu t), u the unit roundoff: the phase or growth
error nu t times u that any exponential makes, plus its rounding.  Each
multiple is about twice the matrix route's worst reading over these
cases: 1.85 on the compact ones (tanh at nu = 3/8, t = 10), 14.2 on the
hyperbolic ones (exp at nu = 11/16, t = 1000, nu t = 687.5).  A
hyperbolic case has nu t <= 700, below the overflow of cosh.

The algebra route's compact cases lose accuracy at large t (ROADMAP item
2): exp reads 4.9 times u (1 + nu t) at t = 100 and up to about 500
times at t = 1e4, and tanh up to about 300 times at t = 1e3.  Those cases
are strict expected failures until that item mends the route.
"""

import numpy as np
import pytest

from acsgeom.fiber import mat_exp, mat_tanh_half, pade_basis, real_form

U = np.finfo(float).eps / 2
NUS = (0.125, 0.375, 0.6875)
TIMES = (1.0, 10.0, 100.0, 1000.0, 10000.0)
HYPERBOLIC_TIMES = TIMES[:4]  # nu t <= 700 leaves no case at t = 1e4
COMPACT_MULTIPLE = 4.0
HYPERBOLIC_MULTIPLE = 32.0
ITEM_2 = "ROADMAP item 2: the algebra route loses accuracy at large t in compact directions"


def compact(nu, dim):
    """nu times z -> [[0, 1], [-1, 0]] z-bar at dim 4, antilinear for J_std,
    with A^2 = -nu^2 I; at dim 6 the same block plus a zero block."""
    q = nu * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    a = np.zeros((dim, dim))
    a[:4, :4] = real_form(antilinear=q[..., None])[0]
    return a


def hyperbolic(nu, dim, diagonal=False):
    """nu [[0, 1], [1, 0]], or nu diag(1, -1), with A^2 = nu^2 I on the first
    two coordinates and 0 elsewhere."""
    a = np.zeros((dim, dim))
    a[:2, :2] = nu * (np.diag([1.0, -1.0]) if diagonal else np.array([[0.0, 1.0], [1.0, 0.0]]))
    return a


def references(a, nu, t, compact_case):
    """exp(t A) and tanh((t/2) A) in closed form; A's zero block, if any,
    has exp I and tanh 0."""
    x = nu * t
    even, odd = (np.cos(x), np.sin(x)) if compact_case else (np.cosh(x), np.sinh(x))
    quotient = np.tan(x / 2) if compact_case else np.tanh(x / 2)
    on_block = (np.abs(a).sum(axis=0) > 0).astype(float)
    exp = np.diag(1.0 + (even - 1.0) * on_block) + (odd / nu) * a
    return {"exp": exp, "tanh": (quotient / nu) * a}


def kernel(name, a, t):
    basis = pade_basis(a)
    return mat_exp(basis, t) if name == "exp" else mat_tanh_half(basis, t)


def ratio(name, a, nu, t, compact_case):
    """The error of the kernel in units of u (1 + nu t)."""
    want = references(a, nu, t, compact_case)[name]
    got = kernel(name, a, t)
    return np.abs(got - want).max() / max(1.0, np.abs(want).max()) / (U * (1.0 + nu * t))


def route(a):
    basis = pade_basis(a)
    taken = [name for name in ("diagonal", "even", "matrix") if getattr(basis, name) is not None]
    assert len(taken) == 1
    return taken[0]


@pytest.mark.parametrize("name", ["exp", "tanh"])
@pytest.mark.parametrize("t", TIMES)
def test_matrix_route_compact(name, t):
    for nu in NUS:
        a = compact(nu, 6)
        assert route(a) == "matrix"
        assert ratio(name, a, nu, t, True) <= COMPACT_MULTIPLE, nu


# tanh of a hyperbolic block beside a zero block is refused at large nu t:
# its cosh factor holds 2 I beside cosh(nu t / 2)
@pytest.mark.parametrize("t", HYPERBOLIC_TIMES)
def test_matrix_route_hyperbolic_exp(t):
    for nu in NUS:
        if nu * t <= 700.0:
            a = hyperbolic(nu, 6)
            assert route(a) == "matrix"
            assert ratio("exp", a, nu, t, False) <= HYPERBOLIC_MULTIPLE, nu


@pytest.mark.parametrize("diagonal", [False, True], ids=["algebra", "diagonal"])
@pytest.mark.parametrize("name", ["exp", "tanh"])
@pytest.mark.parametrize("t", HYPERBOLIC_TIMES)
def test_dim_2_hyperbolic(name, t, diagonal):
    for nu in NUS:
        if nu * t <= 700.0:
            a = hyperbolic(nu, 2, diagonal)
            assert route(a) == ("diagonal" if diagonal else "even")
            assert ratio(name, a, nu, t, False) <= HYPERBOLIC_MULTIPLE, nu


def algebra_case(name, t):
    fails = t >= (100.0 if name == "exp" else 1000.0)
    marks = pytest.mark.xfail(strict=True, reason=ITEM_2) if fails else ()
    return pytest.param(name, t, marks=marks)


@pytest.mark.parametrize("name, t", [algebra_case(name, t) for name in ("exp", "tanh")
                                     for t in TIMES])
def test_algebra_route_compact(name, t):
    for nu in NUS:
        a = compact(nu, 4)
        assert route(a) == "even"
        assert ratio(name, a, nu, t, True) <= COMPACT_MULTIPLE, nu
