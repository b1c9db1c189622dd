"""What a complex chart point keeps for its functionals.

A chart field whose point computes in complex form keeps each direction's
resolved form S Q and each ordered pair's trace, on first read, keyed by
the direction's kept ``antilinear_form``.  Reading a kept entry gives the
bits of computing it afresh, so every functional returns the same bits in
any call order, on a reused chart field and on a fresh one; equal
directions held by distinct fields agree; a direction without a form
takes the real route and leaves nothing kept; and an entry never outlives
its chart point or answers for another direction.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

from acsgeom.charts import random_anticommuting
from acsgeom.fiber import COMMUTING_GATE
from acsgeom.geometry import (ChartField, chart_inner, chart_inner_terms, chart_omega,
                              chart_omega_terms, christoffel, curvature)
from acsgeom.structures import AcsField, SampleSpace, TangentField, standard_acs_field


def fields(dim, points, seed):
    rng = np.random.default_rng(seed)
    space = SampleSpace(dim, rng.uniform(0.5, 1.5, points))
    j = standard_acs_field(space)
    made = (random_anticommuting(rng, j.ops, bound=bound) for bound in (0.5, 0.9, 0.9, 0.9))
    return space, j, *(TangentField.derived(j, m) for m in made)


# each functional's output as arrays, compared bit for bit
CALLS = {
    "christoffel": lambda c, a, b, d: christoffel(c, a, b).ops,
    "curvature": lambda c, a, b, d: curvature(c, a, b, b).ops,
    "curvature_abd": lambda c, a, b, d: curvature(c, a, b, d).ops,
    "curvature_dab": lambda c, a, b, d: curvature(c, d, a, b).ops,
    "chart_inner": lambda c, a, b, d: np.array(chart_inner(c, a, b)),
    "chart_omega": lambda c, a, b, d: np.array(chart_omega(c, a, b)),
    "chart_inner_ba": lambda c, a, b, d: chart_inner_terms(c, b, a),
    "chart_omega_bd": lambda c, a, b, d: chart_omega_terms(c, b, d),
}


def fresh(space, j, k, a, b, d):
    """Each functional on a chart field of its own, which keeps nothing yet."""
    return {name: call(ChartField(space, j, k), a, b, d) for name, call in CALLS.items()}


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_every_call_order_gives_the_bits_of_a_fresh_chart_field(dim):
    space, j, k, a, b, d = fields(dim, 9, dim)
    want = fresh(space, j, k, a, b, d)
    assert ChartField(space, j, k).coord.form is not None
    orders = list(itertools.permutations(CALLS))
    for order in orders[::97] + orders[-1:]:  # 417 orders of the 40320, first and last included
        c = ChartField(space, j, k)
        for _ in range(2):  # the second pass reads only kept entries
            for name in order:
                assert np.array_equal(CALLS[name](c, a, b, d), want[name]), (order, name)


def test_a_chart_field_keeps_one_entry_per_direction_and_ordered_pair():
    space, j, k, a, b, d = fields(4, 9, 1)
    c = ChartField(space, j, k)
    assert c.kept == {}
    curvature(c, a, b, b)
    assert set(c.kept) == {id(a.antilinear_form), id(b.antilinear_form)}
    chart_inner(c, a, b)
    chart_omega(c, a, b)
    chart_inner(c, b, a)
    pairs = {(id(a.antilinear_form), id(b.antilinear_form)),
             (id(b.antilinear_form), id(a.antilinear_form))}
    assert set(c.kept) == {id(a.antilinear_form), id(b.antilinear_form)} | pairs
    # each entry holds its forms, so no key is reused while it lives
    assert c.kept[id(a.antilinear_form)][0] is a.antilinear_form


def test_distinct_fields_with_equal_ops_give_equal_results():
    space, j, k, a, b, d = fields(4, 9, 2)
    twin_a, twin_b = (TangentField.derived(j, x.ops.copy()) for x in (a, b))
    c = ChartField(space, j, k)
    assert np.array_equal(curvature(c, a, b, b).ops, curvature(c, twin_a, twin_b, twin_b).ops)
    assert np.array_equal(curvature(c, a, b, twin_b).ops, curvature(c, twin_a, b, b).ops)
    assert chart_inner(c, a, b) == chart_inner(c, twin_a, b) == chart_inner(c, a, twin_b)
    assert chart_omega(c, a, b) == chart_omega(c, twin_a, twin_b)
    assert np.array_equal(christoffel(c, a, b).ops, christoffel(c, twin_a, twin_b).ops)


def off_gate(j, m):
    """A direction at j whose slice 0 misses the form's gate by twice it."""
    out = m.copy()
    largest = np.abs(out[0]).max()
    out[0, 0, 1] = out[0, 1, 0] + 2 * COMMUTING_GATE * largest
    return TangentField.derived(j, out)


def real_terms(c, a, b, omega=False):
    """chart_inner_terms or chart_omega_terms by the real formulas."""
    s = c.resolvents()
    middle = c.base.ops if omega else np.eye(c.space.dim)
    return c.space.weights * 4.0 * np.trace(s @ a @ middle @ s @ b, axis1=-2, axis2=-1)


def test_a_direction_without_a_form_takes_the_real_route_and_is_not_kept():
    space, j, k, a, b, d = fields(4, 9, 3)
    c = ChartField(space, j, k)
    chart_inner(c, a, b)  # a and b, and their pair, are kept
    kept = dict(c.kept)
    odd = off_gate(j, d.ops)
    assert odd.antilinear_form is None
    arrays = b.ops
    assert np.array_equal(chart_inner_terms(c, a, odd), real_terms(c, a.ops, odd.ops))
    assert np.array_equal(chart_omega_terms(c, odd, b), real_terms(c, odd.ops, b.ops, True))
    assert np.array_equal(chart_inner_terms(c, a, arrays), real_terms(c, a.ops, arrays))
    assert np.array_equal(chart_omega_terms(c, arrays, b), real_terms(c, arrays, b.ops, True))
    curvature(c, a, b, odd)
    christoffel(c, odd, b)
    assert c.kept == kept
    # the directions with forms keep their bits beside them
    want = curvature(ChartField(space, j, k), a, b, b).ops
    assert np.array_equal(curvature(c, a, b, b).ops, want)


def test_directions_built_and_dropped_in_a_loop_never_read_a_stale_entry():
    space, j, k, a, b, d = fields(4, 9, 4)
    c = ChartField(space, j, k)
    rng = np.random.default_rng(40)
    for _ in range(40):
        x = TangentField.derived(j, random_anticommuting(rng, j.ops))
        want = fresh(space, j, k, x, b, a)
        for name, call in CALLS.items():
            assert np.array_equal(call(c, x, b, a), want[name]), name
        del x, want
        gc.collect()


def test_the_kept_entries_die_with_the_chart_point():
    space, j, k, a, b, d = fields(4, 9, 5)
    c = ChartField(space, j, k)
    chart_inner(c, a, b)
    x = weakref.ref(c.kept[id(a.antilinear_form)][1])
    trace = weakref.ref(c.kept[id(a.antilinear_form), id(b.antilinear_form)][2])
    del c
    gc.collect()
    assert x() is None and trace() is None


def test_a_real_chart_point_keeps_nothing():
    rng = np.random.default_rng(6)
    space = SampleSpace(4, np.ones(5))
    p = np.eye(4) + 0.3 * rng.uniform(-1.0, 1.0, (4, 4))
    j_std = standard_acs_field(space).ops
    j = AcsField(space, p @ j_std @ np.linalg.inv(p))
    k, a, b = (TangentField.derived(j, p @ random_anticommuting(rng, j_std, bound=0.5)
                                    @ np.linalg.inv(p)) for _ in range(3))
    c = ChartField(space, j, k)
    assert c.coord.form is None
    chart_inner(c, a, b), chart_omega(c, a, b), curvature(c, a, b, b), christoffel(c, a, b)
    assert c.kept == {}
