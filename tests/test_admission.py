"""Every public entry that takes arrays admits them by one rule,
``fiber.as_fiber_matrix``: the shape it expects, if any, then square
matrices of even order, then finite entries.  An entry that expects a
shape names its array in the refusal; a kernel refuses a "matrix".  A
chart field admits nothing again; a non-finite K it derived at its own
base is refused at 1 - K^2 by the guarded inverse of 1 - K.
"""

import numpy as np
import pytest

from acsgeom.charts import (CayleyCoordinate, acs_to_cayley, pushforward, random_anticommuting,
                            shape_anticommuting, standard_acs)
from acsgeom.errors import DimensionMismatch, NonFiniteValue
from acsgeom.fiber import FiberMetric, g_adjoint, mat_exp, mat_inv_guarded, mat_tanh_half
from acsgeom.geometry import ChartField
from acsgeom.structures import (AcsField, SampleSpace, SymplecticField, TangentField,
                                standard_acs_field)

SPACE = SampleSpace(4, np.ones(3))
J0 = standard_acs_field(SPACE)
COORD = CayleyCoordinate(J0.ops, np.zeros((3, 4, 4)))

# entry: (call on the array, the name its refusals give it, or None for a
# kernel, which expects no shape)
ENTRIES = {
    "SampleSpace.metrics": (lambda a: SampleSpace(4, np.ones(3), a), "metrics"),
    "AcsField": (lambda a: AcsField(SPACE, a), "ops"),
    "TangentField": (lambda a: TangentField(SPACE, J0, a), "ops"),
    "SymplecticField": (lambda a: SymplecticField(SPACE, a), "forms"),
    "FiberMetric": (FiberMetric, None),
    "CayleyCoordinate": (lambda a: CayleyCoordinate(J0.ops, a), "coordinate"),
    "acs_to_cayley": (lambda a: acs_to_cayley(J0.ops, a), "structure"),
    "pushforward": (lambda a: pushforward(COORD, a), "tangent"),
    "shape_anticommuting": (lambda a: shape_anticommuting(a, standard_acs(4)), None),
    "random_anticommuting": (lambda a: random_anticommuting(np.random.default_rng(0), a), None),
    "mat_exp": (mat_exp, None),
    "mat_tanh_half": (lambda a: mat_tanh_half(a, 1.0), None),
    "mat_inv_guarded": (mat_inv_guarded, None),
    "g_adjoint": (lambda a: g_adjoint(a, FiberMetric.identity(4)), None),
}


def with_entry(value):
    a = np.zeros((3, 4, 4))
    a[1, 2, 3] = value
    return a


# case: (the array, the refusal of a named entry, the refusal of a kernel)
CASES = {
    "nan": (with_entry(np.nan), (NonFiniteValue, "{} entries must be finite"),
            (NonFiniteValue, "matrix entries must be finite")),
    "inf": (with_entry(np.inf), (NonFiniteValue, "{} entries must be finite"),
            (NonFiniteValue, "matrix entries must be finite")),
    "wrong_shape": (np.zeros((3, 4, 3)),
                    (DimensionMismatch, "{} must have shape (3, 4, 4), got (3, 4, 3)"),
                    (DimensionMismatch, "expected square matrices, got shape (3, 4, 3)")),
    "odd_order": (np.zeros((3, 3, 3)),
                  (DimensionMismatch, "{} must have shape (3, 4, 4), got (3, 3, 3)"),
                  (DimensionMismatch, "fiber dimension must be even and >= 2, got 3")),
}


def refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_admits_by_one_rule(entry, case):
    call, what = ENTRIES[entry]
    a, named, kernel = CASES[case]
    kind, message = named if what is not None else kernel
    assert refusal(lambda: call(a)) == (kind, message.format(what))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_chart_field_refuses_a_non_finite_derived_coordinate(value):
    k = TangentField.derived(J0, with_entry(value))
    assert refusal(lambda: ChartField(SPACE, J0, k)) == (
        NonFiniteValue, "matrix entries must be finite")


# a vouched K is taken as it is, with no pass over its entries: one type
# test and one shape compare
@pytest.mark.parametrize("k, got", [(np.zeros((4, 4)), "(4, 4)"),
                                    (np.zeros((3, 4, 4)).tolist(), "list")])
def test_vouched_coordinate_must_be_an_array_of_the_base_shape(k, got):
    assert refusal(lambda: CayleyCoordinate(J0.ops, k, anticommuting=True)) == (
        DimensionMismatch, f"coordinate must have shape (3, 4, 4), got {got}")
