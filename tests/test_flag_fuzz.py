"""Property tests of command-line flag values: ``signature``, ``curvature``
and ``geodesic`` exit 0, 1 or 2 for every value, never with a traceback,
and an exit 0 never reports a non-finite number.

Valid values are small, so each run is quick.  Invalid values are zero,
negative, odd dimensions, sizes above the caps up to 10**30 (refused before
anything is allocated) and non-finite or extreme floats.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from acsgeom.cli import main
from acsgeom.structures import MAX_FIBER_DIM
from acsgeom.verify import MAX_STACK_ENTRIES, MAX_T_STEPS

NEGATIVE = st.integers(-10**30, 0)

FLAGS = {
    "--dim": st.one_of(st.sampled_from([2, 4, 6]), st.sampled_from([1, 3, 5]),
                       NEGATIVE, st.integers(MAX_FIBER_DIM + 1, 10**30)),
    "--points": st.one_of(st.integers(1, 4), NEGATIVE,
                          st.integers(MAX_STACK_ENTRIES // 4 + 1, 10**30)),
    "--t-steps": st.one_of(st.integers(1, 5), NEGATIVE,
                           st.integers(MAX_T_STEPS + 1, 10**30)),
    "--seed": st.one_of(st.integers(0, 3), NEGATIVE, st.integers(2**64, 10**30)),
    "--h": st.one_of(st.floats(1e-5, 1e-2), st.floats(allow_nan=True, allow_infinity=True)),
    "--t-max": st.one_of(st.floats(0.1, 3.0), st.floats(allow_nan=True, allow_infinity=True)),
}


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(["signature", "curvature", "geodesic"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), unique=True)):
        argv += [flag, repr(draw(FLAGS[flag]))]
    return argv


# extreme steps and grid ends overflow on purpose; numpy's RuntimeWarning fails
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_flag_values_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        text = out.getvalue()
        assert "NaN" not in text and "Infinity" not in text, argv
    if code == 2:
        assert out.getvalue() == ""

