"""Property tests of command-line flag values: ``signature``, ``curvature``
and ``geodesic`` exit 0, 1 or 2 for every value of the flags they read,
never with a traceback, and an exit 0 never reports a non-finite number.
A flag a command does not read exits 2 with nothing on stdout.

Valid values are small, so each run is quick.  Invalid values are zero,
negative, odd dimensions, sizes above the caps up to 10**30 (refused before
anything is allocated) and non-finite or extreme floats.  A ``geodesic``
run that exits 0 must show a non-zero residual at every t > 0 with
t + h != h, h = ``FD_STEP``.  Below half an ulp of h, t +- h round to +-h,
and the central difference of the odd K(t) is exactly 0 with the stencil
intact; a collapsed stencil reads NaN and exits 1.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from acsgeom.cli import COMMANDS, SETTINGS, main
from acsgeom.structures import MAX_FIBER_DIM
from acsgeom.verify import CHECK_NAMES, FD_STEP, MAX_STACK_ENTRIES, MAX_T_STEPS

NEGATIVE = st.integers(-10**30, 0)

FLAGS = {
    "--dim": st.one_of(st.sampled_from([2, 4, 6]), st.sampled_from([1, 3, 5]),
                       NEGATIVE, st.integers(MAX_FIBER_DIM + 1, 10**30)),
    "--points": st.one_of(st.integers(1, 4), NEGATIVE,
                          st.integers(MAX_STACK_ENTRIES // 4 + 1, 10**30)),
    "--t-steps": st.one_of(st.integers(1, 5), NEGATIVE,
                           st.integers(MAX_T_STEPS + 1, 10**30)),
    "--seed": st.one_of(st.integers(0, 3), NEGATIVE, st.integers(2**64, 10**30)),
    "--t-max": st.one_of(st.floats(0.1, 3.0), st.floats(allow_nan=True, allow_infinity=True)),
}


# the settings' flags, and those of settings that are now method constants:
# the difference step and each check's primary tolerance
ALL_FLAGS = sorted({flag for flag, _, _ in SETTINGS.values()} | {"--h"}
                   | {f"--tol-{name.replace('_', '-')}" for name in CHECK_NAMES})


def flags_read(command):
    """The flags ``command`` reads, from the command table."""
    return {SETTINGS[key][0] for key in COMMANDS[command].settings}


def test_flag_table_counts():
    # with --out, --format and --config, which every subcommand reads
    assert sum(len(flags_read(command)) + 3 for command in COMMANDS) == 34


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(["signature", "curvature", "geodesic"]))]
    own = sorted(flags_read(argv[0]) & set(FLAGS))
    for flag in draw(st.lists(st.sampled_from(own), unique=True)):
        argv += [flag, repr(draw(FLAGS[flag]))]
    return argv


@st.composite
def argvs_with_an_unread_flag(draw):
    argv = draw(argvs())
    flag = draw(st.sampled_from([f for f in ALL_FLAGS if f not in flags_read(argv[0])]))
    at = 1 + 2 * draw(st.integers(0, len(argv) // 2))
    return argv[:at] + [flag, repr(draw(st.floats(0.1, 3.0)))] + argv[at:]


# extreme grid ends overflow on purpose; numpy's RuntimeWarning fails
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["geodesic", "--t-max", "-1e-05"])  # a negative value in exponent form
@example(["geodesic", "--dim", "2", "--t-steps", "2", "--points", "1", "--t-max", "5e-324"])
def test_flag_values_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        text = out.getvalue()
        assert "NaN" not in text and "Infinity" not in text, argv
        if argv[0] == "geodesic":
            # 0 at t = 0 by oddness, and where t +- h round to +-h
            assert all(row[3] != 0.0 for row in json.loads(text)["rows"]
                       if row[0] + FD_STEP != FD_STEP), argv
    if code == 2:
        assert out.getvalue() == ""


@settings(max_examples=50, deadline=None)
@given(argvs_with_an_unread_flag())
def test_unread_flag_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert (main(argv), out.getvalue()) == (2, ""), argv
