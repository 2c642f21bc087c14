"""Property: every command line maps to a named outcome.

Arbitrary float text for the pose, direction, step, max-delta, tol and
eps-f, and arbitrary integer text for grid and max-iter, on the shipped
model. The exit code is one of the named ones (exit 1 is an internal
error), and no numpy RuntimeWarning reaches stderr or the warnings module.
The work is capped: a sweep takes at most about 200 samples, a map grid is
at most 6 and max-iter at most 50.
"""

import contextlib
import io
import warnings
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kinetostat.cli import main

MODEL = str(resources.files("kinetostat").joinpath("models/orthoglide-planar.json"))
NAMED_EXITS = {0, 2, 3, 4, 5}

_floats = st.floats(allow_nan=True, allow_infinity=True)
# any float, in full and in short form, and text that is almost a number
float_text = st.one_of(
    _floats.map(repr),
    _floats.map(lambda v: f"{v:.3g}"),
    st.text(alphabet="0123456789.-+eEinfa ", max_size=6),
)


def _mostly(valid, arbitrary):
    """``valid`` three times in four, so that most examples get past parsing."""
    return st.one_of(valid, valid, valid, arbitrary)


def _or_arbitrary(low, high):
    """A number in [low, high] that the command accepts, or arbitrary float text."""
    return _mostly(st.floats(low, high).map(repr), float_text)


list_text = st.lists(float_text, min_size=1, max_size=3).map(",".join)
pose_text = _mostly(st.lists(st.floats(-0.6, 0.6).map(repr), min_size=2, max_size=2).map(",".join), list_text)


def _int_text(cap):
    """Arbitrary integer text, but none that argparse reads as more than ``cap``."""

    def within(text):
        try:
            return int(text) <= cap
        except ValueError:
            return True

    text = st.one_of(st.integers().map(str), st.text(alphabet="0123456789-+. e", max_size=4))
    return _mostly(st.integers(1, cap).map(str), text.filter(within))


grid_text = _int_text(6)
max_iter_text = _int_text(50)


def _options(draw, *flags):
    argv = []
    for flag, strategy in flags:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(strategy)}")
    return argv


def _sweep_step(max_delta: str, step: str) -> str:
    # keep the sample count near 200 at most, as arbitrary text can ask for 1e300
    try:
        samples = float(max_delta) / float(step)
    except (ValueError, ZeroDivisionError):
        return step
    return repr(float(max_delta) / 200.0) if samples > 200.0 else step


@st.composite
def command_lines(draw, command):
    argv = [command, "--model", MODEL]
    common = [("--tol", _or_arbitrary(1e-12, 1e-3)), ("--max-iter", max_iter_text)]
    if command in ("equilibrium", "stiffness"):
        argv.append(f"--pose={draw(pose_text)}")
        argv += _options(draw, ("--rho", list_text), *common)
        argv += ["--json"] if draw(st.booleans()) else []
    elif command == "invkin":
        argv += [f"--pose={draw(pose_text)}", f"--eps-f={draw(_or_arbitrary(1e-12, 1e-4))}"]
        argv += _options(draw, *common)
        argv += ["--json"] if draw(st.booleans()) else []
    elif command == "sweep":
        max_delta, step = draw(_or_arbitrary(0.0, 0.5)), draw(_or_arbitrary(1e-3, 0.1))
        argv += [f"--from={draw(pose_text)}", f"--dir={draw(pose_text)}"]
        argv += [f"--max-delta={max_delta}", f"--step={_sweep_step(max_delta, step)}"]
        argv += _options(draw, *common)
    else:
        argv.append(f"--grid={draw(grid_text)}")
        argv += _options(draw, ("--eps-f", _or_arbitrary(1e-12, 1e-4)), *common)
    return argv


@pytest.mark.parametrize("command", ["equilibrium", "stiffness", "invkin", "sweep", "map"])
@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_command_line_has_a_named_outcome(command, data):
    argv = data.draw(command_lines(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in NAMED_EXITS, (argv, code, err.getvalue())
    assert "RuntimeWarning" not in err.getvalue(), argv
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
