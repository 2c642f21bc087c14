"""Property: every command line and every model document maps to a named outcome.

Arbitrary float text for the pose, direction, step, max-delta, tol and
eps-f, and arbitrary integer text for grid and max-iter, on the shipped
model; then the shipped model mutated (numbers set to extreme values, keys
dropped or added) under fixed command lines. The exit code is one of the
named ones (exit 1 is an internal error), and no numpy RuntimeWarning
reaches stderr or the warnings module. The work is capped: a sweep takes at
most about 200 samples unless it asks for 1e18 or more, which no memory
holds and which must exit 3 before any solve; a map grid is at most 6 and
max-iter at most 50.
"""

import contextlib
import copy
import io
import json
import warnings
from importlib import resources

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
    # keep the sample count near 200 at most, as arbitrary text can ask for 1e300;
    # 1e18 samples and more pass, as numpy refuses to allocate that many at once
    try:
        samples = float(max_delta) / float(step)
    except (ValueError, ZeroDivisionError):
        return step
    return repr(float(max_delta) / 200.0) if 200.0 < samples < 1e18 else step


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


def _run(argv):
    """Exit code of ``main(argv)``, asserting that it is named and warned nothing."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in NAMED_EXITS, (argv, code, err.getvalue())
    assert "RuntimeWarning" not in err.getvalue(), argv
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
    return code


@pytest.mark.parametrize("command", ["equilibrium", "stiffness", "invkin", "sweep", "map"])
@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
# an explicit command line in place of the drawn one: about 1e299 samples exit 3 before any solve
@example(data=["sweep", "--model", MODEL, "--from=0,0", "--dir=1,1", "--max-delta=0.1", "--step=1e-300"])
def test_every_command_line_has_a_named_outcome(command, data):
    if isinstance(data, list):
        assert _run(data) == 3
    else:
        _run(data.draw(command_lines(command), label="argv"))


SHIPPED = json.loads(resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text())


def _nodes(node, path=()):
    """Every (path, value) pair of a document tree, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


_NUMBERS = [p for p, v in _nodes(SHIPPED) if isinstance(v, (int, float)) and not isinstance(v, bool)]
_KEYS = [p for p, _ in _nodes(SHIPPED) if p and isinstance(p[-1], str)]
_OBJECTS = [p for p, v in _nodes(SHIPPED) if isinstance(v, dict)]
# set a number to an extreme or degenerate value, drop a key, or add an unknown one
mutations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_NUMBERS), st.sampled_from([0, 1e150, -1e150, 1e300, 1e-300, -0.0])),
    st.tuples(st.just("drop"), st.sampled_from(_KEYS), st.none()),
    st.tuples(st.just("add"), st.sampled_from(_OBJECTS), st.none()),
)
MODEL_COMMANDS = {
    "equilibrium": ["equilibrium", "--pose", "0.1,0.1"],
    "stiffness": ["stiffness", "--pose", "0.1,0.1"],
    "invkin": ["invkin", "--pose", "0.1,0.1", "--eps-f", "1e-3"],
    "map": ["map", "--grid", "2"],
}


def _mutated(edits):
    doc = copy.deepcopy(SHIPPED)
    for op, path, value in edits:
        *parents, last = (*path, "extra") if op == "add" else path
        node = doc
        try:
            for key in parents:
                node = node[key]
        except KeyError:
            continue  # an earlier edit dropped this node
        if op == "drop":
            node.pop(last, None)
        else:
            node[last] = 1 if op == "add" else value
    return doc


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "model.json"


@settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edits=st.lists(mutations, min_size=1, max_size=3), command=st.sampled_from(sorted(MODEL_COMMANDS)))
# a joint axis whose norm overflows exits 3, with no numpy overflow warning first
@example(edits=[("set", ("chains", 0, "elements", 1, "joint", "axis", 0), 1e300)], command="equilibrium")
def test_every_mutated_model_has_a_named_outcome(model_file, edits, command):
    model_file.write_text(json.dumps(_mutated(edits)))
    _run([*MODEL_COMMANDS[command], "--model", str(model_file)])
