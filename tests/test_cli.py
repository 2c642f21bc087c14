import json
import warnings
from importlib import resources

import numpy as np
import pytest

import kinetostat.cli
from kinetostat.cli import main

from conftest import sweep_by_samples


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    text = resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text()
    path = tmp_path_factory.mktemp("model") / "orthoglide-planar.json"
    path.write_text(text)
    return str(path)


@pytest.fixture
def toy_model_path(tmp_path):
    # single prismatic drive chain: singular transverse to its axis
    doc = {
        "version": "kinetostat/1",
        "task_dim": 2,
        "chains": [
            {
                "elements": [
                    {"joint": {"kind": "actuated", "motion": "translational", "axis": [1.0, 0.0, 0.0]}},
                    {"joint": {"kind": "virtual_elastic", "motion": "translational", "axis": [1.0, 0.0, 0.0], "stiffness": 1.0}},
                ]
            }
        ],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_equilibrium_text_output(model_path, capsys):
    assert main(["equilibrium", "--model", model_path, "--pose", "0,0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("F_sigma: 0 0")
    assert "chain[1]" in out


def test_equilibrium_json_matches_library(model_path, capsys):
    assert main(["equilibrium", "--model", model_path, "--pose", "0.2,0.3", "--rho", "1.1,1.05", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from kinetostat import parse_model, total_wrench

    model = parse_model(open(model_path).read())
    F, _ = total_wrench(model, [0.2, 0.3], [[1.1], [1.05]])
    np.testing.assert_allclose(payload["F_sigma"], F, atol=1e-12)
    assert payload["chains"][0]["iterations"] >= 1


def test_stiffness_json(model_path, capsys):
    assert main(["stiffness", "--model", model_path, "--pose", "0,0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["K_sigma"], 1.1 * np.eye(2), atol=1e-9)
    assert payload["rank_c"] == [2, 2]


def test_sweep_csv_shape(model_path, capsys):
    assert (
        main(
            ["sweep", "--model", model_path, "--from", "0,0", "--dir", "1,0",
             "--max-delta", "0.01", "--step", "0.005"]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta,F_mag,F_dir"
    assert lines[1].startswith("0,0,")
    assert lines[-1].startswith("#")
    assert len([l for l in lines if not l.startswith("#")]) == 4  # header + 3 samples


@pytest.mark.parametrize(
    "direction, unit",
    [("1e200,0", "1,0"), ("1e-200,0", "1,0"), ("1e300,1e300", "1,1")],
)
def test_sweep_direction_of_any_finite_size(model_path, capsys, direction, unit):
    # the direction's squared norm overflows or underflows, its unit vector does not
    def run(d):
        argv = ["sweep", "--model", model_path, "--from", "0.1,0.1", "--dir", d,
                "--max-delta", "0.01", "--step", "0.005"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [str(w.message) for w in caught] == []
        return capsys.readouterr()

    scaled, plain = run(direction), run(unit)
    assert scaled.out == plain.out
    assert scaled.err == plain.err == ""


def test_sweep_force_magnitude_of_any_finite_size(model_path, capsys):
    # the squared sum of a 1e-300 force underflows to 0, its magnitude does not
    argv = ["sweep", "--model", model_path, "--from=0,0", "--dir=1,0",
            "--max-delta", "1e-300", "--step", "1e-300"]
    assert main(argv) == 0
    out = capsys.readouterr()
    delta, magnitude, along = (float(v) for v in out.out.splitlines()[2].split(","))
    assert delta == 1e-300 and along != 0.0
    assert magnitude >= abs(along)
    assert out.err == ""


def test_sweep_peak_of_any_finite_step(model_path, capsys, monkeypatch):
    # deltas of 1e-226 leave the float range when squared; every sample here
    # holds the same wrench, in the stacks and in one cold total_wrench per
    # sample, so the curve has no peak, and neither path warns (the quadratic
    # fit at this scale is test_critical_force_of_any_finite_step's)
    argv = ["sweep", "--model", model_path, "--from=0.1789059572328009,1e-300",
            "--dir=-5.960464477539063e-08,-0.6", "--max-delta", "1.02e-225", "--step", "5.1e-228"]
    outputs = []
    for scalar in (False, True):
        if scalar:
            monkeypatch.setattr(kinetostat.cli, "force_deflection", sweep_by_samples)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [str(w.message) for w in caught] == []
        out = capsys.readouterr()
        assert out.err == ""
        outputs.append(out.out)
    assert outputs[0] == outputs[1] and outputs[0].splitlines()[-1] == "# critical=none"


def test_sweep_under_a_small_iteration_budget_is_one_curve(model_path, capsys, monkeypatch):
    # a sample is its cold solve: from its rigid IK each sample here converges
    # in two iterations, in the stacks and in one cold total_wrench per sample
    argv = ["sweep", "--model", model_path, "--from", "0,0", "--dir", "1,1",
            "--max-delta", "0.1", "--step", "0.01", "--max-iter", "2"]
    assert main(argv) == 0
    stacked = capsys.readouterr()
    lines = stacked.out.splitlines()
    assert len(lines) == 13 and lines[-1] == "# critical=none" and stacked.err == ""
    monkeypatch.setattr(kinetostat.cli, "force_deflection", sweep_by_samples)
    assert main(argv) == 0
    assert capsys.readouterr() == stacked


def test_truncated_sweep_without_peak_is_unknown(model_path, capsys):
    # one iteration cannot converge the second sample from its rigid IK: the
    # curve ends before it could show a peak, so it must not claim there is none
    argv = ["sweep", "--model", model_path, "--from", "0,0", "--dir", "1,1",
            "--max-delta", "0.1", "--step", "0.01", "--max-iter", "1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines == ["delta,F_mag,F_dir", "0,0,0", "# critical=unknown", "# truncated=true"]
    assert captured.err == (
        "sweep: truncated at delta=0.01: non-convergence: equilibrium of chain 'x-leg' did not converge "
        "(best residual 1.422e-16 met pose_tol, but the step did not settle in 1 iteration)\n"
    )


def test_sweep_truncated_at_its_first_sample_names_its_reason(model_path, capsys):
    # the start sample itself does not settle in one iteration: no row, and
    # stderr names the error that ended the curve, as main would had it raised
    argv = ["sweep", "--model", model_path, "--from=0.1,0.2", "--dir=1,1",
            "--max-delta", "0.03", "--step", "0.01", "--max-iter", "1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "delta,F_mag,F_dir\n# critical=unknown\n# truncated=true\n"
    assert captured.err == (
        "sweep: truncated at delta=0: non-convergence: equilibrium of chain 'x-leg' did not converge "
        "(best residual 8.327e-17 met pose_tol, but the step did not settle in 1 iteration)\n"
    )


def test_map_csv(model_path, capsys):
    assert main(["map", "--model", model_path, "--grid", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,c_max,c_min,flag"
    assert len(lines) == 5
    assert all(line.endswith(",ok") for line in lines[1:])


def test_map_names_each_failed_cell_on_stderr(model_path, tmp_path, capsys):
    # the CSV rows keep their form; one stderr line per failed cell names it
    tree = json.loads(open(model_path).read())
    tree["workspace"] = {"min": [-1.35, -1.35], "max": [1.35, 1.35]}
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(tree))
    assert main(["map", "--model", str(wide), "--grid", "3"]) == 0
    captured = capsys.readouterr()
    failed = [row.split(",")[:2] for row in captured.out.splitlines()[1:] if row.endswith(",failed")]
    reasons = captured.err.splitlines()
    assert 0 < len(failed) == len(reasons) < 9
    for (x, y), line in zip(failed, reasons):
        assert line.startswith(f"map: cell x={x} y={y} failed: model error: pose unreachable for chain ")
        assert "distance" in line


def test_map_refuses_a_grid_too_large_to_hold(model_path, capsys):
    # the n x n maps are allocated before the axes, and their MemoryError
    # becomes a model error naming the grid; the two 800 MB axes of such a
    # grid are never built, so the process peak stays put
    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert main(["map", "--model", model_path, "--grid", "100000000"]) == 3
    assert "compliance grid of 100000000 x 100000000" in capsys.readouterr().err
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb < 100_000


def test_invkin_matches_library(model_path, capsys):
    assert main(["invkin", "--model", model_path, "--pose", "0.45,0.45", "--eps-f", "1e-8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from kinetostat import parse_model, solve_inverse_kinetostatic

    model = parse_model(open(model_path).read())
    sol = solve_inverse_kinetostatic(model, [0.45, 0.45], 1e-8)
    np.testing.assert_allclose(payload["rho"], [list(r) for r in sol.rho], atol=1e-12)
    assert payload["residual_wrench"] < 1e-8


def test_bench_orthoglide_json(capsys):
    assert main(["bench", "orthoglide", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    q0 = payload["points"]["Q0"]["0.0"]
    assert q0["rho"] == pytest.approx(1.0, abs=1e-9)
    assert q0["stiffness"] == pytest.approx(1.0, abs=1e-6)
    assert payload["critical_force"]["0.05"] is None


def test_bench_orthoglide_text_is_the_report(capsys):
    from kinetostat import OrthoglideSpec, reproduce_table1

    assert main(["bench", "orthoglide"]) == 0
    assert capsys.readouterr().out == reproduce_table1(OrthoglideSpec()).to_text()


def test_compensated_sweep_gives_the_table1_critical_point(tmp_path, capsys):
    # bench orthoglide's critical point at kv 0 is the sweep --compensate from Q2 along the diagonal
    from kinetostat import OrthoglideSpec, build_planar_orthoglide, reproduce_table1, serialize_model

    path = tmp_path / "kv0.json"
    path.write_text(serialize_model(build_planar_orthoglide(OrthoglideSpec())))
    argv = ["sweep", "--model", str(path), "--compensate", "--from=0.45,0.45", "--dir=1,1"]
    assert main(argv + ["--max-delta", "0.3", "--step", "0.01"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("# critical_delta=")
    delta, force = (float(field.split("=")[1]) for field in last[2:].split())
    expected = reproduce_table1(OrthoglideSpec()).critical[0.0]
    assert delta == pytest.approx(expected[0], rel=1e-12)
    assert force == pytest.approx(expected[1], rel=1e-12)


def test_bench_under_a_small_iteration_budget(capsys):
    # the critical force is a sweep, whose samples converge from their rigid
    # IK in two iterations: two give the default report, one loses the branch
    # at the first step past Q2 and names the chain and its residual
    assert main(["bench", "orthoglide"]) == 0
    report = capsys.readouterr()
    for budget in (["--max-iter", "2"], ["--seed", "3", "--max-iter", "2"]):
        assert main(["bench", "orthoglide", *budget]) == 0
        assert capsys.readouterr() == report
    assert main(["bench", "orthoglide", "--max-iter", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: equilibrium of chain 'x-leg' did not converge (best residual ")
    assert err.endswith(" (critical-point search lost the branch at delta = 0.01)\n")


def test_bench_under_one_iteration_says_the_pose_was_met(capsys):
    # one iteration from F = 0 reaches the pose but cannot pass the step
    # test, so the budget message says which test the solve missed
    assert main(["bench", "orthoglide", "--max-iter", "1"]) == 4
    err = capsys.readouterr().err
    reason = "(best residual 1.241e-16 met pose_tol, but the step did not settle in 1 iteration)"
    assert err == f"non-convergence: equilibrium of chain 'x-leg' did not converge {reason} (critical-point search lost the branch at delta = 0.01)\n"


def test_sweep_at_given_actuators_matches_library(model_path, capsys):
    from kinetostat import force_deflection, parse_model

    sweep = ["sweep", "--model", model_path, "--from", "0.1,0.2", "--dir", "1,0", "--max-delta", "0.02", "--step", "0.01"]
    assert main(sweep + ["--rho", "1.05,0.95"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:4]]
    model = parse_model(open(model_path).read())
    curve = force_deflection(model, [0.1, 0.2], [1.0, 0.0], 0.02, 0.01, rho_all=[1.05, 0.95])
    assert [float(f) for _, _, f in rows] == curve.force_along.tolist()


def test_invkin_stall_exits_4(model_path, capsys):
    # a wrench tolerance below the float floor: the line search stalls
    assert main(["invkin", "--model", model_path, "--pose", "0.1,0.1", "--eps-f", "1e-300"]) == 4
    assert "non-convergence: kinetostatic compensation stalled at |F| = " in capsys.readouterr().err


def test_usage_errors_exit_2(model_path, capsys):
    assert main(["equilibrium", "--model", model_path]) == 2  # missing --pose
    assert main(["equilibrium", "--model", model_path, "--pose", "a,b"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "pair",
    [
        ["--rho=1,1", "--compensate"],
        ["--compensate", "--rho=1,1"],
        ["--rho", "1,1", "--compensate"],
        ["--compensate", "--rho", "1,1"],
    ],
)
def test_sweep_takes_rho_or_compensate_not_both(model_path, capsys, pair):
    argv = ["sweep", "--model", model_path, "--from=0.1,0.1", "--dir=1,0", "--max-delta", "0.01", "--step", "0.005"]
    assert main(argv + pair) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize("option", ["--max-iter", "--tol", "--seed", "--pose", "--rho"])
def test_an_option_given_a_double_dash_is_a_usage_error(model_path, capsys, option):
    # argparse drops "--" from "--max-iter=--" and leaves the option an empty list
    argv = ["equilibrium", "--model", model_path, "--pose=0,0", "--rho=1,1", f"{option}=--"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {option} needs a value\n"


def test_model_errors_exit_3(model_path, tmp_path, capsys):
    assert main(["equilibrium", "--model", str(tmp_path / "missing.json"), "--pose", "0,0"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["equilibrium", "--model", str(bad), "--pose", "0,0"]) == 3
    # unreachable pose surfaces as a model/input problem
    assert main(["equilibrium", "--model", model_path, "--pose", "0,1.5"]) == 3
    err = capsys.readouterr().err
    assert "closest distance" in err
    # a negative seed is rejected by the solver options, not by numpy
    assert main(["equilibrium", "--model", model_path, "--pose", "0.1,0.1", "--seed", "-1"]) == 3
    assert "seed" in capsys.readouterr().err
    sweep = ["sweep", "--model", model_path, "--from", "0,0", "--max-delta", "0.01", "--step", "0.005"]
    assert main(sweep + ["--dir", "0,0"]) == 3
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code",
    [
        (["equilibrium", "--pose", "nan,0"], 2),
        (["stiffness", "--pose", "0,0", "--rho", "1,inf"], 2),
        (["sweep", "--from", "0,0", "--dir", "nan,1", "--max-delta", "0.01", "--step", "0.005"], 2),
        (["sweep", "--from", "0,0", "--dir", "0,1", "--max-delta", "inf", "--step", "0.005"], 3),
        (["equilibrium", "--pose", "0,0", "--tol", "nan"], 3),
        (["invkin", "--pose", "0.1,0.2", "--eps-f", "inf"], 3),
        (["map", "--grid", "2", "--eps-f", "nan"], 3),
        (["sweep", "--from", "0,0", "--dir", "0,1", "--max-delta", "1e300", "--step", "1e-300"], 3),
    ],
)
def test_non_finite_numbers_named(model_path, capsys, command, code):
    assert main(command + ["--model", model_path]) == code
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["map", "--grid", "2"], ["bench", "orthoglide"]])
def test_threads_option_rejected(model_path, command):
    # both commands run serially and take no thread count
    args = command + (["--model", model_path] if command[0] == "map" else [])
    assert main(args + ["--threads", "2"]) == 2


@pytest.mark.parametrize(
    "command",
    [["map", "--grid", "2"], ["sweep", "--from", "0,0", "--dir", "1,0", "--max-delta", "0.1", "--step", "0.05"]],
)
def test_json_rejected_where_only_csv_is_written(model_path, capsys, command):
    assert main(command + ["--model", model_path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--json" in captured.err


@pytest.mark.parametrize("reach, distance", [(1e300, "inf"), (1e150, "1.000e+150")])
def test_overflowing_chain_reach_is_unreachable(model_path, tmp_path, capsys, reach, distance):
    # the y-leg's end lies far away: at 1e300 its distance overflows, at
    # 1e150 the distance is finite but the Levenberg-Marquardt damping grows
    # past the float range; either way the pose is named unreachable instead
    # of escaping as an OverflowError, and no numpy warning reaches stderr
    # ahead of the message
    doc = json.loads(open(model_path).read())
    doc["chains"][1]["tool"]["translation"] = [0.0, reach, 0.0]
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["equilibrium", "--model", str(far), "--pose", "0,0"]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"model error: pose unreachable for chain 'y-leg', closest distance {distance}\n"


def test_far_pose_with_given_rho_warns_nothing(model_path, capsys):
    # with --rho the solve starts from the best-effort IK, and its iterates
    # grow past 1e154; the step norm the stop test reads is taken only once
    # the residual is within tolerance, so no overflow warning comes first
    argv = ["equilibrium", "--model", model_path, "--pose=-1.32e185,4.07e16", "--rho=2.276,-9e15"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 5
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith("singularity: chain 'x-leg' is singular")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["equilibrium", "--pose=1e200,0", "--rho=1,1"], 5),
        (["sweep", "--from=0,0", "--dir=1,0", "--max-delta=1e200", "--step=1e198"], 0),
    ],
)
def test_overflowing_norms_warn_nothing(model_path, capsys, argv, code):
    # the iterates of these solves grow past 1e154, where the residual norm
    # overflows; the solve ends singular, or the sweep truncated, and no
    # numpy overflow warning comes ahead of that outcome
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], "--model", model_path, *argv[1:]]) == code
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    if code == 0:
        assert captured.out.endswith("# critical=unknown\n# truncated=true\n")
        assert captured.err == (
            "sweep: truncated at delta=1e+198: singularity: chain 'y-leg' is singular at the prescribed pose "
            "(condition inf)\n"
        )
    else:
        assert captured.err.startswith("singularity: chain 'y-leg' is singular")


def test_out_creates_missing_directories(model_path, tmp_path):
    out = tmp_path / "results" / "nested" / "eq.txt"
    assert main(["equilibrium", "--model", model_path, "--pose", "0,0", "--out", str(out)]) == 0
    assert out.read_text().startswith("F_sigma: ")


def test_unwritable_out_exits_3(model_path, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "eq.txt"
    assert main(["equilibrium", "--model", model_path, "--pose", "0,0", "--out", str(out)]) == 3
    assert "cannot write" in capsys.readouterr().err


def test_nonconvergence_exits_4(model_path, capsys):
    # reachable pose, but the budget is starved via --max-iter
    code = main(
        ["equilibrium", "--model", model_path, "--pose", "0.4,0.3", "--rho", "1.3,1.3", "--max-iter", "1"]
    )
    assert code == 4
    assert "non-convergence" in capsys.readouterr().err


def test_every_error_class_has_the_exit_code_the_docstring_names(monkeypatch, capsys):
    # the module docstring lists each exit code with what it means; each
    # class's label names the outcome its exit code stands for
    import re

    import kinetostat.cli as cli
    import kinetostat.errors as errors

    text = " ".join(cli.__doc__.split()).split("Exit codes: ")[1].split(".")[0]
    documented = {int(code): set(re.split(r"[ /]", meaning)) for code, meaning in re.findall(r"(\d) ([^,]+)", text)}
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.KinetostatError)]
    assert len(classes) == 7
    for cls in classes:
        assert set(cls.label.split()) <= documented[cls.exit_code], cls

        def command(*args, cls=cls):
            raise cls.__new__(cls, "something failed")  # without the constructor, whose figures differ by class

        monkeypatch.setattr(cli, "reproduce_table1", command)
        assert main(["bench", "orthoglide"]) == cls.exit_code
        assert capsys.readouterr().err == f"{cls.label}: something failed\n"
    assert {(cls.label, cls.exit_code) for cls in classes} == {
        ("error", 3), ("model error", 3), ("non-convergence", 4), ("singularity", 5)
    }


def test_describe_names_the_chain_only_where_the_message_does_not():
    from kinetostat import ModelError, NonConvergenceError

    err = NonConvergenceError("equilibrium did not converge", residual=1.0)
    assert err.describe() == "non-convergence: equilibrium did not converge"
    err.chain_index = 2
    assert err.describe() == "non-convergence on chain 2: equilibrium did not converge"
    err = ModelError("pose unreachable for chain 'x-leg'")
    err.chain_index = 0
    assert err.describe() == "model error: pose unreachable for chain 'x-leg'"


def test_singularity_exits_5(toy_model_path, capsys):
    assert main(["equilibrium", "--model", toy_model_path, "--pose", "0.5,0", "--rho", "0.2"]) == 5
    assert "singular" in capsys.readouterr().err.lower()


def test_outputs_byte_identical_across_runs(model_path, tmp_path):
    args = [
        "sweep", "--model", model_path, "--from", "0.1,0.2", "--dir", "0.7,0.7",
        "--max-delta", "0.02", "--step", "0.001", "--seed", "3",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    stiff = ["stiffness", "--model", model_path, "--pose", "0.3,0.1", "--seed", "5", "--json"]
    assert main(stiff + ["--out", str(ja)]) == 0
    assert main(stiff + ["--out", str(jb)]) == 0
    assert ja.read_bytes() == jb.read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--from", "-0.1,0.2", "--dir", "-0.7,0.7", "--max-delta", "0.01", "--step", "0.005"],
        ["equilibrium", "--pose", "-0.1,-0.2", "--rho", "-0.1,0.2"],
    ],
)
def test_negative_comma_lists_accepted(model_path, tmp_path, command):
    attached = []
    for arg in command:
        if attached and attached[-1] in ("--from", "--dir", "--pose", "--rho"):
            attached[-1] += "=" + arg
        else:
            attached.append(arg)
    a = tmp_path / "separate.out"
    b = tmp_path / "attached.out"
    assert main(command + ["--model", model_path, "--out", str(a)]) == 0
    assert main(attached + ["--model", model_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_file_written(model_path, tmp_path):
    out = tmp_path / "k.json"
    assert main(["stiffness", "--model", model_path, "--pose", "0,0", "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "K_sigma" in payload


def test_non_finite_model_number_exits_3(model_path, tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(open(model_path).read().replace('"stiffness": 1.0', '"stiffness": NaN', 1))
    assert "NaN" in bad.read_text()
    assert main(["equilibrium", "--model", str(bad), "--pose", "0,0"]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe{}", "cannot read model file"), (b"[" * 200_000 + b"]" * 200_000, "syntax error")],
    ids=["not-utf8", "nested-200000-deep"],
)
def test_unreadable_model_document_exits_3(tmp_path, capsys, content, message):
    # a decode error and a recursion error from the JSON reader are named
    # model errors, not internal ones
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["equilibrium", "--model", str(bad), "--pose", "0,0"]) == 3
    assert message in capsys.readouterr().err


def _count_ik_calls(monkeypatch):
    import kinetostat.chain
    import kinetostat.equilibrium

    real = kinetostat.chain.chain_ik_best_effort
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    for module in (kinetostat.chain, kinetostat.equilibrium):
        monkeypatch.setattr(module, "chain_ik_best_effort", counted)
    return calls


@pytest.mark.parametrize("command", ["equilibrium", "stiffness"])
def test_rigid_ik_solved_once_per_chain(model_path, monkeypatch, capsys, command):
    calls = _count_ik_calls(monkeypatch)
    assert main([command, "--model", model_path, "--pose", "0.3,-0.2"]) == 0
    assert len(calls) == 2


def test_compensated_sweep_solves_rigid_ik_once_per_chain(model_path, monkeypatch, capsys):
    # the compensation's equilibria seed the first sample of the sweep
    calls = _count_ik_calls(monkeypatch)
    args = ["sweep", "--model", model_path, "--from", "0.3,0.2", "--dir", "1,1"]
    assert main(args + ["--max-delta", "0.02", "--step", "0.01", "--compensate"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 + 1
    assert sorted(calls) == ["x-leg", "y-leg"]


@pytest.mark.parametrize("command", ["equilibrium", "stiffness"])
@pytest.mark.parametrize("pose", ["0.3,-0.2", "0.45,0.45"])
def test_ik_actuators_match_explicit_rho(model_path, tmp_path, command, pose):
    # the IK states seeding the solves are exactly what a cold start solves again
    from kinetostat import inverse_kinematics_unloaded, parse_model

    model = parse_model(open(model_path).read())
    states = inverse_kinematics_unloaded(model, [float(v) for v in pose.split(",")])
    rho = ",".join(repr(float(s.rho[0])) for s in states)
    implied = tmp_path / "implied.json"
    explicit = tmp_path / "explicit.json"
    args = [command, "--model", model_path, "--pose", pose, "--json"]
    assert main(args + ["--out", str(implied)]) == 0
    assert main(args + ["--rho", rho, "--out", str(explicit)]) == 0
    assert implied.read_bytes() == explicit.read_bytes()


def test_a_failure_inside_a_chain_names_the_chain(tmp_path, capsys):
    # the Euler singularity of the second chain's start carries chain_index 1,
    # which its message does not name; messages that name their chain keep
    # their text (see the unreachable-pose test above)
    from test_chain import _upright_document

    path = tmp_path / "upright.json"
    path.write_text(json.dumps(_upright_document()))
    assert main(["equilibrium", "--model", str(path), "--pose", "0.1,0,0,0,0,0"]) == 3
    assert capsys.readouterr().err == "model error on chain 1: orientation parametrization singular (cos ry ~ 0)\n"


def _outcome(capsys, argv):
    code = main(argv)
    return (code, *capsys.readouterr())


def _count_parses(monkeypatch):
    real = kinetostat.cli.parse_model
    texts = []

    def counted(text):
        texts.append(text)
        return real(text)

    monkeypatch.setattr(kinetostat.cli, "parse_model", counted)
    return texts


def test_a_second_command_on_an_unchanged_document_parses_nothing(model_path, monkeypatch, capsys):
    kinetostat.cli._parsed.cache_clear()
    texts = _count_parses(monkeypatch)
    argv = ["sweep", "--model", model_path, "--from=0.1,0.1", "--dir=1,0", "--max-delta", "0.01", "--step", "0.005"]
    assert main(argv) == 0
    assert len(texts) == 1
    assert main(argv) == 0
    assert main(["stiffness", "--model", model_path, "--pose=0.1,0.1"]) == 0
    assert len(texts) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--pose=0.3,-0.2"],
        ["stiffness", "--pose=0.3,-0.2", "--json"],
        ["invkin", "--pose=0.3,0.3", "--eps-f", "1e-8"],
        ["invkin", "--pose=0.3,0.3", "--eps-f", "1e-8", "--json"],
        ["sweep", "--from=0.1,0.2", "--dir=1,1", "--max-delta", "0.02", "--step", "0.005"],
        ["sweep", "--from=0.3,0.2", "--dir=1,1", "--max-delta", "0.02", "--step", "0.005", "--compensate"],
        ["map", "--grid", "3"],
    ],
    ids=["equilibrium", "stiffness", "invkin", "invkin-json", "sweep", "sweep-compensate", "map"],
)
def test_a_reused_model_prints_a_fresh_parse_s_bytes(model_path, capsys, argv):
    # the second command reads the model and the per-model layouts the first one built
    argv = argv + ["--model", model_path]
    kinetostat.cli._parsed.cache_clear()
    fresh = _outcome(capsys, argv)
    assert fresh[0] == 0
    assert _outcome(capsys, argv) == fresh


def test_a_rewritten_document_is_parsed_again(model_path, tmp_path, capsys):
    # the same path with other text is another model: the cache keys on the text, not on the path
    from kinetostat.modelfile import serialize_model

    from conftest import stop_limit_model

    path = tmp_path / "model.json"
    argv = ["sweep", "--model", str(path), "--from=0.1,0.1", "--dir=1,0", "--max-delta", "0.02", "--step", "0.01"]
    path.write_text(open(model_path).read())
    linear = _outcome(capsys, argv)
    path.write_text(serialize_model(stop_limit_model()))
    stop_limit = _outcome(capsys, argv)
    kinetostat.cli._parsed.cache_clear()
    assert _outcome(capsys, argv) == stop_limit
    assert stop_limit != linear


def test_an_invalid_document_fails_the_same_way_every_time(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": "kinetostat/1", "task_dim": 4, "chains": []}))
    texts = _count_parses(monkeypatch)
    argv = ["equilibrium", "--model", str(path), "--pose=0,0"]
    first = _outcome(capsys, argv)
    assert first[0] == 3
    assert "task_dim" in first[2]
    assert _outcome(capsys, argv) == first
    assert len(texts) == 2


def test_failed_commands_leave_a_reused_model_as_parsed(model_path, capsys):
    # a non-convergence (exit 4) and a singularity (exit 5) on the document, then successful commands
    kinetostat.cli._parsed.cache_clear()
    model = ["--model", model_path]
    assert main(["invkin", "--pose=0.3,0.3", "--eps-f", "1e-8", "--max-iter", "1", *model]) == 4
    assert main(["equilibrium", "--pose=1e200,0", "--rho=1,1", *model]) == 5
    capsys.readouterr()
    argvs = [
        ["invkin", "--pose=0.3,0.3", "--eps-f", "1e-8", "--json", *model],
        ["sweep", "--from=0.3,0.3", "--dir=1,0", "--max-delta", "0.02", "--step", "0.01", *model],
    ]
    reused = [_outcome(capsys, argv) for argv in argvs]
    kinetostat.cli._parsed.cache_clear()
    assert [_outcome(capsys, argv) for argv in argvs] == reused
    assert [code for code, _, _ in reused] == [0, 0]
