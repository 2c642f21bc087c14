import json
from importlib import resources

import numpy as np
import pytest

from kinetostat.cli import main


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


def test_map_csv(model_path, capsys):
    assert main(["map", "--model", model_path, "--grid", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,c_max,c_min,flag"
    assert len(lines) == 5
    assert all(line.endswith(",ok") for line in lines[1:])


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


def test_usage_errors_exit_2(model_path, capsys):
    assert main(["equilibrium", "--model", model_path]) == 2  # missing --pose
    assert main(["equilibrium", "--model", model_path, "--pose", "a,b"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_model_errors_exit_3(model_path, tmp_path, capsys):
    assert main(["equilibrium", "--model", str(tmp_path / "missing.json"), "--pose", "0,0"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["equilibrium", "--model", str(bad), "--pose", "0,0"]) == 3
    # unreachable pose surfaces as a model/input problem
    assert main(["equilibrium", "--model", model_path, "--pose", "0,1.5"]) == 3
    err = capsys.readouterr().err
    assert "closest distance" in err


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_chain_reach_is_unreachable(model_path, tmp_path, capsys):
    # the y-leg's end lies 1e300 away: its distance overflows, which names
    # the pose unreachable instead of escaping as an OverflowError
    doc = json.loads(open(model_path).read())
    doc["chains"][1]["tool"]["translation"] = [0.0, 1e300, 0.0]
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc))
    assert main(["equilibrium", "--model", str(far), "--pose", "0,0"]) == 3
    assert "closest distance inf" in capsys.readouterr().err


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
