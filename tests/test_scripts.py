"""Smoke tests of the experiment scripts at tiny sizes."""

import importlib.util
from pathlib import Path

from kinetostat import parse_model

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_lines(path):
    return path.read_text().splitlines()


def test_map_preload_comparison(tmp_path):
    out = tmp_path / "maps"
    assert _script("map_preload_comparison").main(["--grid", "2", "--out-dir", str(out)]) == 0
    for name in ("map_no_preload", "map_stop_limit"):
        parse_model((out / f"{name}.json").read_text())
        lines = _csv_lines(out / f"{name}.csv")
        assert lines[0] == "x,y,c_max,c_min,flag"
        assert len(lines) == 1 + 2 * 2
        assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_preload_cases(tmp_path):
    out = tmp_path / "sweeps"
    argv = ["--kv", "0.01", "--max-delta", "0.002", "--step", "0.001", "--out-dir", str(out)]
    assert _script("sweep_preload_cases").main(argv) == 0
    parse_model((out / "sweep_kv0.01.json").read_text())
    lines = _csv_lines(out / "sweep_kv0.01.csv")
    assert lines[0] == "delta,F_mag,F_dir"
    assert [line.split(",")[0] for line in lines[1:4]] == ["0", "0.001", "0.002"]
    assert lines[4:] == ["# critical=none"]


def test_script_exit_code_is_the_cli_exit_code(tmp_path, capsys):
    out = tmp_path / "sweeps"
    argv = ["--kv", "0.01", "--max-delta", "inf", "--step", "0.001", "--out-dir", str(out)]
    assert _script("sweep_preload_cases").main(argv) == 3
    assert "finite" in capsys.readouterr().err
