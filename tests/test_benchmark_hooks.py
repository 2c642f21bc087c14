"""The benchmark's tracer still finds everything it reads in the library.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table
and its hooks read a few attributes of their arguments and results. A
traced name that goes missing is skipped, so the benchmark report silently
loses the per-layer keys that ``BENCHMARK.json`` declares. These checks
load the tracer read-only and fail first.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from importlib import resources
from pathlib import Path

import pytest

from kinetostat import (
    EquilibriumResult,
    KinetostaticSolution,
    inverse_kinematics_unloaded,
    partition,
    solve_chain_equilibrium,
)
from kinetostat.cli import main


ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, name", tracer.TRACED)
def test_traced_function_is_callable_in_its_home_module(module, name):
    assert callable(getattr(importlib.import_module(f"kinetostat.{module}"), name, None))


def test_attributes_the_hooks_read_exist(ortho_nopreload):
    # _solve_exit, _compensate_exit and _partition_exit read these
    assert {"iterations", "restarts"} <= {f.name for f in dataclasses.fields(EquilibriumResult)}
    assert "outer_iterations" in {f.name for f in dataclasses.fields(KinetostaticSolution)}
    chain = ortho_nopreload.chains[0]
    state = inverse_kinematics_unloaded(ortho_nopreload, [0.1, 0.2])[0]
    mask = partition(chain, state).active_mask
    assert mask.dtype == bool and mask.shape == (chain.n_preloaded,)
    # _solve_enter reads a positional start as the fifth argument
    assert list(inspect.signature(solve_chain_equilibrium).parameters)[4] == "start"


def test_traced_run_reports_every_declared_per_layer_key():
    model_path = str(resources.files("kinetostat").joinpath("models/orthoglide-planar.json"))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    with tracer.Tracer() as t:
        assert main(["equilibrium", "--model", model_path, "--pose", "0.1,0.2"]) == 0
    assert t.absent == []
    assert set(t.snapshot()) | {name for name, _ in tracer.TRACE_METRICS} == declared
    assert t.snapshot()["equilibrium.solve_chain_equilibrium.calls"] == 2


def test_traced_sweep_solves_every_left_sample_cold_through_the_traced_solve():
    # the sweep's samples run as stacks, which the tracer does not wrap, and a
    # stack leaves no sample to a scalar solve, so the tracer counts the sweep
    # and no chain solve, cold or warm
    model_path = str(resources.files("kinetostat").joinpath("models/orthoglide-planar.json"))
    argv = ["sweep", "--model", model_path, "--from=0.1,-0.2", "--dir=0.6,0.8", "--max-delta", "0.016", "--step", "0.004"]
    with tracer.Tracer() as t:
        assert main(argv) == 0
    t.fold(None, 1.0)
    snapshot = t.snapshot()
    assert snapshot["equilibrium.force_deflection.calls"] == 1
    assert snapshot["equilibrium.solve_chain_equilibrium.calls"] == 0
    assert snapshot["equilibrium.cold_solves"] == snapshot["equilibrium.warm_solves"] == 0
