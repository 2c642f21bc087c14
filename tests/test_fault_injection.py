"""Faults injected into the stack kernels reach every caller as a named outcome.

Each case fails the first row, the last row or every row of each call of
``_ik_stack``, ``_equilibrium_stack``, ``_loaded_derivatives``,
``_chain_responses`` or ``_solve_stack``, and runs a caller. A library call
must raise the injected KinetostatError or return a result that names it (a
compliance map's ``reasons``, a curve's ``error``), and may return a plain
result only if it never ran the kernel. A CLI command must exit with a named
code, and a non-zero one must report the injected error: never a bare numpy
error and exit 1. When every chain fails, the first chain's error comes out.
"""

from importlib import resources

import numpy as np
import pytest

from kinetostat import (
    ComplianceMap,
    ForceDeflectionCurve,
    KinetostatError,
    ManipulatorModel,
    ModelError,
    NonConvergenceError,
    OrthoglideSpec,
    OutOfWorkspaceError,
    SingularityError,
    SpringSofteningError,
    compliance_grid,
    force_deflection,
    inverse_kinematics_unloaded,
    manipulator_stiffness,
    reproduce_table1,
    sensitivity_matrix,
    solve_inverse_kinetostatic,
    total_wrench,
)
from kinetostat.cli import main

from conftest import DIAG, inject_errors, shipped_model, stop_limit_model

MODEL = str(resources.files("kinetostat").joinpath("models/orthoglide-planar.json"))

KERNELS = {
    "_ik_stack": lambda message: OutOfWorkspaceError(message, distance=np.nan),
    "_equilibrium_stack": lambda message: NonConvergenceError(message, residual=np.nan),
    "_loaded_derivatives": ModelError,
    "_chain_responses": SpringSofteningError,
    "_solve_stack": SingularityError,
}


def _at_rho(solve, model):
    """``solve(model, pose, rho)``, rho a little off the rigid IK's."""
    pose = [0.3, 0.2]
    return solve(model, pose, [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, pose)])


# each caller runs on the model given, the shipped one unless a test says otherwise
CALLERS = {
    "solve_inverse_kinetostatic": lambda model: solve_inverse_kinetostatic(model, [0.3, 0.3], 1e-8),
    "compliance_grid": lambda model: compliance_grid(model, 3),
    "reproduce_table1": lambda model: reproduce_table1(OrthoglideSpec()),
    "force_deflection": lambda model: force_deflection(model, [0.1, 0.2], DIAG, 0.02, 0.005),
    "sensitivity_matrix": lambda model: _at_rho(sensitivity_matrix, model),
    "manipulator_stiffness": lambda model: _at_rho(manipulator_stiffness, model),
    "total_wrench": lambda model: _at_rho(total_wrench, model),
}
COMMANDS = [
    ["invkin", "--pose", "0.3,0.3", "--eps-f", "1e-8"],
    ["stiffness", "--pose", "0.2,0.3", "--json"],
    ["equilibrium", "--pose", "0.1,0.2"],
    ["sweep", "--from=0.1,0.2", "--dir=1,1", "--max-delta", "0.02", "--step", "0.005"],
    ["map", "--grid", "3"],
]


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("where", ["first", "last", "every"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_an_injected_fault_ends_in_a_named_outcome(monkeypatch, kernel, where, caller):
    failed = inject_errors(monkeypatch, kernel, where, KERNELS[kernel])
    try:
        outcome = CALLERS[caller](shipped_model())
    except KinetostatError as err:  # a bare numpy error fails the test here
        assert str(err).startswith("injected into row ")
        return
    if isinstance(outcome, ComplianceMap):  # the failed cells name the injected error
        reasons = list(outcome.reasons.values())
        assert reasons and all("injected into row " in r for r in reasons)
        assert not outcome.ok.any() if where == "every" else not outcome.ok.all()
        assert len(reasons) == (~outcome.ok).sum()
    elif isinstance(outcome, ForceDeflectionCurve):  # the curve ends at the injected sample
        assert (outcome.error is not None and str(outcome.error).startswith("injected into row ")) == bool(failed)
        if kernel == "_solve_stack" and where == "last":  # its rows are a round's live rows: the curve ends early
            assert len(outcome.deltas) < 5
        else:
            assert len(outcome.deltas) == ({"first": 0, "last": 4, "every": 0}[where] if failed else 5)
    else:
        assert not failed


@pytest.mark.parametrize("argv", COMMANDS + [["bench", "orthoglide"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["first", "last", "every"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_an_injected_fault_never_exits_1(monkeypatch, capsys, kernel, where, argv):
    inject_errors(monkeypatch, kernel, where, KERNELS[kernel])
    code = main([argv[0], *(["--model", MODEL] if argv in COMMANDS else []), *argv[1:]])
    err = capsys.readouterr().err
    assert code in (0, 3, 4, 5), err
    assert code == 0 or "injected into row " in err


@pytest.mark.parametrize("caller", ["solve_inverse_kinetostatic", "force_deflection", "sensitivity_matrix",
                                    "manipulator_stiffness", "total_wrench"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_the_first_chain_that_fails_a_row_names_the_error(monkeypatch, kernel, caller):
    # the legs of two models differ in their spring branch, so each runs its own stack
    mixed = ManipulatorModel(task_dim=2, chains=[shipped_model().chains[0], stop_limit_model().chains[1]])
    assert mixed.chains[0]._structure != mixed.chains[1]._structure
    failed = inject_errors(monkeypatch, kernel, "every", KERNELS[kernel])
    try:
        outcome = CALLERS[caller](mixed)
    except KinetostatError as err:
        outcome = err
    err = outcome.error if isinstance(outcome, ForceDeflectionCurve) else outcome
    if failed:
        assert isinstance(err, KinetostatError) and str(err).startswith("injected into row ")
        assert err.chain_index == 0 and "'x-leg'" in str(err)
    else:  # the caller never ran the kernel
        assert not isinstance(err, KinetostatError)
