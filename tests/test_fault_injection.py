"""Faults injected into the stack kernels reach every caller as a named outcome.

Each case fails the first row, the last row or every row of each call of
``_ik_stack``, ``_equilibrium_stack`` or ``_chain_responses``, and runs a
caller. A library call must raise the injected KinetostatError or return a
result that names it (a compliance map's ``reasons``, a curve's ``error``),
and may return a plain result only if it never ran the kernel. A CLI command
must exit with a named code, and a non-zero one must report the injected
error: never a bare numpy error and exit 1.
"""

from importlib import resources

import numpy as np
import pytest

from kinetostat import (
    ComplianceMap,
    ForceDeflectionCurve,
    KinetostatError,
    NonConvergenceError,
    OrthoglideSpec,
    OutOfWorkspaceError,
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

from conftest import DIAG, inject_errors, shipped_model

MODEL = str(resources.files("kinetostat").joinpath("models/orthoglide-planar.json"))

KERNELS = {
    "_ik_stack": lambda message: OutOfWorkspaceError(message, distance=np.nan),
    "_equilibrium_stack": lambda message: NonConvergenceError(message, residual=np.nan),
    "_chain_responses": SpringSofteningError,
}


def _at_rho(solve):
    """``solve(model, pose, rho)`` on the shipped model, rho a little off the rigid IK's."""
    model, pose = shipped_model(), [0.3, 0.2]
    return solve(model, pose, [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, pose)])


CALLERS = {
    "solve_inverse_kinetostatic": lambda: solve_inverse_kinetostatic(shipped_model(), [0.3, 0.3], 1e-8),
    "compliance_grid": lambda: compliance_grid(shipped_model(), 3),
    "reproduce_table1": lambda: reproduce_table1(OrthoglideSpec()),
    "force_deflection": lambda: force_deflection(shipped_model(), [0.1, 0.2], DIAG, 0.02, 0.005),
    "sensitivity_matrix": lambda: _at_rho(sensitivity_matrix),
    "manipulator_stiffness": lambda: _at_rho(manipulator_stiffness),
    "total_wrench": lambda: _at_rho(total_wrench),
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
        outcome = CALLERS[caller]()
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
