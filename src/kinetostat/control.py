"""Inverse kinetostatics: actuator commands that cancel preload deflections.

A preloaded manipulator parked at the kinematic actuator values misses its
target pose, because the internal springs drag the platform away. The
compensation loop below starts from the rigid inverse kinematics, then
Newton-iterates on the actuated coordinates until the total wrench needed
to hold the target vanishes (or matches a prescribed external wrench):

    1. rho <- rigid inverse kinematics at t
    2. F   <- total holding wrench at (t, rho)
    3. stop once |F - F_target| < eps_f
    4. S   <- dF/drho at the equilibria of step 2: per chain, the top
       task-size rows of A^-1 (-[J_rho + J_th kf H_thrho ;
       H_qrho + H_qth kf H_thrho]), with A, kf and the load Hessians of
       the chain stiffness (stiffness.py) and H_.rho = d(J_.^T F)/drho
    5. rho <- rho - S^-1 (F - F_target), halving the step while the
       residual grows, then back to 2.

Step 4 linearises the equilibria instead of differencing wrench solves, so
each Newton step costs the wrench evaluations of its line search alone; the
load Hessians in it are blocks of the stiffness's closed-form Hessian of
J^T F, from the same one forward pass per chain. The mixed block H_.rho is
zero when the actuators sit at the chain base, but not when a joint before
an actuator turns its axis.

The pose t never changes, so the rigid IK of step 1 is solved once and its
chain states start every equilibrium solve of the loop, in place of the cold
start that would re-solve the same IK each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainState, ManipulatorModel, inverse_kinematics_unloaded
from .equilibrium import EquilibriumResult, SolverOptions, _check_condition, split_rho, total_wrench
from .errors import ControlSingularityError, ModelError, NonConvergenceError, SingularityError
from .stiffness import _chain_sensitivity

_MAX_OUTER = 30
_MAX_HALVINGS = 8


@dataclass
class KinetostaticSolution:
    """Compensated actuator coordinates and the loop diagnostics.

    ``equilibria`` are the chain equilibria of the last accepted wrench
    evaluation, i.e. at the returned rho.
    """

    rho: list[np.ndarray]
    residual_wrench: float
    outer_iterations: int
    S_F_rho: np.ndarray | None
    full_rank: bool = True
    history: list[float] = field(default_factory=list)
    equilibria: list[EquilibriumResult] = field(default_factory=list)


def _sensitivity(manipulator: ManipulatorModel, equilibria: list[EquilibriumResult]) -> np.ndarray:
    """dF_total/drho at solved chain equilibria: each chain's columns from
    its stiffness block system."""
    columns = []
    for i, (chain, eq) in enumerate(zip(manipulator.chains, equilibria)):
        try:
            columns.append(_chain_sensitivity(chain, eq))
        except SingularityError as err:
            err.chain_index = i
            raise
    return np.hstack(columns)


def sensitivity_matrix(
    manipulator: ManipulatorModel,
    t,
    rho_all,
    opts: SolverOptions | None = None,
    *,
    starts: list[ChainState] | None = None,
) -> np.ndarray:
    """dF_total/drho at (t, rho), one column per actuator.

    Solves every chain once, as ``total_wrench`` with ``starts`` does, and
    differentiates the equilibria through their stiffness block systems.
    """
    _, equilibria = total_wrench(manipulator, t, rho_all, opts, starts=starts)
    return _sensitivity(manipulator, equilibria)


def solve_inverse_kinetostatic(
    manipulator: ManipulatorModel,
    t,
    eps_f: float,
    opts: SolverOptions | None = None,
    *,
    f_ext=None,
) -> KinetostaticSolution:
    """Actuator coordinates making pose t an equilibrium under f_ext (default zero).

    Non-square or rank-deficient sensitivity matrices fall back to the
    least-squares pseudo-solution and flag the solution; a square matrix
    that is numerically singular raises ControlSingularityError.
    """
    if not 0.0 < eps_f < math.inf:
        raise ModelError("wrench tolerance eps_f must be positive and finite")
    target = manipulator.pose_array(t)
    d = manipulator.task_dim
    F_target = np.zeros(d) if f_ext is None else np.asarray(f_ext, dtype=float).ravel()
    if F_target.size != d:
        raise ModelError("prescribed wrench does not match the task dimension")

    seeds = inverse_kinematics_unloaded(manipulator, target)
    rho = np.concatenate([s.rho for s in seeds])
    F, equilibria = total_wrench(manipulator, target, rho, opts, starts=seeds)
    err = F - F_target
    err_norm = float(np.linalg.norm(err))
    history = [err_norm]
    S = None
    full_rank = True

    for _ in range(_MAX_OUTER):
        if err_norm < eps_f:
            break
        S = _sensitivity(manipulator, equilibria)
        if S.shape[0] == S.shape[1]:
            _check_condition(S, ControlSingularityError, "force/actuator sensitivity is singular")
            step = np.linalg.solve(S, err)
        else:
            step, _, rank, _ = np.linalg.lstsq(S, err, rcond=None)
            full_rank = rank == min(S.shape)

        lam = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            rho_try = rho - lam * step
            F_try, eqs_try = total_wrench(manipulator, target, rho_try, opts, starts=seeds)
            err_try = F_try - F_target
            try_norm = float(np.linalg.norm(err_try))
            if try_norm < err_norm:
                rho, err, err_norm, equilibria = rho_try, err_try, try_norm, eqs_try
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        history.append(err_norm)

    if err_norm < eps_f:
        return KinetostaticSolution(
            rho=split_rho(manipulator, rho),
            residual_wrench=err_norm,
            outer_iterations=len(history) - 1,
            S_F_rho=S,
            full_rank=full_rank,
            history=history,
            equilibria=equilibria,
        )
    # a step is accepted only when it lowers the residual, so err_norm is the best seen
    raise NonConvergenceError(
        f"kinetostatic compensation stalled at |F| = {err_norm:.3e} (eps_f = {eps_f:.3e})",
        residual=err_norm,
        iterations=len(history) - 1,
    )
