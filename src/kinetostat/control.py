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
       the chain stiffness and H_.rho = d(J_.^T F)/drho, from the one
       assembly (stiffness.py) that serves a single equilibrium and a stack
    5. rho <- rho - S^-1 (F - F_target), halving the step while the
       residual grows, then back to 2.

Step 4 linearises the equilibria instead of differencing wrench solves, so
each Newton step costs the wrench evaluations of its line search alone; the
load Hessians in it are blocks of the stiffness's closed-form Hessian of
J^T F, from the same one forward pass per chain. The mixed block H_.rho is
zero when the actuators sit at the chain base, but not when a joint before
an actuator turns its axis. Steps 4 and 5 solve each system once, with the
inverse that clears its condition bound (``equilibrium._solve``).

The pose t never changes, so the rigid IK of step 1 is solved once and its
chain states start every equilibrium solve of the loop, in place of the cold
start that would re-solve the same IK each time.

A compliance grid and table 1 run steps 2-5 in rounds over stacks of their poses
still above eps_f, with each pose's accepted steps and |F| counted as the loop
counts them; a pose that needs a branch the stacks leave out is solved by the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainState, ManipulatorModel, _each_chain, _fused, _norms, _task_vector, inverse_kinematics_unloaded
from .equilibrium import EquilibriumResult, SolverOptions, _equilibrium_stack, _solve, _solve_stack, split_rho, total_wrench
from .errors import ControlSingularityError, ModelError, NonConvergenceError
from .stiffness import _chain_block, _chain_responses

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
    full_rank: bool = True
    history: list[float] = field(default_factory=list)
    equilibria: list[EquilibriumResult] = field(default_factory=list)


def _sensitivity(manipulator: ManipulatorModel, equilibria: list[EquilibriumResult]) -> np.ndarray:
    """dF_total/drho at solved chain equilibria: each chain's columns from
    its stiffness block system."""
    return np.hstack(_each_chain(manipulator, _chain_block, equilibria, [True] * len(equilibria)))


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
    F_target = np.zeros(d) if f_ext is None else _task_vector(f_ext, d, "prescribed wrench")
    seeds = inverse_kinematics_unloaded(manipulator, target)
    return _compensate(manipulator, target, seeds, F_target, eps_f, opts)


def _compensate(manipulator, target, seeds, F_target, eps_f, opts) -> KinetostaticSolution:
    """Steps 2-5 of the loop at a checked target, from the rigid IK states
    ``seeds`` of step 1; a caller that solved the IK itself starts here."""
    rho = np.concatenate([s.rho for s in seeds])
    F, equilibria = total_wrench(manipulator, target, rho, opts, starts=seeds)
    err = F - F_target
    err_norm = float(np.linalg.norm(err))
    history = [err_norm]
    full_rank = True

    for _ in range(_MAX_OUTER):
        if err_norm < eps_f:
            break
        S = _sensitivity(manipulator, equilibria)
        if S.shape[0] == S.shape[1]:
            step = _solve(S, err, ControlSingularityError, "force/actuator sensitivity is singular")
        else:
            step, _, rank, _ = np.linalg.lstsq(S, err, rcond=None)
            full_rank = rank == min(S.shape)

        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            rho_try = rho - lam * step
            F_try, eqs_try = total_wrench(manipulator, target, rho_try, opts, starts=seeds)
            err_try = F_try - F_target
            try_norm = float(np.linalg.norm(err_try))
            if try_norm < err_norm:
                rho, err, err_norm, equilibria = rho_try, err_try, try_norm, eqs_try
                break
            lam *= 0.5
        else:  # no halving lowered the residual
            break
        history.append(err_norm)

    if err_norm < eps_f:
        return KinetostaticSolution(
            rho=split_rho(manipulator, rho),
            residual_wrench=err_norm,
            outer_iterations=len(history) - 1,
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


def _compensate_stack(manipulator, targets, seeds, eps_f, opts):
    """``_compensate`` of targets (N, d) at zero wrench from rigid IK joint vectors
    ``seeds`` (N, n_elements) per chain, in rounds. The equilibria and the sensitivity
    of all chains that share a structure run as one stack (``chain._fused``). Returns
    per chain the equilibria's joint vectors and wrenches, the rows finished here (the
    others need the loop), and per row its accepted Newton steps and |F|, a finished
    row's ``outer_iterations`` and ``residual_wrench``."""
    chains, opts = manipulator.chains, opts or SolverOptions()
    ends = np.cumsum([chain.n_actuated for chain in chains])[:-1]

    def wrench(rows, rho):
        """Per chain the equilibria at rho, the rows all chains solved, and F_sigma (= err, as F_target = 0)."""
        per_chain = [[targets[rows]] * len(chains), [seed[rows] for seed in seeds], np.split(rho, ends, axis=1)]
        F, coords, solved = (list(a) for a in zip(*_fused(chains, _equilibrium_stack, per_chain, opts)))
        return coords, F, np.all(solved, axis=0), np.sum(F, axis=0)

    rho = np.concatenate([seed[:, chain.actuated_elements] for chain, seed in zip(chains, seeds)], axis=1)
    coords, F, live, err = wrench(np.arange(len(targets)), rho)
    err_norm, outer = _norms(err), np.zeros(len(targets), dtype=int)
    live &= np.isfinite(err_norm)
    for _ in range(_MAX_OUTER):
        rows = np.flatnonzero(live & ~(err_norm < eps_f))
        if not rows.size:
            break
        equilibria = [[x[rows] for x in coords], [f[rows] for f in F]]
        S = np.concatenate(_fused(chains, _chain_responses, equilibria, True), axis=2)
        if S.shape[1] != S.shape[2]:  # the least-squares step
            live[rows] = False
            break
        step = _solve_stack(S, err[rows, :, None])[..., 0]
        live[rows] = np.isfinite(step).all(axis=1)
        rows, rho_try = rows[live[rows]], (rho[rows] - step)[live[rows]]
        coords_try, F_try, solved, err_try = wrench(rows, rho_try)
        try_norm = _norms(err_try)
        accepted = solved & (try_norm < err_norm[rows])
        live[rows], rows = accepted, rows[accepted]
        outer[rows] += 1
        rho[rows], err[rows], err_norm[rows] = rho_try[accepted], err_try[accepted], try_norm[accepted]
        for a, a_try in zip(coords + F, coords_try + F_try):
            a[rows] = a_try[accepted]
    return coords, F, live & (err_norm < eps_f), outer, err_norm
