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
       the chain stiffness and H_.rho = d(J_.^T F)/drho, from the block
       assembly of stiffness.py
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

Steps 2-5 are one loop, ``_compensate_stack``, which runs them as rounds over
a stack of poses, each pose with its own steps, halvings, counts and error.
A single pose (``solve_inverse_kinetostatic``) is a stack of one row; a
compliance grid and table 1 stack all their poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ManipulatorModel, _first_errors, _fused, _norms, _task_vector, inverse_kinematics_unloaded
from .equilibrium import EquilibriumResult, SolverOptions, _equilibria, _equilibrium_stack, _results, _solve_stack
from .errors import ControlSingularityError, ModelError, NonConvergenceError
from .stiffness import _chain_responses, _responses

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


def sensitivity_matrix(
    manipulator: ManipulatorModel,
    t,
    rho_all,
    opts: SolverOptions | None = None,
    *,
    starts: list | None = None,
) -> np.ndarray:
    """dF_total/drho at (t, rho), one column per actuator.

    Solves every chain once, as ``total_wrench`` with ``starts`` does, and
    differentiates the equilibria through their stiffness block systems.
    """
    equilibria = _equilibria(manipulator, t, rho_all, opts, starts)
    return np.concatenate(_responses(manipulator.chains, equilibria, True), axis=1)


def solve_inverse_kinetostatic(
    manipulator: ManipulatorModel,
    t,
    eps_f: float,
    opts: SolverOptions | None = None,
    *,
    f_ext=None,
) -> KinetostaticSolution:
    """Actuator coordinates making pose t an equilibrium under f_ext (default zero).

    The compensation loop of one row, from the rigid IK at t. Non-square or
    rank-deficient sensitivity matrices fall back to the least-squares
    pseudo-solution and flag the solution; a square matrix that is
    numerically singular raises ControlSingularityError.
    """
    if not 0.0 < eps_f < math.inf:
        raise ModelError("wrench tolerance eps_f must be positive and finite")
    target, chains = manipulator.pose_array(t), manipulator.chains
    F_target = 0.0 if f_ext is None else _task_vector(f_ext, manipulator.task_dim, "prescribed wrench")
    seeds = [c.element_coordinates(s)[None] for c, s in zip(chains, inverse_kinematics_unloaded(manipulator, target))]
    coords, F, stats, errors, outer, residual, history, full_rank = _compensate_stack(
        chains, target[None], seeds, [c._constants[None] for c in chains], eps_f, opts, F_target
    )
    if errors:
        raise errors[0]
    return KinetostaticSolution(
        rho=[x[0, chain.actuated_elements] for chain, x in zip(chains, coords)],
        residual_wrench=float(residual[0]),
        outer_iterations=int(outer[0]),
        full_rank=bool(full_rank[0]),
        history=history[0, : outer[0] + 1].tolist(),
        equilibria=_results(chains, F, coords, stats),
    )


@np.errstate(all="ignore")  # a row gone non-finite fails as the single-pose loop fails it, unwarned
def _compensate_stack(chains, targets, seeds, constants, eps_f, opts, F_target=0.0):
    """The compensation loop of targets (N, d) under the prescribed wrench ``F_target`` (d,) from rigid IK joint
    vectors ``seeds`` (N, n_elements) per chain, in rounds, each row with its ``constants`` per chain (of any model
    of these structures). The equilibria and the sensitivity of all chains that share a structure run as one stack
    (``chain._fused``), each halving of the line search as one more round. Returns per chain the equilibria's joint
    vectors, wrenches and ``_equilibrium_stack`` stats, by row the error the loop raises, and per row its accepted
    Newton steps, |F - F_target|, its history (N, _MAX_OUTER + 1) up to the accepted steps, and whether its last
    least-squares step had full rank (True without one)."""
    opts, n = opts or SolverOptions(), len(targets)
    ends, errors, live = np.cumsum([chain.n_actuated for chain in chains])[:-1], {}, np.full(n, True)

    def failed(rows, found):
        """Records ``found``, errors by position in ``rows``, and drops their rows; the mask of the others."""
        for i, err in found.items():
            errors[rows[i]], live[rows[i]] = err, False
        return live[rows]

    def wrench(rows, rho):
        """The equilibria at rho, per chain its joint vectors, then per chain its wrenches, then its stats;
        F_sigma - F_target; and the rows every chain solved."""
        per_chain = [[targets[rows]] * len(chains), [seed[rows] for seed in seeds], np.split(rho, ends, axis=1)]
        own = [c[rows] for c in constants]
        F, coords, stats, found = zip(*_fused(chains, _equilibrium_stack, per_chain, opts, constants=own))
        return [*coords, *F, *stats], np.sum(F, axis=0) - F_target, failed(rows, _first_errors(found))

    rho = np.concatenate([seed[:, chain.actuated_elements] for chain, seed in zip(chains, seeds)], axis=1)
    arrays, err, _ = wrench(np.arange(n), rho)  # the steps update these arrays in place, so coords, F and stats too
    coords, F, stats = (arrays[i * len(chains) : (i + 1) * len(chains)] for i in range(3))
    err_norm, outer, full_rank = _norms(err), np.zeros(n, dtype=int), np.full(n, True)
    history = np.full((n, _MAX_OUTER + 1), np.nan)
    history[:, 0] = err_norm
    for _ in range(_MAX_OUTER):
        rows = np.flatnonzero(live & ~(err_norm < eps_f))
        if not rows.size:
            break
        equilibria = [[x[rows] for x in coords], [f[rows] for f in F]]
        S, found = zip(*_fused(chains, _chain_responses, equilibria, True, constants=[c[rows] for c in constants]))
        kept = failed(rows, _first_errors(found))
        rows, S, found = rows[kept], np.concatenate(S, 2)[kept], {}
        if S.shape[1] == S.shape[2]:
            step = _solve_stack(S, err[rows, :, None], ControlSingularityError, "force/actuator sensitivity is singular", found)
            kept = failed(rows, found)
            rows, step = rows[kept], step[kept, :, 0]
        else:  # the least-squares step
            solutions = [np.linalg.lstsq(s, e, rcond=None) for s, e in zip(S, err[rows])]
            step = np.array([x for x, *_ in solutions]).reshape(len(S), S.shape[2])
            full_rank[rows] = [rank == min(S.shape[1:]) for _, _, rank, _ in solutions]
        search, lam = np.arange(rows.size), 1.0
        for _ in range(_MAX_HALVINGS):  # halving the step while the residual grows
            if not search.size:
                break
            at = rows[search]
            rho_try = rho[at] - lam * step[search]
            arrays_try, err_try, solved = wrench(at, rho_try)
            try_norm = _norms(err_try)
            accepted = solved & (try_norm < err_norm[at])
            search, lam, at = search[solved & ~accepted], lam * 0.5, at[accepted]
            outer[at] += 1
            rho[at], err[at], err_norm[at] = rho_try[accepted], err_try[accepted], try_norm[accepted]
            history[at, outer[at]] = err_norm[at]
            for a, a_try in zip(arrays, arrays_try):
                a[at] = a_try[accepted]
        live[rows[search]] = False  # no halving lowered the residual: the loop stalls
    for r in np.flatnonzero(~(err_norm < eps_f)).tolist():  # stalled, or out of outer iterations
        message = f"kinetostatic compensation stalled at |F| = {err_norm[r]:.3e} (eps_f = {eps_f:.3e})"
        errors.setdefault(r, NonConvergenceError(message, residual=float(err_norm[r]), iterations=int(outer[r])))
    return coords, F, stats, errors, outer, err_norm, history, full_rank
