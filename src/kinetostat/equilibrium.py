"""Loaded static equilibrium of chains held at a prescribed end pose.

The solve works in the dual formulation: the end pose is given, the wrench
needed to hold it there is the unknown. Each iteration linearizes the
geometry around the current regrouped configuration and solves the saddle
block system

    [ J_th K^-1 J_th^T   J_q ] [ F ]   [ eps ]
    [ J_q^T              0   ] [ q ] = [ 0   ]

followed by the spring update theta = K^-1 J_th^T F + theta_0, with
eps = t - g + J_q q + J_th (theta - theta_0). The preloaded active set is
regrouped every iteration; stagnating runs are restarted from a slightly
perturbed configuration drawn from a seeded generator.

A solve stops when the pose residual is within pose_tol and the step in
(F, x) is at most STEP_TOL of the iterate's size. A second exit stops it
one iteration early when no damping ran and the active set held over the
last two steps: with c = |dx_k|/|dx_k-1| < 1/2 in the free joints and
L = |dF_k|/|dx_k-1|, 1e4 (c + L)|dx_k|/(1 - c) must be at most that same
STEP_TOL share. c/(1 - c)|dx_k| bounds a contraction's error (Kelley 1995,
ch. 4), and L|dx_k| predicts the next force step.

The iterate x holds the joint values in chain element order, which the
forward pass reads; the start is validated once, a step writes q~ and
theta~ into a copy of x, and a ChainState is built only for the result,
on first read. Each iteration runs one forward pass on the regrouped new x:
its pose is the step's residual, its frames give the next iteration's
Jacobian columns. A sweep solves its samples as stacks of such vectors;
the scalar solve, which a stack reproduces, takes the samples it leaves.

The block matrix must stay well conditioned (condition number at most
1e12). A cheap upper bound is checked first: ||A||_F ||A^-1||_F is never
below the 2-norm condition number, so a finite bound under 1e10 clears A,
and the inverse that cleared it also gives the step. Only when the bound
fails to clear A is the condition number computed by SVD, compared with
the limit, and the system solved by LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ChainModel, ChainState, ManipulatorModel, _each_chain, _euler_stack, _gather, _map_rates, _norms
from .chain import _fused, _ik_stack, _row_constants, _stack_pass, _stack_state, _task_vector
from .chain import chain_ik_best_effort, regrouped_geometry
from .errors import ModelError, NonConvergenceError, SingularityError
from .springs import RegroupedState, _engaged_rows, regroup

STEP_TOL = 1e-10  # relative (F, x) step, or contraction error bound, accepted as stationary
COND_LIMIT = 1e12
# a Frobenius condition bound below this clears the block matrix without an SVD
_COND_BOUND_CLEAR = 1e-2 * COND_LIMIT
_OSCILLATION_LIMIT = 5
_DAMPING = 0.5
# relative size of the random disturbance a restart applies to the joints
_PERTURBATION = 1e-4
_CONTRACTION_SAFETY = 1e4  # margin of the contraction bound; the second exit's accuracy knob


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and reproducibility knobs, in model units (pose_tol ~ L)."""

    pose_tol: float = 1e-9
    max_iterations: int = 50
    max_restarts: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.pose_tol < math.inf:
            raise ModelError("solver tolerances must be positive and finite")
        if self.max_iterations < 1 or self.max_restarts < 0:
            raise ModelError("solver iteration budgets must be positive")
        if self.rng_seed < 0:
            raise ModelError(f"solver rng seed {self.rng_seed} must be non-negative")


@dataclass
class EquilibriumResult:
    """Converged loaded equilibrium of one chain."""

    F: np.ndarray
    residual: float
    iterations: int
    restarts: int
    regrouped: RegroupedState
    chain: ChainModel = field(repr=False, compare=False)

    @cached_property
    def state(self) -> ChainState:
        """The configuration ``regrouped.coords`` as a ChainState, built on first read."""
        return self.chain.state_of(self.regrouped.coords)


def _block_matrix(J_theta, J_q, k_tilde):
    """The step's saddle matrix of one iterate, or of a stack of them (leading axis)."""
    d, k = J_q.shape[-2:]
    A = np.zeros(J_q.shape[:-2] + (d + k, d + k))
    A[..., :d, :d] = (J_theta / k_tilde) @ J_theta.swapaxes(-1, -2)
    A[..., :d, d:] = J_q
    A[..., d:, :d] = J_q.swapaxes(-1, -2)
    return A


def _inverse(A: np.ndarray) -> np.ndarray:
    """A^-1, NaN where A is singular; a stack is inverted row by row only when a row is."""
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return np.array([_inverse(a) for a in A]) if A.ndim > 2 else np.full(A.shape, np.nan)


def _solve_stack(A: np.ndarray, b: np.ndarray, *_) -> np.ndarray:
    """``_solve`` of a stack (M, n, n): A^-1 b where the Frobenius bound clears a row, else NaN;
    ``_solve``'s error type and message, if passed, go unused."""
    A_inv = _inverse(A)
    flat, flat_inv = A.reshape(len(A), 1, -1), A_inv.reshape(len(A), 1, -1)
    bound_sq = (flat @ flat.swapaxes(1, 2)) * (flat_inv @ flat_inv.swapaxes(1, 2))
    return np.where(bound_sq < _COND_BOUND_CLEAR**2, A_inv @ b, np.nan)


def _solve(A: np.ndarray, b: np.ndarray, error: type, what: str) -> np.ndarray:
    """A^-1 b, raising ``error`` when cond(A) exceeds COND_LIMIT or is not finite.

    ||A||_F ||A^-1||_F is an upper bound of cond(A): when it is finite and
    well below the limit, A passes without the SVD of np.linalg.cond and
    the inverse computed for the bound solves the system. Otherwise the
    condition number is computed by SVD, and within the limit the system
    is solved by LU. The message is ``what`` followed by the condition
    number, which the error also carries.
    """
    try:
        A_inv = np.linalg.inv(A)
        bound_sq = float(np.vdot(A, A)) * float(np.vdot(A_inv, A_inv))
    except np.linalg.LinAlgError:
        bound_sq = math.inf
    if bound_sq < _COND_BOUND_CLEAR**2:  # False for NaN
        return A_inv @ b
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise error(f"{what} (condition {cond:.3e})", condition=cond)
    return np.linalg.solve(A, b)


def _contraction_bound(dF: np.ndarray, dx: np.ndarray, dx_prev: np.ndarray) -> float:
    """_CONTRACTION_SAFETY (c + L)|dx|/(1 - c), c = |dx|/|dx_prev|, L = |dF|/|dx_prev|; inf if c >= 1/2."""
    size, prev = math.sqrt(dx @ dx), math.sqrt(dx_prev @ dx_prev)
    if not size < 0.5 * prev:
        return math.inf
    return _CONTRACTION_SAFETY * (size + math.sqrt(dF @ dF)) * size / (prev - size)


def _actuators(chain: ChainModel, rho) -> np.ndarray:
    """rho as a finite array of the chain's actuator count, or a ModelError."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho.shape != (chain.n_actuated,):
        raise ModelError(f"rho of shape {rho.shape} does not match {chain.n_actuated} actuators")
    if not np.isfinite(rho).all():
        raise ModelError(f"rho {rho.tolist()} is not finite")
    return rho


def _start_vector(chain: ChainModel, start) -> np.ndarray:
    """A new joint vector in chain element order from a ChainState or such a vector, or a ModelError."""
    x = chain.element_coordinates(start) if isinstance(start, ChainState) else np.array(start, dtype=float)
    if x.shape != (len(chain.elements),):
        raise ModelError(f"start of shape {x.shape} does not match {len(chain.elements)} chain elements")
    return x


# a pose or rho near the float range overflows the residual and step norms
# (past ~1e154); the solve then ends as singular or unconverged, unwarned
@np.errstate(over="ignore")
def solve_chain_equilibrium(
    chain: ChainModel,
    t,
    rho,
    opts: SolverOptions | None = None,
    start: ChainState | np.ndarray | None = None,
) -> EquilibriumResult:
    """Wrench and configuration holding one chain at pose t with actuators at rho.

    The iteration is warm-started from ``start`` when given, a ChainState
    or a joint vector in chain element order (such as a result's
    ``regrouped.coords``), otherwise from the rigid inverse kinematics at
    t. The prescribed rho replaces the start's actuator values.
    Raises SingularityError when the block matrix degenerates (condition
    number beyond 1e12) and NonConvergenceError once the restart budget is
    exhausted.
    """
    opts = opts or SolverOptions()
    target = _task_vector(t, chain.task_dim, "pose")
    rho = _actuators(chain, rho)

    if start is None:
        # nearest unloaded configuration, virtual springs at rest; best effort,
        # as part of the task space is reachable only through elastic deflection
        start, _ = chain_ik_best_effort(chain, target)
    x = _start_vector(chain, start)
    x[chain.actuated_elements] = rho
    # the unknowns in perfect, preloaded, virtual order, for norms and restarts
    free = chain.unknown_elements

    d = chain.task_dim
    singular = f"chain {chain.name!r} is singular at the prescribed pose"
    best_residual = np.inf
    iterations = 0

    for restarts in range(opts.max_restarts + 1):
        if restarts:  # slight random disturbance of the configuration, actuators stay put
            if restarts == 1:  # the generator is built on the first restart, the only place that draws
                rng = np.random.default_rng(opts.rng_seed)
            v = x[free]
            x[free] = v + rng.uniform(-1.0, 1.0, v.shape) * _PERTURBATION * np.maximum(1.0, np.abs(v))
        reg = regroup(chain, x)
        g, columns = regrouped_geometry(chain, reg)
        F = np.zeros(d)
        prev_mask = None
        dx_prev = None
        oscillating = 0
        for _ in range(opts.max_iterations):
            if prev_mask is not None and (reg.active_mask != prev_mask).any():
                oscillating += 1
            else:
                oscillating = 0
            prev_mask = reg.active_mask

            J_theta, J_q = columns()
            A = _block_matrix(J_theta, J_q, reg.k_tilde)
            eps = target - g + J_q @ reg.q_tilde + J_theta @ (reg.theta_tilde - reg.theta_tilde_0)
            rhs = np.zeros(len(A))
            rhs[:d] = eps
            sol = _solve(A, rhs, SingularityError, singular)
            F_new = sol[:d]
            q_new = sol[d:]
            th_new = (J_theta.T @ F_new) / reg.k_tilde + reg.theta_tilde_0
            if oscillating > _OSCILLATION_LIMIT:
                q_new = reg.q_tilde + _DAMPING * (q_new - reg.q_tilde)
                th_new = reg.theta_tilde + _DAMPING * (th_new - reg.theta_tilde)

            x_new = x.copy()
            x_new[reg.q_elements] = q_new
            x_new[reg.theta_elements] = th_new
            iterations += 1
            step = np.concatenate([F_new - F, x_new[free] - x[free]])
            x = x_new
            F = F_new
            reg = regroup(chain, x)
            g, columns = regrouped_geometry(chain, reg)
            r = target - g
            residual = math.sqrt(r @ r)  # np.linalg.norm of a contiguous vector, to the bit
            best_residual = min(best_residual, residual)
            if residual <= opts.pose_tol:
                iterate = np.concatenate([F, x[free]])
                tol = STEP_TOL * max(1.0, math.sqrt(iterate @ iterate))
                if math.sqrt(step @ step) <= tol or (
                    dx_prev is not None and oscillating == 0 and np.array_equal(reg.active_mask, prev_mask)
                    and _contraction_bound(step[:d], step[d:], dx_prev) <= tol
                ):
                    return EquilibriumResult(
                        F=F, residual=residual, iterations=iterations, restarts=restarts, regrouped=reg, chain=chain
                    )
            dx_prev = step[d:]
    reason = f"best residual {best_residual:.3e}"
    if best_residual <= opts.pose_tol:  # the pose test passed, the step test never did
        n = opts.max_iterations
        reason += f" met pose_tol, but the step did not settle in {n} iteration{'s' * (n != 1)}"
    raise NonConvergenceError(
        f"equilibrium of chain {chain.name!r} did not converge ({reason})",
        residual=best_residual,
        iterations=iterations,
        restarts=opts.max_restarts,
    )


def _equilibrium_stack(
    chain: ChainModel, targets: np.ndarray, x: np.ndarray, rho: np.ndarray, opts: SolverOptions, constants=None
):
    """``solve_chain_equilibrium`` of M rows in lockstep (targets (M, d), starts x (M, n_elements) updated in
    place, actuators rho, by row or for all), each with its own mask, oscillation count and stop tests, so bit
    for bit; ``constants`` as in ``_stack_pass``. A row that stops is written out once and dropped from every
    working array. Returns the wrenches, x and the rows converged here; the others, at the F and x they stopped
    at, need a branch of the scalar solve (damping, ``_solve``'s SVD, a singular dim-6 E, a non-finite step)."""
    m, d = targets.shape
    x[:, chain.actuated_elements] = rho
    free, springs, preloaded = chain.unknown_elements, chain.preload_springs, chain.preloaded_elements
    wrenches, done, budget = np.zeros((m, d)), np.zeros(m, dtype=bool), opts.max_iterations
    rows, xs, F, mask = np.arange(m), x, np.zeros((m, d)), _engaged_rows(springs, x[:, preloaded])
    prev_mask, oscillating = mask, np.zeros(m, dtype=int)
    constants = _row_constants([chain], [m]) if constants is None else constants
    pose, cols = _stack_pass(chain, x, False, constants)[:2]
    dx_prev = np.full((m, free.size), np.nan)  # no contraction bound before a second step
    while rows.size:
        budget -= 1
        oscillating = np.where((mask != prev_mask).any(axis=1), oscillating + 1, 0)
        prev_mask = mask
        J = _map_rates(cols, _euler_stack(pose)[0]) if d == 6 else cols
        F_new, x_new = np.empty((rows.size, d)), xs.copy()
        for sub, (q_el, th_el, th0, k_tilde) in chain._by_mask(mask):
            sub = slice(None) if sub.size == rows.size else sub  # one mask: views of whole arrays, not row copies
            J_th, J_q, xsub = _gather(J[sub], th_el), _gather(J[sub], q_el), x_new[sub]
            eps = targets[sub] - pose[sub] + (J_q @ np.take(xsub, q_el, axis=1)[..., None])[..., 0]
            eps += (J_th @ (np.take(xsub, th_el, axis=1) - th0)[..., None])[..., 0]
            rhs = np.concatenate([eps, np.zeros((len(eps), q_el.size))], axis=1)[..., None]
            sol = _solve_stack(_block_matrix(J_th, J_q, k_tilde), rhs)
            F_new[sub], xsub[:, q_el] = sol[:, :d, 0], sol[:, d:, 0]
            xsub[:, th_el] = (J_th.swapaxes(1, 2) @ sol[:, :d])[..., 0] / k_tilde + th0
            x_new[sub] = xsub  # numpy skips the write of a view onto itself
        step = np.concatenate([F_new - F, x_new[:, free] - xs[:, free]], axis=1)
        left = (oscillating > _OSCILLATION_LIMIT) | ~np.isfinite(step).all(axis=1)
        F, xs, mask = F_new, x_new, _engaged_rows(springs, x_new[:, preloaded])
        pose, cols = _stack_pass(chain, x_new, False, constants)[:2]
        # the scalar stop tests, _contraction_bound's arithmetic included
        tol = STEP_TOL * np.maximum(1.0, _norms(np.concatenate([F_new, x_new[:, free]], axis=1)))
        size, prev = _norms(step[:, d:]), _norms(dx_prev)
        bound = _CONTRACTION_SAFETY * (size + _norms(step[:, :d])) * size / (prev - size)
        held = (oscillating == 0) & (mask == prev_mask).all(axis=1)
        stationary = (_norms(step) <= tol) | (held & (size < 0.5 * prev) & (bound <= tol))
        converged = ~left & (_norms(targets - pose) <= opts.pose_tol) & stationary
        dx_prev, live = step[:, d:], ~(left | converged) & (budget > 0)
        if not live.all():
            stopped = rows[~live]
            wrenches[stopped], x[stopped], done[stopped] = F[~live], xs[~live], converged[~live]
            state = (rows, F, xs, mask, prev_mask, oscillating, pose, cols, dx_prev, targets, constants)
            rows, F, xs, mask, prev_mask, oscillating, pose, cols, dx_prev, targets, constants = (a[live] for a in state)
    return wrenches, x, done


def split_rho(manipulator: ManipulatorModel, rho_all) -> list[np.ndarray]:
    """Normalize per-chain actuator values from either a list or a flat vector."""
    if isinstance(rho_all, (list, tuple)) and len(rho_all) == len(manipulator.chains):
        return [np.atleast_1d(np.asarray(r, dtype=float)) for r in rho_all]
    flat = np.atleast_1d(np.asarray(rho_all, dtype=float))
    if flat.size != manipulator.n_actuated:
        raise ModelError(
            f"expected {manipulator.n_actuated} actuator values, got {flat.size}"
        )
    return np.split(flat.copy(), np.cumsum([chain.n_actuated for chain in manipulator.chains])[:-1])


def total_wrench(
    manipulator: ManipulatorModel,
    t,
    rho_all,
    opts: SolverOptions | None = None,
    starts: list | None = None,
):
    """Sum of the per-chain holding wrenches at a shared platform pose."""
    target = manipulator.pose_array(t)
    rhos = split_rho(manipulator, rho_all)
    if starts is None:
        starts = [None] * len(manipulator.chains)
    elif len(starts) != len(manipulator.chains):
        raise ModelError(f"{len(starts)} start states for {len(manipulator.chains)} chains")
    results = _each_chain(
        manipulator, lambda chain, rho, start: solve_chain_equilibrium(chain, target, rho, opts, start=start), rhos, starts
    )
    F_sigma = np.sum([r.F for r in results], axis=0)
    return F_sigma, results


def _scaled_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, |v/s|) of each row of v (M, d): s = max|v_i| outside [1e-150, 1e150], where squares leave
    the float range, else 1; |.| is ``np.linalg.norm`` of the row to the bit."""
    s = np.abs(v).max(axis=1)
    s = np.where((s > 1e150) | ((0.0 < s) & (s < 1e-150)), s, 1.0)
    return s, _norms(v / s[:, None])


@dataclass
class ForceDeflectionCurve:
    """Displacement-controlled sweep along a fixed direction; ``error`` is the NonConvergenceError or
    SingularityError, its traceback dropped, of the sample that ended the curve early, else None."""

    deltas: np.ndarray
    force_magnitude: np.ndarray
    force_along: np.ndarray
    direction: np.ndarray
    error: NonConvergenceError | SingularityError | None = None

    @property
    def truncated(self) -> bool:
        return self.error is not None


# samples per stack of a sweep: a curve cut short early wastes at most one chunk
_SWEEP_CHUNK = 64


def force_deflection(
    manipulator: ManipulatorModel,
    start,
    direction,
    max_delta: float,
    step: float,
    opts: SolverOptions | None = None,
    rho_all=None,
    starts: list | None = None,
) -> ForceDeflectionCurve:
    """Sweep the platform from ``start`` along ``direction`` at fixed actuators.

    ``starts`` are chain states or joint vectors in chain element order at
    the start pose (for instance a compensation's ``[eq.regrouped.coords
    for eq in sol.equilibria]``) that seed the first sample. Actuator
    coordinates default to those of ``starts``, or else to the rigid
    inverse kinematics at the start pose, which must reach it.

    A sample is the cold ``total_wrench`` at its target, the first one
    started from ``starts`` when given. The samples of all chains that share
    a structure are solved as one stack of up to _SWEEP_CHUNK rows per chain
    (``chain._fused``, ``_equilibrium_stack``), each started from the
    best-effort rigid IK at its own target (``_ik_stack``), which reproduce
    that solve bit for bit. A row that some chain's stack leaves (its IK
    failed, or its solve needs damping, a restart, the SVD branch or more
    iterations) gets the scalar solve itself, in row order, started from
    the row's rigid IK; a chain whose IK row stored an error solves it again,
    which raises that error. The first non-convergent or singular sample
    truncates the curve instead of raising, which is how loss of solvability
    past buckling shows up; the curve keeps that sample's error. A sweep
    too long to hold in memory raises a ModelError before any solve.
    """
    if not (0.0 < step < math.inf and 0.0 <= max_delta < math.inf):
        raise ModelError("sweep needs finite step > 0 and max_delta >= 0")
    start_vec = manipulator.pose_array(start)
    u = _task_vector(direction, manipulator.task_dim, "sweep direction")
    s, norm = _scaled_norms(u[None])
    if norm == 0.0:
        raise ModelError("sweep direction must be nonzero")
    u = u / s / norm

    n_samples = max_delta / step
    if not n_samples < math.inf:
        raise ModelError(f"sweep of {max_delta:g} in steps of {step:g} has no finite sample count")
    chains, opts, n = manipulator.chains, opts or SolverOptions(), int(round(n_samples)) + 1
    try:  # F_sigma of every sample, before any solve: a sweep too long to hold solves nothing
        forces = np.empty((n, manipulator.task_dim))
    except (MemoryError, ValueError) as err:  # ValueError: past numpy's largest array
        raise ModelError(f"sweep of {max_delta:g} in steps of {step:g} does not fit in memory") from err
    rhos, error = rho_all, None
    for first in range(0, n, _SWEEP_CHUNK):
        targets = start_vec + (np.arange(first, min(first + _SWEEP_CHUNK, n)) * step)[:, None] * u
        # _fused hands each stack a copy of its rows, so iks keeps the rigid IK that the equilibria overwrite
        iks = _fused(chains, _ik_stack, [[targets] * len(chains)])
        seeds = [coords for coords, _, _ in iks]
        if not first:
            if rhos is None:  # from starts, or row 0 of the IK stacks: the rigid IK at the start pose, which must reach it
                warm = starts if starts is not None else _each_chain(manipulator, _stack_state, iks, [0] * len(chains))
                rhos = [s[c.actuated_elements] if isinstance(s, np.ndarray) else s.rho for c, s in zip(chains, warm)]
            rhos = _each_chain(manipulator, _actuators, split_rho(manipulator, rhos))
            if starts is not None:
                if len(starts) != len(chains):
                    raise ModelError(f"{len(starts)} start states for {len(chains)} chains")
                given = _each_chain(manipulator, _start_vector, starts)
                seeds = [np.concatenate([x[None], seed[1:]]) for seed, x in zip(seeds, given)]
        with np.errstate(all="ignore"):  # a row gone non-finite is left to the scalar solve, which warns as it does
            rho_rows = [np.broadcast_to(rho, (len(targets), rho.size)) for rho in rhos]
            solves = _fused(chains, _equilibrium_stack, [[targets] * len(chains), seeds, rho_rows], opts)
        F = np.sum([wrenches for wrenches, _, _ in solves], axis=0, out=forces[first : first + len(targets)])
        left = ~np.all([done for _, _, done in solves], axis=0)
        left[[row for _, _, errors in iks for row in errors]] = True
        for i in np.flatnonzero(left):  # the cold solve that a finished row reproduces
            rigid = [None if i in errors else coords[i] for coords, _, errors in iks]
            row_starts = rigid if first + i or starts is None else starts
            try:
                F[i] = total_wrench(manipulator, targets[i], rhos, opts, starts=row_starts)[0]
            except (NonConvergenceError, SingularityError) as err:
                n, error = first + i, err.with_traceback(None)
                break
        if error is not None:
            break

    F = forces[:n]
    s, norms = _scaled_norms(F)
    return ForceDeflectionCurve(
        deltas=np.arange(len(F)) * step,
        force_magnitude=s * norms,
        force_along=(F[:, None] @ u[:, None])[:, 0, 0],
        direction=u,
        error=error,
    )
