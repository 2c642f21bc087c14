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
Jacobian columns. A stack of such vectors runs every branch of this solve.

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
from .chain import _fused, _ik_stack, _masks, _row_constants, _spring_constants, _stack_columns, _stack_pass, _stack_state
from .chain import _first_errors, _task_vector, chain_ik_best_effort, regrouped_geometry
from .errors import ModelError, NonConvergenceError, SingularityError
from .springs import RegroupedState, regroup

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


def _solve_stack(A: np.ndarray, b: np.ndarray, error: type, what: str, errors: dict) -> np.ndarray:
    """``_solve`` of a stack (M, n, n), bit for bit: A^-1 b where the Frobenius bound clears a row, and ``_solve`` of
    every other row (of all when the stack's inverse raises); a row that raises is NaN, its error in ``errors`` by
    row unless the row holds one already. ``b`` is stacked (M, n, k) or shared by every row (n, k)."""
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        A_inv = np.full(A.shape, np.nan)
    flat, flat_inv = (a.reshape(len(a), 1, a.shape[1] * a.shape[2]) for a in (A, A_inv))  # no -1: a stack may have 0 rows
    bound_sq, x = (flat @ flat.swapaxes(1, 2)) * (flat_inv @ flat_inv.swapaxes(1, 2)), A_inv @ b
    for r in np.flatnonzero(~(bound_sq[:, 0, 0] < _COND_BOUND_CLEAR**2)):
        try:
            x[r] = _solve(A[r], b[r] if b.ndim == A.ndim else b, error, what)
        except error as err:
            x[r] = np.nan
            errors.setdefault(r, err)
    return x


def _solve(A: np.ndarray, b: np.ndarray, error: type, what: str) -> np.ndarray:
    """A^-1 b, raising ``error`` when cond(A) exceeds COND_LIMIT or is not finite, through the Frobenius bound
    or the SVD (module docstring). The message is ``what`` followed by the condition, which the error carries."""
    try:
        A_inv = np.linalg.inv(A)
        bound_sq = float(np.vdot(A, A)) * float(np.vdot(A_inv, A_inv))
    except np.linalg.LinAlgError:
        bound_sq = math.inf
    if bound_sq < _COND_BOUND_CLEAR**2:  # False for NaN
        return A_inv @ b
    cond = float(np.linalg.cond(A)) if np.isfinite(A).all() else math.inf  # the SVD of NaN raises
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise error(f"{what} (condition {cond:.3e})", condition=cond)
    return np.linalg.solve(A, b)


@np.errstate(divide="ignore", invalid="ignore")  # the bound is read only where c < 1/2, where it is finite
def _settled(step: np.ndarray, dx_prev: np.ndarray, iterate: np.ndarray, held: np.ndarray, d: int) -> np.ndarray:
    """The step test of each row (M, d + n) of (F, x) steps: |step| at most STEP_TOL of the iterate's size, or,
    where ``held``, c = |dx|/|dx_prev| < 1/2 and _CONTRACTION_SAFETY (c + L)|dx|/(1 - c) as small, L = |dF|/|dx_prev|."""
    tol = STEP_TOL * np.maximum(1.0, _norms(iterate))
    size, prev = _norms(step[:, d:]), _norms(dx_prev)  # a NaN dx_prev: no contraction bound before a second step
    bound = _CONTRACTION_SAFETY * (size + _norms(step[:, :d])) * size / (prev - size)
    return (_norms(step) <= tol) | (held & (size < 0.5 * prev) & (bound <= tol))


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


# a pose, rho or start near the float range overflows the residual and step norms
# (past ~1e154) or turns an angle infinite; the solve then ends as singular or unconverged, unwarned
@np.errstate(over="ignore", invalid="ignore")
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

    d, singular = chain.task_dim, f"chain {chain.name!r} is singular at the prescribed pose"
    best_residual, iterations = np.inf, 0
    for restarts in range(opts.max_restarts + 1):
        if restarts:  # slight random disturbance of the configuration, actuators stay put
            if restarts == 1:  # the generator is built on the first restart, the only place that draws
                rng = np.random.default_rng(opts.rng_seed)
            v = x[free]
            x[free] = v + rng.uniform(-1.0, 1.0, v.shape) * _PERTURBATION * np.maximum(1.0, np.abs(v))
        reg = regroup(chain, x)
        g, columns = regrouped_geometry(chain, reg)
        F, prev_mask, dx_prev, oscillating = np.zeros(d), reg.active_mask, np.full(free.size, np.nan), 0
        for _ in range(opts.max_iterations):
            flipped = (reg.active_mask != prev_mask).any()
            oscillating, prev_mask = oscillating + 1 if flipped else 0, reg.active_mask
            J_theta, J_q = columns()
            A = _block_matrix(J_theta, J_q, reg.k_tilde)
            eps = target - g + J_q @ reg.q_tilde + J_theta @ (reg.theta_tilde - reg.theta_tilde_0)
            sol = _solve(A, np.concatenate([eps, np.zeros(len(A) - d)]), SingularityError, singular)
            F_new, q_new = sol[:d], sol[d:]
            th_new = (J_theta.T @ F_new) / reg.k_tilde + reg.theta_tilde_0
            if oscillating > _OSCILLATION_LIMIT:
                q_new = reg.q_tilde + _DAMPING * (q_new - reg.q_tilde)
                th_new = reg.theta_tilde + _DAMPING * (th_new - reg.theta_tilde)

            x_new, iterations = x.copy(), iterations + 1
            x_new[reg.q_elements], x_new[reg.theta_elements] = q_new, th_new
            step = np.concatenate([F_new - F, x_new[free] - x[free]])
            x, F, held = x_new, F_new, oscillating == 0
            reg = regroup(chain, x)
            g, columns = regrouped_geometry(chain, reg)
            r = target - g
            residual = math.sqrt(r @ r)  # np.linalg.norm of a contiguous vector, to the bit
            best_residual = min(best_residual, residual)
            held &= np.array_equal(reg.active_mask, prev_mask)  # no flip over the last two steps
            if residual <= opts.pose_tol and _settled(step[None], dx_prev[None], np.concatenate([F, x[free]])[None], held, d):
                return EquilibriumResult(F, residual, iterations, restarts, reg, chain)
            dx_prev = step[d:]
    raise _unconverged(chain, best_residual, opts)


def _unconverged(chain: ChainModel, best_residual: float, opts: SolverOptions) -> NonConvergenceError:
    """The error of a solve whose every restart ran out of iterations, ``best_residual`` the least residual seen."""
    n, reason = opts.max_iterations, f"best residual {best_residual:.3e}"
    if best_residual <= opts.pose_tol:  # the pose test passed, the step test never did
        reason += f" met pose_tol, but the step did not settle in {n} iteration{'s' * (n != 1)}"
    return NonConvergenceError(f"equilibrium of chain {chain.name!r} did not converge ({reason})",
                               residual=best_residual, iterations=n * (opts.max_restarts + 1), restarts=opts.max_restarts)


@np.errstate(all="ignore")  # a row gone non-finite fails as the scalar solve fails it, unwarned
def _equilibrium_stack(chain: ChainModel, targets: np.ndarray, x: np.ndarray, rho: np.ndarray, opts: SolverOptions,
                       constants=None):
    """``solve_chain_equilibrium`` of M rows in lockstep (targets (M, d), starts x (M, n_elements) updated in
    place, actuators rho, by row or for all), each with its own springs, mask, oscillation count, damping and stop
    tests, so bit for bit; ``constants`` as in ``_stack_pass``. A row that stops is written out once and dropped
    from every working array; the rows out of iterations restart together, each perturbed from where it stopped
    by the scalar solve's draws. Returns the wrenches, x, per row the iterations, restarts and residual of its
    solve (M, 3), and by row the scalar solve's error, naming ``chain``."""
    m, d = targets.shape
    x[:, chain.actuated_elements] = rho
    free, wrenches, stats, errors, best = chain.unknown_elements, np.zeros((m, d)), np.zeros((m, 3)), {}, np.full(m, np.inf)
    constants = _row_constants([chain], [m]) if constants is None else constants
    springs, singular = _spring_constants(chain, constants), f"chain {chain.name!r} is singular at the prescribed pose"
    preloads, groups = springs[..., chain.preloaded_elements], None  # both gathered again after each compaction
    rows, xs, F, mask = np.arange(m), x, np.zeros((m, d)), _masks(chain, x, preloads)
    prev_mask, oscillating, budget, restart = mask, np.zeros(m, dtype=int), opts.max_iterations, 0
    pose, T, frames = _stack_pass(chain, x, constants)
    dx_prev = np.full((m, free.size), np.nan)  # no contraction bound before a second step
    while rows.size:  # the rows that go on started together, so they share their budget and restart count
        budget -= 1
        flipped = (mask != prev_mask).any(axis=1)
        oscillating, prev_mask = np.where(flipped, oscillating + 1, 0), mask
        if groups is None or flipped.any():  # per mask group its rows, layout and the rows' theta~_0 and k~
            groups = []
            for sub, (q_el, th_el, _, _) in chain._by_mask(mask):
                sub = slice(None) if sub.size == rows.size else sub  # one mask: views of whole arrays, not row copies
                groups.append((sub, q_el, th_el, *springs[sub][..., th_el].swapaxes(0, 1)))
        J, failed = _stack_columns(chain, T, frames, constants), {}  # only for the rows that go on
        if d == 6:  # a row whose E is singular fails with the scalar columns' error
            E_inv, failed = _euler_stack(pose)
            J = _map_rates(J, E_inv)
        F_new, x_new = np.empty((rows.size, d)), xs.copy()
        for sub, q_el, th_el, th0, k_tilde in groups:
            J_th, J_q, xsub, found = _gather(J[sub], th_el), _gather(J[sub], q_el), x_new[sub], {}
            q, th = np.take(xsub, q_el, axis=1), np.take(xsub, th_el, axis=1)
            eps = targets[sub] - pose[sub] + (J_q @ q[..., None])[..., 0]
            eps += (J_th @ (th - th0)[..., None])[..., 0]
            rhs = np.concatenate([eps, np.zeros((len(eps), q_el.size))], axis=1)[..., None]
            sol = _solve_stack(_block_matrix(J_th, J_q, k_tilde[:, None]), rhs, SingularityError, singular, found)
            q_new, th_new = sol[:, d:, 0], (J_th.swapaxes(1, 2) @ sol[:, :d])[..., 0] / k_tilde + th0
            if (damped := (oscillating[sub] > _OSCILLATION_LIMIT)[:, None]).any():  # these rows step halfway
                q_new = np.where(damped, q + _DAMPING * (q_new - q), q_new)
                th_new = np.where(damped, th + _DAMPING * (th_new - th), th_new)
            F_new[sub], xsub[:, q_el], xsub[:, th_el] = sol[:, :d, 0], q_new, th_new
            x_new[sub] = xsub  # numpy skips the write of a view onto itself
            failed = {**{int(np.arange(rows.size)[sub][i]): e for i, e in found.items()}, **failed} if found else failed
        step = np.concatenate([F_new - F, x_new[:, free] - xs[:, free]], axis=1)
        F, xs, mask = F_new, x_new, _masks(chain, x_new, preloads)
        pose, T, frames = _stack_pass(chain, x_new, constants)
        residual, held = _norms(targets - pose), (oscillating == 0) & (mask == prev_mask).all(axis=1)
        stopped = (residual <= opts.pose_tol) & _settled(step, dx_prev, np.concatenate([F, xs[:, free]], axis=1), held, d)
        stopped[list(failed)] = True
        best, dx_prev = np.fmin(best, residual), step[:, d:]  # min() of the scalar floats: a NaN residual is skipped
        spent = restart * opts.max_iterations + opts.max_iterations - budget, restart  # before a restart resets them
        # out of iterations, the rows going on restart from where they stopped, perturbed by the scalar solve's draws
        if not budget and restart < opts.max_restarts:
            budget, restart, again = opts.max_iterations, restart + 1, ~stopped
            draws = np.random.default_rng(opts.rng_seed).uniform(-1.0, 1.0, (opts.max_restarts, free.size))[restart - 1]
            v = xs[np.ix_(again, free)]
            xs[np.ix_(again, free)] = v + draws * _PERTURBATION * np.maximum(1.0, np.abs(v))
            F[again], dx_prev[again], groups = 0.0, np.nan, None
            mask[again] = prev_mask[again] = _masks(chain, xs[again], preloads[again])
            pose[again], T[again], frames[again] = _stack_pass(chain, xs[again], constants[again])
        if not (live := ~stopped & (budget > 0)).all():  # a row out of budget not stopped here spent every restart
            errors.update({int(rows[i]): err for i, err in failed.items()})
            errors.update({int(rows[i]): _unconverged(chain, float(best[i]), opts) for i in np.flatnonzero(~stopped & ~live)})
            done = rows[~live]
            wrenches[done], x[done], stats[done, :2], stats[done, 2] = F[~live], xs[~live], spent, residual[~live]
            state = (rows, F, xs, mask, prev_mask, oscillating, best, pose, T, frames, dx_prev, targets, constants)
            rows, F, xs, mask, prev_mask, oscillating, best, pose, T, frames, dx_prev, targets, constants = (a[live] for a in state)
            springs = _spring_constants(chain, constants)
            preloads, groups = springs[..., chain.preloaded_elements], None
    return wrenches, x, stats, errors


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
    target, rhos, starts = _pose_inputs(manipulator, t, rho_all, starts)
    results = _each_chain(
        manipulator, lambda chain, rho, start: solve_chain_equilibrium(chain, target, rho, opts, start=start), rhos, starts
    )
    F_sigma = np.sum([r.F for r in results], axis=0)
    return F_sigma, results


def _pose_inputs(manipulator: ManipulatorModel, t, rho_all, starts):
    """``total_wrench``'s pose, per-chain actuators and starts (None for a cold start), or a ModelError."""
    target, rhos, chains = manipulator.pose_array(t), split_rho(manipulator, rho_all), manipulator.chains
    if starts is not None and len(starts) != len(chains):
        raise ModelError(f"{len(starts)} start states for {len(chains)} chains")
    return target, rhos, [None] * len(chains) if starts is None else starts


def _equilibria(manipulator: ManipulatorModel, t, rho_all, opts: SolverOptions | None = None, starts=None):
    """``total_wrench``'s equilibria, one ``_equilibrium_stack`` row per chain, the chains of a structure as one
    stack (``chain._fused``), each bit for bit its scalar solve; the first chain that fails raises its error."""
    target, rhos, starts = _pose_inputs(manipulator, t, rho_all, starts)

    def start(chain: ChainModel, rho, given) -> tuple:
        """The chain's start row and actuators, checked in the order ``solve_chain_equilibrium`` checks them."""
        rho = _actuators(chain, rho)
        return _start_vector(chain, chain_ik_best_effort(chain, target)[0] if given is None else given)[None], rho[None]

    chains, (x, rho) = manipulator.chains, zip(*_each_chain(manipulator, start, rhos, starts))
    solves = _fused(chains, _equilibrium_stack, [[target[None]] * len(chains), x, rho], opts or SolverOptions())
    if errors := _first_errors([found for *_, found in solves]):
        raise errors[0]
    return _results(chains, *zip(*solves))


def _results(chains: list[ChainModel], F, coords, stats, *_) -> list[EquilibriumResult]:
    """The ``EquilibriumResult`` per chain of row 0 of its stacked wrenches, joint vectors and solve stats."""
    return [EquilibriumResult(f[0], float(s[0, 2]), int(s[0, 0]), int(s[0, 1]), regroup(chain, x[0]), chain)
            for chain, f, x, s in zip(chains, F, coords, stats)]


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
    started from ``starts`` when given, solved as stacks (``_sweep``) bit
    for bit. The first non-convergent or singular sample truncates the
    curve instead of raising, which is how loss of solvability past
    buckling shows up; the curve keeps that sample's error. A sweep too
    long to hold in memory raises a ModelError before any solve.
    """
    return _sweep([manipulator], start, direction, max_delta, step, opts, [rho_all], [starts])[0]


def _sweep(manipulators, start, direction, max_delta, step, opts, rhos, starts) -> list[ForceDeflectionCurve]:
    """``force_deflection`` of each of ``manipulators`` with its entry of ``rhos`` and ``starts``. Their chains differ
    from the first's at most in spring constants, so one ``_ik_stack`` of the first's chains seeds every row, and
    the rows of one structure, up to _SWEEP_CHUNK a manipulator, are one ``_equilibrium_stack`` (``chain._fused``),
    each under its manipulator's constants. A curve ends at its first sample with an error, or raises one that is
    neither NonConvergenceError nor SingularityError, as the loop over its samples would."""
    if not (0.0 < step < math.inf and 0.0 <= max_delta < math.inf):
        raise ModelError("sweep needs finite step > 0 and max_delta >= 0")
    lead = manipulators[0]
    start_vec, u = lead.pose_array(start), _task_vector(direction, lead.task_dim, "sweep direction")
    s, norm = _scaled_norms(u[None])
    if norm == 0.0:
        raise ModelError("sweep direction must be nonzero")
    u = u / s / norm

    n_samples = max_delta / step
    if not n_samples < math.inf:
        raise ModelError(f"sweep of {max_delta:g} in steps of {step:g} has no finite sample count")
    chains, opts, n, count = lead.chains, opts or SolverOptions(), int(round(n_samples)) + 1, len(manipulators)
    try:  # F_sigma of every sample, before any solve: a sweep too long to hold solves nothing
        forces = np.empty((count, n, lead.task_dim))
    except (MemoryError, ValueError) as err:  # ValueError: past numpy's largest array
        raise ModelError(f"sweep of {max_delta:g} in steps of {step:g} does not fit in memory") from err
    constants = [np.array([c._constants for c in legs]) for legs in zip(*(m.chains for m in manipulators))]  # per chain
    ends, errors, rhos = [n] * count, [None] * count, list(rhos)
    for first in range(0, n, _SWEEP_CHUNK):
        live = [k for k in range(count) if ends[k] > first]  # the curves not yet ended
        if not live:
            break
        targets = start_vec + (np.arange(first, min(first + _SWEEP_CHUNK, n)) * step)[:, None] * u
        m = len(targets)  # each IK row under the lead's constants
        iks = _fused(chains, _ik_stack, [[targets] * len(chains)], constants=[a[:1].repeat(m, 0) for a in constants])
        x = [np.concatenate([coords] * len(live)) for coords, _, _ in iks]  # the starts of the live curves' rows
        for k, model in enumerate([] if first else manipulators):
            given = starts[k]
            if rhos[k] is None:  # from starts, or the rigid IK at the start pose (row 0), which must reach it
                warm = given if given is not None else _each_chain(model, _stack_state, iks, [0] * len(chains))
                rhos[k] = [s[c.actuated_elements] if isinstance(s, np.ndarray) else s.rho for c, s in zip(chains, warm)]
            rhos[k] = _each_chain(model, _actuators, split_rho(model, rhos[k]))
            if given is not None:
                if len(given) != len(chains):
                    raise ModelError(f"{len(given)} start states for {len(chains)} chains")
                for xs, x0 in zip(x, _each_chain(model, _start_vector, given)):
                    xs[k * m] = x0
        rho_rows = [np.array([rhos[k][i] for k in live]).repeat(m, 0) for i in range(len(chains))]
        per_chain = [[np.concatenate([targets] * len(live))] * len(chains), x, rho_rows]
        own = [a[live].repeat(m, 0) for a in constants]  # each row its manipulator's constants
        solves = _fused(chains, _equilibrium_stack, per_chain, opts, constants=own)
        # per chain the errors of its rows: a rigid IK's error comes first, except where given starts seed row 0
        ik_errors = [{j * m + i: e for j, k in enumerate(live) for i, e in ik.items() if first + i or starts[k] is None}
                     for _, _, ik in iks]
        failed = _first_errors([{**by_row, **ik} for (*_, by_row), ik in zip(solves, ik_errors)])
        F_live = np.sum([wrenches for wrenches, *_ in solves], axis=0).reshape(len(live), m, -1)
        for j, (k, F) in enumerate(zip(live, F_live)):
            forces[k, first : first + m] = F
            row = min((r for r in failed if j * m <= r < j * m + m), default=None)  # the curve's first failed sample
            if row is not None:
                if not isinstance(failed[row], (NonConvergenceError, SingularityError)):
                    raise failed[row]
                ends[k], errors[k] = first + row - j * m, failed[row].with_traceback(None)

    samples = [(F[:end], *_scaled_norms(F[:end]), error) for F, end, error in zip(forces, ends, errors)]
    return [ForceDeflectionCurve(np.arange(len(F)) * step, s * norms, (F[:, None] @ u[:, None])[:, 0, 0], u, error)
            for F, s, norms, error in samples]
