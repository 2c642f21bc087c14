"""Cartesian stiffness of loaded chains and their multi-chain aggregate.

Around a converged equilibrium the springs are condensed through
kf = (K - H_thth)^-1 and the chain stiffness is the leading task-size
block of the inverse of

    [ J_th kf J_th^T              J_q + J_th kf H_thq            ]
    [ J_q^T + H_qth kf J_th^T     H_qq + H_qth kf H_thq          ]

obtained by solving task-dim right-hand sides rather than inverting the
whole block. Each system, kf's included, is solved once by a guarded solve:
the inverse that clears a matrix's condition bound also solves it. The
Jacobians and the load Hessians H = d(J^T F)/dx come in closed form from one
forward pass per chain (``chain._loaded_derivatives``). Chain matrices sum
to the manipulator stiffness. The same block system with an actuator
right-hand side gives dF/drho, the chain's columns of the sensitivity that
the kinetostatic compensation inverts. One assembly (``_block_system``)
builds A, kf and both right-hand sides for a single equilibrium, whose
singular systems raise, and for a stack of them over a leading axis, whose
singular rows come out NaN, each with the error it raises alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainModel, ManipulatorModel, _each_chain, _euler_stack, _gather, _load_hessian, _loaded_derivatives
from .chain import _map_rates, _masks, _row_constants, _spring_constants, _stack_columns, _stack_pass
from .equilibrium import EquilibriumResult, SolverOptions, _solve, _solve_stack, total_wrench
from .errors import ModelError, SingularityError, SpringSofteningError

_RANK_TOL = 1e-9


@dataclass
class StiffnessResult:
    """Per-chain and aggregated stiffness with solve diagnostics."""

    K_c: list[np.ndarray]
    K_sigma: np.ndarray
    eigenvalues: np.ndarray  # of K_sigma, ascending
    indefinite: bool = False
    equilibria: list[EquilibriumResult] = field(default_factory=list)
    chains: list[ChainModel] = field(default_factory=list)

    @functools.cached_property
    def rank_c(self) -> list[int]:
        """Numerical rank of each K_c (singular values above 1e-9 of the largest), one SVD each on first read."""
        svs = [np.linalg.svd(K, compute_uv=False) for K in self.K_c]
        return [int(np.count_nonzero(s > _RANK_TOL * max(float(s.max()), 1e-300))) for s in svs]

    @functools.cached_property
    def condition(self) -> list[float]:
        """Exact 2-norm condition of each chain's block matrix, one SVD each on first read."""
        pairs = zip(self.chains, self.equilibria)
        return [float(np.linalg.cond(_chain_block(chain, eq, None))) for chain, eq in pairs]


def _block_system(chain: ChainModel, cols: np.ndarray, H: np.ndarray, layout: tuple, solve, sensitivity: bool | None):
    """Responses of the stiffness block system of one chain equilibrium, or of a stack of them.

    ``cols`` (..., d, n) are the Jacobian columns and ``H`` (..., n, n) the
    load Hessian of every chain element, ``layout`` the active set's
    ``ChainModel.regrouping``, for a stack with k_tilde (..., m) by row, and
    ``solve`` the guarded solve: ``_solve``
    raises on a singular system, ``_solve_stack`` gives NaN in its row
    and keeps the row's error.
    Returns the task rows of A^-1 rhs: the chain stiffness, symmetrised, or
    with ``sensitivity`` dF/drho, one column per actuator; A itself when
    ``sensitivity`` is None.

    Differentiating the equilibrium conditions g = t, J_q^T F = 0 and
    J_th^T F = K (theta - theta_0) in rho at fixed t gives the block system
    with the actuator right-hand side

        - [ J_rho + J_th kf H_thrho ; H_qrho + H_qth kf H_thrho ]

    where H_.rho = d(J_.^T F)/drho is the mixed load Hessian.
    """
    q_elements, theta_elements, _, k_tilde = layout
    d, k, m = chain.task_dim, q_elements.size, theta_elements.size
    # columns, and Hessian rows and columns, in passive, spring, actuator order; H is symmetric
    # to the bit, so the view of its transpose lays it out by columns, as _gather does
    order = np.concatenate([q_elements, theta_elements, chain.actuated_elements])
    cols, H = _gather(cols, order), np.take(np.take(H, order, -1), order, -2).swapaxes(-1, -2)
    J_q, J_theta = cols[..., :k], cols[..., k : k + m]
    H_qq, H_thth, H_qth = H[..., :k, :k], H[..., k : k + m, k : k + m], H[..., :k, k : k + m]
    what = f"loaded spring block of chain {chain.name!r} lost invertibility"
    kf = solve(k_tilde[..., None] * np.eye(m) - H_thth, np.eye(m), SpringSofteningError, what)  # k > 0: diag(k), to the bit
    H_thq, J_theta_T = H_qth.swapaxes(-1, -2), J_theta.swapaxes(-1, -2)
    A = np.zeros(H.shape[:-2] + (d + k, d + k))
    A[..., :d, :d] = J_theta @ kf @ J_theta_T
    A[..., :d, d:] = J_q + J_theta @ kf @ H_thq
    A[..., d:, :d] = J_q.swapaxes(-1, -2) + H_qth @ kf @ J_theta_T
    A[..., d:, d:] = H_qq + H_qth @ kf @ H_thq
    if sensitivity is None:
        return A
    rhs = np.eye(d + k, d)
    if sensitivity:
        spring = kf @ H[..., k : k + m, k + m :]
        rhs = -np.concatenate([cols[..., k + m :] + J_theta @ spring, H[..., :k, k + m :] + H_qth @ spring], axis=-2)
    K = solve(A, rhs, SingularityError, f"stiffness block of chain {chain.name!r} is singular")[..., :d, :]
    return K if sensitivity else 0.5 * (K + K.swapaxes(-1, -2))


def _chain_block(chain: ChainModel, eq: EquilibriumResult, sensitivity: bool | None):
    """``_block_system`` of one chain at its equilibrium, from one forward pass; a singular system raises."""
    cols, H = _loaded_derivatives(chain, eq.regrouped, eq.F)
    return _block_system(chain, cols, H, chain.regrouping(eq.regrouped.active_mask), _solve, sensitivity)


def _chain_responses(chain: ChainModel, coords: np.ndarray, F: np.ndarray, sensitivity: bool, constants=None):
    """``_chain_block`` of stacked equilibria, joint vectors (M, n_elements) and wrenches (M, d),
    with the rows of one active mask as one stack, bit for bit, each under its row's springs, and by
    row the error it raises, naming ``chain``, with NaN in that row. ``constants`` as in ``_stack_pass``."""
    constants = _row_constants([chain], [len(coords)]) if constants is None else constants
    pose, T, frames = _stack_pass(chain, coords, constants)
    cols, twists, errors = *_stack_columns(chain, T, frames, constants, True), {}
    if chain.task_dim == 6:  # a row whose E is singular raises the scalar columns' error
        E_inv, errors = _euler_stack(pose)
        cols = _map_rates(cols, E_inv)
    twists = list(zip(*(t.T for t in twists)))  # per element six (M,) arrays
    H = _load_hessian(chain, T, pose, twists, cols, F)
    out = np.empty((len(coords), chain.task_dim, chain.n_actuated if sensitivity else chain.task_dim))
    springs = _spring_constants(chain, constants)
    for rows, (q_el, th_el, _, _) in chain._by_mask(_masks(chain, coords, springs[..., chain.preloaded_elements])):
        layout, found = (q_el, th_el, None, springs[rows, 1][:, th_el]), {}  # with each row's stiffnesses
        solve = functools.partial(_solve_stack, errors=found)  # a row keeps its first error, kf's before A's
        out[rows] = _block_system(chain, cols[rows], H[rows], layout, solve, sensitivity)
        errors = {**{int(rows[i]): err for i, err in found.items()}, **errors}
    return out, errors


def manipulator_stiffness(
    manipulator: ManipulatorModel,
    t,
    rho_all,
    opts: SolverOptions | None = None,
) -> StiffnessResult:
    """Solve every chain at (t, rho) and aggregate the chain stiffnesses."""
    _, equilibria = total_wrench(manipulator, t, rho_all, opts)
    return _aggregate_stiffness(manipulator, equilibria)


def _aggregate_stiffness(
    manipulator: ManipulatorModel, equilibria: list[EquilibriumResult]
) -> StiffnessResult:
    """Chain stiffnesses at already solved chain equilibria, and their sum."""
    K_c = _each_chain(manipulator, _chain_block, equilibria, [False] * len(equilibria))
    K_sigma = np.sum(K_c, axis=0)
    eigvals = np.linalg.eigvalsh(K_sigma)
    return StiffnessResult(
        K_c=K_c,
        K_sigma=K_sigma,
        eigenvalues=eigvals,
        indefinite=bool(eigvals.min() <= 0.0),
        equilibria=equilibria,
        chains=manipulator.chains,
    )


def directional_stiffness(K: np.ndarray, u) -> float:
    """u^T K u: holding-force change per unit prescribed displacement along u."""
    K, u = np.asarray(K), np.asarray(u, dtype=float).ravel()
    if K.shape != (u.size, u.size):
        raise ModelError(f"direction u of length {u.size} does not match K of shape {K.shape}")
    if not abs(float(np.linalg.norm(u)) - 1.0) <= 1e-9:  # NaN fails too
        raise ModelError(f"direction u must be a unit vector, got {u.tolist()}")
    return float(u @ K @ u)


def stiffness_vs_fd_check(
    manipulator: ManipulatorModel,
    t,
    rho_all,
    h: float,
    opts: SolverOptions | None = None,
) -> float:
    """Worst relative deviation of K_sigma columns from wrench differences.

    Central differences of the total-wrench map with step h, column by
    column; deviations are scaled by the spectral norm of K_sigma.
    """
    if not 0.0 < h < math.inf:
        raise ModelError(f"finite-difference step h must be positive and finite, got {h!r}")
    target = manipulator.pose_array(t)
    K = manipulator_stiffness(manipulator, target, rho_all, opts).K_sigma
    scale = float(np.linalg.norm(K, 2))
    worst = 0.0
    for j in range(manipulator.task_dim):
        tp = target.copy()
        tm = target.copy()
        tp[j] += h
        tm[j] -= h
        Fp, _ = total_wrench(manipulator, tp, rho_all, opts)
        Fm, _ = total_wrench(manipulator, tm, rho_all, opts)
        col = (Fp - Fm) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(col - K[:, j])) / scale)
    return worst
