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
stacked forward pass (``chain._loaded_derivatives``). Chain matrices sum
to the manipulator stiffness. The same block system with an actuator
right-hand side gives dF/drho, the chain's columns of the sensitivity that
the kinetostatic compensation inverts. One assembly (``_block_system``)
builds A, kf and both right-hand sides for a stack of equilibria over a
leading axis, whose singular rows come out NaN, each with the error it
raises alone. A single pose is a stack of one row per chain, the chains of
a structure as one stack, and raises the error of its first failing chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainModel, ManipulatorModel, _first_errors, _fused, _gather, _loaded_derivatives, _masks
from .chain import _row_constants, _spring_constants
from .equilibrium import EquilibriumResult, SolverOptions, _equilibria, _solve_stack, total_wrench
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
        return [float(c) for c in _responses(self.chains, self.equilibria, None)]


def _block_system(chain: ChainModel, cols: np.ndarray, H: np.ndarray, q_elements, theta_elements, k_tilde, errors: dict,
                  sensitivity: bool | None):
    """Responses of the stiffness block systems of a stack of chain equilibria.

    ``cols`` (M, d, n) are the Jacobian columns and ``H`` (M, n, n) the
    load Hessian of every chain element, ``q_elements`` and
    ``theta_elements`` the elements of the active set's passive and spring
    coordinates (``ChainModel.regrouping``) and ``k_tilde`` (M, m) the
    springs' stiffnesses by row. Each system is solved by ``_solve_stack``,
    which gives NaN in a singular row and keeps the row's first error, kf's
    before A's, in ``errors``.
    Returns the task rows of A^-1 rhs: the chain stiffness, symmetrised, or
    with ``sensitivity`` dF/drho, one column per actuator; the 2-norm
    condition of A when ``sensitivity`` is None.

    Differentiating the equilibrium conditions g = t, J_q^T F = 0 and
    J_th^T F = K (theta - theta_0) in rho at fixed t gives the block system
    with the actuator right-hand side

        - [ J_rho + J_th kf H_thrho ; H_qrho + H_qth kf H_thrho ]

    where H_.rho = d(J_.^T F)/drho is the mixed load Hessian.
    """
    d, k, m = chain.task_dim, q_elements.size, theta_elements.size
    # columns, and Hessian rows and columns, in passive, spring, actuator order; H is symmetric
    # to the bit, so the view of its transpose lays it out by columns, as _gather does
    order = np.concatenate([q_elements, theta_elements, chain.actuated_elements])
    cols, H = _gather(cols, order), np.take(np.take(H, order, -1), order, -2).swapaxes(-1, -2)
    J_q, J_theta = cols[..., :k], cols[..., k : k + m]
    H_qq, H_thth, H_qth = H[..., :k, :k], H[..., k : k + m, k : k + m], H[..., :k, k : k + m]
    solve = functools.partial(_solve_stack, errors=errors)
    what = f"loaded spring block of chain {chain.name!r} lost invertibility"
    kf = solve(k_tilde[..., None] * np.eye(m) - H_thth, np.eye(m), SpringSofteningError, what)  # k > 0: diag(k), to the bit
    H_thq, J_theta_T = H_qth.swapaxes(-1, -2), J_theta.swapaxes(-1, -2)
    A = np.zeros(H.shape[:-2] + (d + k, d + k))
    A[..., :d, :d] = J_theta @ kf @ J_theta_T
    A[..., :d, d:] = J_q + J_theta @ kf @ H_thq
    A[..., d:, :d] = J_q.swapaxes(-1, -2) + H_qth @ kf @ J_theta_T
    A[..., d:, d:] = H_qq + H_qth @ kf @ H_thq
    if sensitivity is None:
        return np.linalg.cond(A)
    rhs = np.eye(d + k, d)
    if sensitivity:
        spring = kf @ H[..., k : k + m, k + m :]
        rhs = -np.concatenate([cols[..., k + m :] + J_theta @ spring, H[..., :k, k + m :] + H_qth @ spring], axis=-2)
    K = solve(A, rhs, SingularityError, f"stiffness block of chain {chain.name!r} is singular")[..., :d, :]
    return K if sensitivity else 0.5 * (K + K.swapaxes(-1, -2))


@np.errstate(all="ignore")  # a singular row is NaN, with its error
def _chain_responses(chain: ChainModel, coords: np.ndarray, F: np.ndarray, sensitivity: bool | None, constants=None):
    """``_block_system`` of stacked equilibria, joint vectors (M, n_elements) and wrenches (M, d), with the rows of
    one active mask as one stack, each under its row's springs, and by row the error it raises, naming ``chain``,
    with NaN in that row. ``constants`` as in ``_stack_pass``."""
    constants = _row_constants([chain], [len(coords)]) if constants is None else constants
    cols, H, errors = _loaded_derivatives(chain, coords, F, constants)
    d, springs = chain.task_dim, _spring_constants(chain, constants)
    out = np.empty((len(coords), d, chain.n_actuated if sensitivity else d)[: 1 if sensitivity is None else 3])
    for rows, (q_el, th_el, _, _) in chain._by_mask(_masks(chain, coords, springs[..., chain.preloaded_elements])):
        found, k_tilde = {}, springs[rows, 1][:, th_el]  # each row under its own stiffnesses
        out[rows] = _block_system(chain, cols[rows], H[rows], q_el, th_el, k_tilde, found, sensitivity)
        errors = {**{int(rows[i]): err for i, err in found.items()}, **errors}
    return out, errors


def _responses(chains: list[ChainModel], equilibria: list[EquilibriumResult], sensitivity: bool | None) -> list:
    """``_chain_responses`` of one equilibrium per chain, the chains of a structure as one stack
    (``chain._fused``): per chain its response, or the error of the first chain that fails, with its index."""
    rows = [[eq.regrouped.coords[None] for eq in equilibria], [eq.F[None] for eq in equilibria]]
    out = _fused(chains, _chain_responses, rows, sensitivity)
    if errors := _first_errors([found for _, found in out]):
        raise errors[0]
    return [response[0] for response, _ in out]


def manipulator_stiffness(
    manipulator: ManipulatorModel,
    t,
    rho_all,
    opts: SolverOptions | None = None,
) -> StiffnessResult:
    """Solve every chain at (t, rho) and aggregate the chain stiffnesses."""
    return _aggregate_stiffness(manipulator, _equilibria(manipulator, t, rho_all, opts))


def _aggregate_stiffness(
    manipulator: ManipulatorModel, equilibria: list[EquilibriumResult]
) -> StiffnessResult:
    """Chain stiffnesses at already solved chain equilibria, and their sum."""
    K_c = _responses(manipulator.chains, equilibria, False)
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
