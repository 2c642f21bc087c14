"""Cartesian stiffness of loaded chains and their multi-chain aggregate.

Around a converged equilibrium the springs are condensed through
kf = (K - H_thth)^-1 and the chain stiffness is the leading task-size
block of the inverse of

    [ J_th kf J_th^T              J_q + J_th kf H_thq            ]
    [ J_q^T + H_qth kf J_th^T     H_qq + H_qth kf H_thq          ]

obtained by solving task-dim right-hand sides rather than inverting the
whole block. The Jacobians and the load Hessians H = d(J^T F)/dx come in
closed form from one forward pass per chain (``chain._loaded_derivatives``).
Chain matrices sum to the manipulator stiffness. The same
block system with an actuator right-hand side gives dF/drho, the chain's
columns of the sensitivity that the kinetostatic compensation inverts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainModel, ManipulatorModel, _loaded_derivatives
from .equilibrium import EquilibriumResult, SolverOptions, _check_condition, total_wrench
from .errors import ModelError, SingularityError, SpringSofteningError

_RANK_TOL = 1e-9


@dataclass
class StiffnessResult:
    """Per-chain and aggregated stiffness with solve diagnostics."""

    K_c: list[np.ndarray]
    K_sigma: np.ndarray
    rank_c: list[int]
    condition: list[float]
    asymmetry: list[float] = field(default_factory=list)
    indefinite: bool = False
    equilibria: list[EquilibriumResult] = field(default_factory=list)


def _block_system(chain: ChainModel, eq: EquilibriumResult):
    """Stiffness block matrix A of one chain at its equilibrium.

    Returns ``(A, actuator_rhs)``; ``actuator_rhs()`` builds the right-hand
    side of ``_chain_sensitivity``. Both come from the Jacobian columns and
    load Hessian of one forward pass.
    """
    reg = eq.regrouped
    cols, H = _loaded_derivatives(chain, reg, eq.F)
    J_theta, J_q = cols[:, reg.theta_elements], cols[:, reg.q_elements]
    k = J_q.shape[1]
    m = J_theta.shape[1]
    # Hessian rows and columns in passive, spring, actuator order
    order = np.concatenate([reg.q_elements, reg.theta_elements, chain.actuated_elements])
    H = H[order][:, order]
    H_qq, H_thth, H_qth = H[:k, :k], H[k : k + m, k : k + m], H[:k, k : k + m]

    spring_block = np.diag(reg.k_tilde) - H_thth
    what = f"loaded spring block of chain {chain.name!r} lost invertibility"
    _check_condition(spring_block, SpringSofteningError, what)
    kf = np.linalg.inv(spring_block)

    d = chain.task_dim
    H_thq = H_qth.T
    A = np.zeros((d + k, d + k))
    A[:d, :d] = J_theta @ kf @ J_theta.T
    A[:d, d:] = J_q + J_theta @ kf @ H_thq
    A[d:, :d] = J_q.T + H_qth @ kf @ J_theta.T
    A[d:, d:] = H_qq + H_qth @ kf @ H_thq

    def actuator_rhs():
        spring = kf @ H[k : k + m, k + m :]
        J_rho = cols[:, chain.actuated_elements]
        return -np.concatenate([J_rho + J_theta @ spring, H[:k, k + m :] + H_qth @ spring])

    return A, actuator_rhs


def _chain_stiffness_diag(chain: ChainModel, eq: EquilibriumResult):
    A = _block_system(chain, eq)[0]
    # the exact condition number is part of the result
    what = f"stiffness block of chain {chain.name!r} is singular"
    cond = _check_condition(A, SingularityError, what, exact=True)
    d = chain.task_dim
    rhs = np.zeros((A.shape[0], d))
    rhs[:d, :] = np.eye(d)
    sol = np.linalg.solve(A, rhs)
    K = sol[:d, :]
    asym = float(np.linalg.norm(K - K.T))
    K = 0.5 * (K + K.T)
    return K, cond, asym


def _chain_sensitivity(chain: ChainModel, eq: EquilibriumResult) -> np.ndarray:
    """dF/drho of one chain at its equilibrium, one column per actuator.

    Differentiating the equilibrium conditions g = t, J_q^T F = 0 and
    J_th^T F = K (theta - theta_0) in rho at fixed t gives the stiffness
    block system with the actuator right-hand side

        - [ J_rho + J_th kf H_thrho ; H_qrho + H_qth kf H_thrho ]

    where H_.rho = d(J_.^T F)/drho is the mixed load Hessian.
    """
    A, actuator_rhs = _block_system(chain, eq)
    _check_condition(A, SingularityError, f"stiffness block of chain {chain.name!r} is singular")
    return np.linalg.solve(A, actuator_rhs())[: chain.task_dim]


def chain_stiffness(chain: ChainModel, eq: EquilibriumResult) -> np.ndarray:
    """Symmetrized task-space stiffness of one chain at its equilibrium."""
    K, _, _ = _chain_stiffness_diag(chain, eq)
    return K


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
    K_c = []
    ranks = []
    conditions = []
    asymmetries = []
    for i, (chain, eq) in enumerate(zip(manipulator.chains, equilibria)):
        try:
            K, cond, asym = _chain_stiffness_diag(chain, eq)
        except SingularityError as err:
            err.chain_index = i
            raise
        K_c.append(K)
        singular_values = np.linalg.svd(K, compute_uv=False)
        smax = float(singular_values.max())
        ranks.append(int(np.count_nonzero(singular_values > _RANK_TOL * max(smax, 1e-300))))
        conditions.append(cond)
        asymmetries.append(asym)
    K_sigma = np.sum(K_c, axis=0)
    eigvals = np.linalg.eigvalsh(K_sigma)
    return StiffnessResult(
        K_c=K_c,
        K_sigma=K_sigma,
        rank_c=ranks,
        condition=conditions,
        asymmetry=asymmetries,
        indefinite=bool(eigvals.min() <= 0.0),
        equilibria=equilibria,
    )


def directional_stiffness(K: np.ndarray, u) -> float:
    """u^T K u: holding-force change per unit prescribed displacement along u."""
    u = np.asarray(u, dtype=float).ravel()
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ModelError("direction must be a unit vector")
    return float(u @ np.asarray(K) @ u)


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
    if h <= 0:
        raise ModelError("finite-difference step must be positive")
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
