"""Serial-chain models: geometry map, analytic Jacobians, load Hessians, rigid IK.

A chain is an ordered stack of fixed link transforms, each followed by a
1-DOF joint (actuated, perfect passive, preloaded passive or virtual
elastic), closed by a fixed tool transform. The same engine covers planar
point platforms (task dim 2), planar rigid platforms (dim 3, x/y/yaw) and
spatial chains (dim 6, position plus roll-pitch-yaw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from .errors import ModelError, OutOfWorkspaceError
from .springs import RegroupedState, SpringLaw

ACTUATED = "actuated"
PERFECT_PASSIVE = "perfect_passive"
PRELOADED_PASSIVE = "preloaded_passive"
VIRTUAL_ELASTIC = "virtual_elastic"
JOINT_KINDS = (ACTUATED, PERFECT_PASSIVE, PRELOADED_PASSIVE, VIRTUAL_ELASTIC)

ROTATIONAL = "rotational"
TRANSLATIONAL = "translational"
MOTIONS = (ROTATIONAL, TRANSLATIONAL)

TASK_DIMS = (2, 3, 6)

_AXIS_TOL = 1e-12
# rigid IK: pose distance that ends the iteration, distance above which a
# target counts as unreachable, Levenberg-Marquardt iteration budget
_IK_TOL = 1e-12
_IK_FAIL_TOL = 1e-10
_IK_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class Transform:
    """Fixed rigid transform given as translation plus roll-pitch-yaw."""

    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rpy: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.translation, *self.rpy)):
            raise ModelError(f"transform {self.translation}/{self.rpy} is not finite")

    @cached_property
    def matrix(self) -> np.ndarray:
        return geo.homogeneous(geo.rpy_matrix(self.rpy), self.translation)

    @staticmethod
    def identity() -> "Transform":
        return Transform()


@dataclass(frozen=True)
class JointModel:
    """One 1-DOF joint: kind, motion type and unit axis in the link frame."""

    kind: str
    motion: str
    axis: tuple[float, float, float]
    spring: SpringLaw | None = None
    stiffness: float | None = None

    def __post_init__(self):
        if self.kind not in JOINT_KINDS:
            raise ModelError(f"unknown joint kind {self.kind!r}")
        if self.motion not in MOTIONS:
            raise ModelError(f"unknown joint motion {self.motion!r}")
        if not all(math.isfinite(a) for a in self.axis):
            raise ModelError(f"joint axis {self.axis} is not finite")
        norm = math.sqrt(sum(a * a for a in self.axis))
        if abs(norm - 1.0) > _AXIS_TOL:
            raise ModelError(f"joint axis must have unit norm, |axis| = {norm!r}")
        if (self.spring is not None) != (self.kind == PRELOADED_PASSIVE):
            raise ModelError("spring law present iff the joint is preloaded_passive")
        if (self.stiffness is not None) != (self.kind == VIRTUAL_ELASTIC):
            raise ModelError("stiffness present iff the joint is virtual_elastic")
        if self.stiffness is not None and not 0.0 < self.stiffness < math.inf:
            raise ModelError(
                f"virtual spring stiffness must be finite and > 0, got {self.stiffness}"
            )


@dataclass(frozen=True)
class PoseVector:
    """Platform pose: position plus wrapped orientation parameters."""

    p: tuple
    phi: tuple
    dim: int

    def __post_init__(self):
        if self.dim not in TASK_DIMS:
            raise ModelError(f"task dimension must be one of {TASK_DIMS}, got {self.dim}")
        n_p = 2 if self.dim in (2, 3) else 3
        n_phi = {2: 0, 3: 1, 6: 3}[self.dim]
        if len(self.p) != n_p or len(self.phi) != n_phi:
            raise ModelError(
                f"pose with dim {self.dim} needs {n_p} position and {n_phi} "
                f"orientation entries, got {len(self.p)}/{len(self.phi)}"
            )
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        object.__setattr__(self, "phi", tuple(geo.wrap_angle(float(v)) for v in self.phi))

    @staticmethod
    def from_array(values, dim: int) -> "PoseVector":
        v = np.asarray(values, dtype=float).ravel()
        if v.size != dim:
            raise ModelError(f"pose array of length {v.size} does not match dim {dim}")
        n_p = 2 if dim in (2, 3) else 3
        return PoseVector(p=tuple(v[:n_p]), phi=tuple(v[n_p:]), dim=dim)

    def as_array(self) -> np.ndarray:
        return np.array(self.p + self.phi, dtype=float)


@dataclass
class ChainState:
    """Joint coordinates of one chain, grouped by joint kind."""

    rho: np.ndarray
    q: np.ndarray
    vartheta: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        self.vartheta = np.atleast_1d(np.asarray(self.vartheta, dtype=float))
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))

    def validate_against(self, chain: "ChainModel"):
        counts = (len(self.rho), len(self.q), len(self.vartheta), len(self.theta))
        expected = (chain.n_actuated, chain.n_perfect, chain.n_preloaded, chain.n_virtual)
        if counts != expected:
            raise ModelError(
                f"state sizes {counts} do not match chain joint counts {expected}"
            )


@dataclass
class ChainModel:
    """One serial chain: base frame, (link, joint) elements, tool frame."""

    task_dim: int
    base_pose: Transform
    elements: list[tuple[Transform, JointModel]]
    tool_transform: Transform
    ik_seed: np.ndarray | None = None
    name: str = ""
    # derived from the elements: index maps, joint motion constants, the
    # preload springs in preloaded order and the regrouping layout per mask
    _kind_elements: dict = field(init=False, repr=False, compare=False)
    _motions: tuple = field(init=False, repr=False, compare=False)
    preload_springs: tuple = field(init=False, repr=False, compare=False)
    _regroupings: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.task_dim not in TASK_DIMS:
            raise ModelError(f"task dimension must be one of {TASK_DIMS}")
        by_kind: dict[str, list[int]] = {k: [] for k in JOINT_KINDS}
        for i, (_, joint) in enumerate(self.elements):
            by_kind[joint.kind].append(i)
        if not by_kind[VIRTUAL_ELASTIC]:
            raise ModelError("chain needs at least one virtual_elastic joint")
        # element indices per kind as index arrays, for gathers and scatters
        self._kind_elements = {k: np.array(v, dtype=np.intp) for k, v in by_kind.items()}
        self._motions = tuple(_motion_constants(joint) for _, joint in self.elements)
        self.preload_springs = tuple(self.joint_at(e).spring for e in by_kind[PRELOADED_PASSIVE])
        n_ik = self.n_actuated + self.n_perfect + self.n_preloaded
        if self.ik_seed is not None:
            self.ik_seed = np.asarray(self.ik_seed, dtype=float).ravel()
            if self.ik_seed.size != n_ik:
                raise ModelError(
                    f"ik_seed length {self.ik_seed.size} does not match the "
                    f"{n_ik} rigid coordinates of chain {self.name!r}"
                )

    # -- coordinate bookkeeping -------------------------------------------

    @property
    def actuated_elements(self):
        return self._kind_elements[ACTUATED]

    @property
    def perfect_elements(self):
        return self._kind_elements[PERFECT_PASSIVE]

    @property
    def preloaded_elements(self):
        return self._kind_elements[PRELOADED_PASSIVE]

    @property
    def virtual_elements(self):
        return self._kind_elements[VIRTUAL_ELASTIC]

    @property
    def n_actuated(self):
        return len(self.actuated_elements)

    @property
    def n_perfect(self):
        return len(self.perfect_elements)

    @property
    def n_preloaded(self):
        return len(self.preloaded_elements)

    @property
    def n_virtual(self):
        return len(self.virtual_elements)

    def joint_at(self, element: int) -> JointModel:
        return self.elements[element][1]

    def regrouping(self, mask: np.ndarray) -> tuple:
        """Layout of the regrouped sets for one preload active set.

        Returns ``(idle, q_elements, theta_elements, theta_tilde_0, k_tilde)``:
        the mask of disengaged preloaded joints, the chain element behind
        each aggregate coordinate, and the rest offsets and stiffnesses
        aligned with theta_tilde. Built once per mask and read-only.
        """
        key = mask.tobytes()
        layout = self._regroupings.get(key)
        if layout is None:
            idle = ~mask
            preloaded = self.preloaded_elements
            engaged = [s for s, on in zip(self.preload_springs, mask) if on]
            virtual_k = [self.joint_at(e).stiffness for e in self.virtual_elements]
            layout = (
                idle,
                np.concatenate([self.perfect_elements, preloaded[idle]]),
                np.concatenate([self.virtual_elements, preloaded[mask]]),
                np.array([0.0] * self.n_virtual + [s.preload_offset for s in engaged], dtype=float),
                np.array(virtual_k + [s.k for s in engaged], dtype=float),
            )
            for array in layout:
                array.flags.writeable = False
            self._regroupings[key] = layout
        return layout

    def element_coordinates(self, state: ChainState) -> np.ndarray:
        """Joint values in chain element order."""
        state.validate_against(self)
        out = np.empty(len(self.elements))
        out[self.actuated_elements] = state.rho
        out[self.perfect_elements] = state.q
        out[self.preloaded_elements] = state.vartheta
        out[self.virtual_elements] = state.theta
        return out

    def regrouped_coordinates(
        self, regrouped: RegroupedState, q_tilde=None, theta_tilde=None
    ) -> np.ndarray:
        """Joint values in chain element order from a regrouped view,
        optionally substituting new aggregate values."""
        q = regrouped.q_tilde if q_tilde is None else q_tilde
        theta = regrouped.theta_tilde if theta_tilde is None else theta_tilde
        out = np.empty(len(self.elements))
        out[self.actuated_elements] = regrouped.rho
        out[regrouped.q_elements] = q
        out[regrouped.theta_elements] = theta
        return out

    def state_of(self, coords: np.ndarray) -> ChainState:
        """ChainState holding joint values given in chain element order."""
        return ChainState(
            rho=coords[self.actuated_elements],
            q=coords[self.perfect_elements],
            vartheta=coords[self.preloaded_elements],
            theta=coords[self.virtual_elements],
        )

    def zero_state(self) -> ChainState:
        return ChainState(
            rho=np.zeros(self.n_actuated),
            q=np.zeros(self.n_perfect),
            vartheta=np.zeros(self.n_preloaded),
            theta=np.zeros(self.n_virtual),
        )


@dataclass
class ManipulatorModel:
    """Parallel manipulator: chains sharing one task space."""

    task_dim: int
    chains: list[ChainModel]
    units: dict[str, str] = field(default_factory=dict)
    workspace: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    name: str = ""

    def __post_init__(self):
        if self.task_dim not in TASK_DIMS:
            raise ModelError(f"task dimension must be one of {TASK_DIMS}")
        if not self.chains:
            raise ModelError("manipulator needs at least one chain")
        for i, chain in enumerate(self.chains):
            if chain.task_dim != self.task_dim:
                raise ModelError(
                    f"chain {i} declares task dim {chain.task_dim}, manipulator has {self.task_dim}"
                )

    @property
    def n_actuated(self) -> int:
        return sum(c.n_actuated for c in self.chains)

    def pose_array(self, t) -> np.ndarray:
        if isinstance(t, PoseVector):
            if t.dim != self.task_dim:
                raise ModelError(f"pose dim {t.dim} does not match task dim {self.task_dim}")
            v = t.as_array()
        else:
            v = np.asarray(t, dtype=float).ravel()
            if v.size != self.task_dim:
                raise ModelError(f"pose of length {v.size} does not match task dim {self.task_dim}")
        if not np.all(np.isfinite(v)):
            raise ModelError(f"pose {v.tolist()} is not finite")
        return v


# -- forward geometry ------------------------------------------------------

_I3 = np.eye(3)
_I4 = np.eye(4)


def _motion_constants(joint: JointModel):
    """(axis, rotation terms) of a joint; the terms are None for a prismatic
    joint and (skew(axis), axis axis^T) for a revolute one."""
    axis = np.asarray(joint.axis, dtype=float)
    if joint.motion == TRANSLATIONAL:
        return axis, None
    return axis, (geo.skew(axis), np.outer(axis, axis))


def _end_transform(chain: ChainModel, coords: np.ndarray, with_joint_frames: bool):
    """Compose the chain; optionally record each joint's frame (after its link)."""
    T = chain.base_pose.matrix
    frames = [] if with_joint_frames else None
    for (link, _), (axis, rotation), value in zip(chain.elements, chain._motions, coords):
        T = T @ link.matrix
        if with_joint_frames:
            frames.append(T)
        motion = _I4.copy()
        if rotation is None:
            motion[:3, 3] = axis * value
        else:
            # geo.rotation_about with the axis terms cached
            c, s = math.cos(value), math.sin(value)
            motion[:3, :3] = c * _I3 + s * rotation[0] + (1.0 - c) * rotation[1]
        T = T @ motion
    T = T @ chain.tool_transform.matrix
    return T, frames


def _task_pose(T: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        return T[:2, 3].copy()
    if dim == 3:
        yaw = math.atan2(T[1, 0], T[0, 0])
        return np.array([T[0, 3], T[1, 3], geo.wrap_angle(yaw)])
    rpy = geo.rpy_from_matrix(T[:3, :3])
    return np.array([*T[:3, 3], *(geo.wrap_angle(a) for a in rpy)])


def fk_array(chain: ChainModel, state: ChainState) -> np.ndarray:
    """End pose as a flat task-space vector."""
    coords = chain.element_coordinates(state)
    T, _ = _end_transform(chain, coords, with_joint_frames=False)
    return _task_pose(T, chain.task_dim)


def forward_kinematics(chain: ChainModel, state: ChainState) -> PoseVector:
    """Pose of the chain end for the given joint coordinates."""
    return PoseVector.from_array(fk_array(chain, state), chain.task_dim)


# -- analytic Jacobians and load Hessians ------------------------------------


def _twists(chain: ChainModel, T: np.ndarray, frames) -> list[tuple]:
    """World twist of every chain element at the chain end from one pass.

    Each is a scalar 6-tuple (omega, v): omega is a revolute joint's world
    axis (zero for a prismatic joint) and v the velocity of the end point,
    the world axis of a prismatic joint or the lever cross product
    axis x (p_end - p_joint) of a revolute one, written out in np.cross's
    operand order and arithmetic.
    """
    p0, p1, p2 = T[:3, 3].tolist()
    twists = []
    for frame, (axis, rotation) in zip(frames, chain._motions):
        a0, a1, a2 = (frame[:3, :3] @ axis).tolist()
        if rotation is None:
            twists.append((0.0, 0.0, 0.0, a0, a1, a2))
        else:
            f0, f1, f2 = frame[:3, 3].tolist()
            b0, b1, b2 = p0 - f0, p1 - f1, p2 - f2
            twists.append((a0, a1, a2, a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
    return twists


def _euler_rate_inverse(pose: np.ndarray) -> np.ndarray:
    E = geo.euler_rate_matrix(pose[3:])
    if abs(np.linalg.det(E)) < 1e-9:
        raise ModelError("orientation parametrization singular (cos ry ~ 0)")
    return np.linalg.inv(E)


def _columns(chain: ChainModel, T: np.ndarray, pose: np.ndarray, twists) -> np.ndarray:
    """Task Jacobian column of every chain element from its twist.

    The position rows are the twist's v; the angular part omega is mapped
    onto the orientation parameters of the declared task dimension.
    """
    dim = chain.task_dim
    if dim == 6:
        E_inv = _euler_rate_inverse(pose)
    c0, c1, c2 = T[:3, 0].tolist()
    rows = [[] for _ in range(dim)]
    for o0, o1, o2, v0, v1, v2 in twists:
        rows[0].append(v0)
        rows[1].append(v1)
        if dim == 3:
            # exact derivative of atan2(R10, R00) under dR = [omega]x R, less
            # the division by R00^2 + R10^2 done on the whole row below
            d0 = o1 * c2 - o2 * c1
            d1 = o2 * c0 - o0 * c2
            rows[2].append(c0 * d1 - c1 * d0)
        elif dim == 6:
            rows[2].append(v2)
            for row, value in zip(rows[3:], (E_inv @ np.array((o0, o1, o2))).tolist()):
                row.append(value)
    cols = np.array(rows)
    if dim == 3:
        cols[2] /= c0 * c0 + c1 * c1
    return cols


def _load_hessian(chain: ChainModel, T: np.ndarray, pose: np.ndarray, twists, cols, F) -> np.ndarray:
    """d(J^T F)/dx over every pair of chain elements, in closed form.

    Take a pair with a the earlier (or the same) element and b the later.
    Moving a turns b's column with a's twist, and moving b moves the end
    point, which turns a's column through its angular part. Both give
    omega_a x v_b on the position rows, the Lie bracket of the two joint
    screws (Murray, Li & Sastry, ch. 3), so H[a, b] = F_p . (omega_a x v_b)
    is symmetric by construction. The yaw row (dim 3) and the E^-1(phi)
    omega rows (dim 6) add their derivatives, written in the same
    symmetric form.
    """
    dim = chain.task_dim
    n = len(twists)
    f = F.tolist()
    f0, f1 = f[0], f[1]
    f2 = f[2] if dim == 6 else 0.0
    if dim == 3:
        # yaw = atan2(c1, c0) of the end x-axis c, which moves as dc = omega x c
        c0, c1, c2 = T[:3, 0].tolist()
        # numpy division: a vertical x-axis gives inf here as in _columns
        inv_s = float(np.float64(1.0) / (c0 * c0 + c1 * c1))
        dc = [(o1 * c2 - o2 * c1, o2 * c0 - o0 * c2, o0 * c1 - o1 * c0) for o0, o1, o2, *_ in twists]
        yaw = cols[2].tolist()
        mu = [(c0 * d0 + c1 * d1) * inv_s for d0, d1, _ in dc]
    elif dim == 6:
        # phi rates u = E^-1 omega; d(F_phi . E^-1 omega) brings in -G . dE[u_b] u_a
        G = (_euler_rate_inverse(pose).T @ F[3:]).tolist()
        cy, sy = math.cos(pose[4]), math.sin(pose[4])
        cz, sz = math.cos(pose[5]), math.sin(pose[5])
        rates = cols[3:].T.tolist()
    H = [[0.0] * n for _ in range(n)]
    for b in range(n):
        v0, v1, v2 = twists[b][3:]
        for a in range(b + 1):
            o0, o1, o2 = twists[a][:3]
            h = f0 * (o1 * v2 - o2 * v1) + f1 * (o2 * v0 - o0 * v2) + f2 * (o0 * v1 - o1 * v0)
            if dim == 3:
                # d(dc_b)/dx_a = omega_a x dc_b
                e0, e1, e2 = dc[b]
                w0, w1 = o1 * e2 - o2 * e1, o2 * e0 - o0 * e2
                h += f[2] * ((c0 * w1 - c1 * w0) * inv_s - yaw[b] * mu[a] - yaw[a] * mu[b])
            elif dim == 6:
                _, u1, u2 = rates[b]
                w0, w1, _ = rates[a]
                r0 = (-sy * cz * u1 - cy * sz * u2) * w0 - cz * u2 * w1
                r1 = (-sy * sz * u1 + cy * cz * u2) * w0 - sz * u2 * w1
                r2 = -cy * u1 * w0
                h -= G[0] * r0 + G[1] * r1 + G[2] * r2
            H[a][b] = H[b][a] = h
    return np.array(H)


def _geometry_and_columns(chain: ChainModel, coords: np.ndarray):
    """End pose and the task Jacobian column of every chain element."""
    T, frames = _end_transform(chain, coords, with_joint_frames=True)
    pose = _task_pose(T, chain.task_dim)
    return pose, _columns(chain, T, pose, _twists(chain, T, frames))


def regrouped_geometry(chain: ChainModel, regrouped: RegroupedState):
    """End pose at a regrouped configuration and its Jacobians on demand.

    One forward pass records the joint frames. Returns ``(pose, columns)``;
    ``columns()`` builds ``(J_theta, J_q)`` from those frames, so a caller
    that ends up needing only the pose never builds them.
    """
    coords = chain.regrouped_coordinates(regrouped)
    T, frames = _end_transform(chain, coords, with_joint_frames=True)
    pose = _task_pose(T, chain.task_dim)

    def columns():
        cols = _columns(chain, T, pose, _twists(chain, T, frames))
        return cols[:, regrouped.theta_elements], cols[:, regrouped.q_elements]

    return pose, columns


def jacobians(chain: ChainModel, regrouped: RegroupedState):
    """(J_theta, J_q): task Jacobians of the spring-like and passive sets."""
    return regrouped_geometry(chain, regrouped)[1]()


def _loaded_derivatives(chain: ChainModel, regrouped: RegroupedState, F: np.ndarray):
    """Task Jacobian columns and load Hessian d(J^T F)/dx of every chain
    element at a regrouped configuration, from one forward pass."""
    coords = chain.regrouped_coordinates(regrouped)
    T, frames = _end_transform(chain, coords, with_joint_frames=True)
    pose = _task_pose(T, chain.task_dim)
    twists = _twists(chain, T, frames)
    cols = _columns(chain, T, pose, twists)
    return cols, _load_hessian(chain, T, pose, twists, cols, F)


def loaded_hessians(chain: ChainModel, regrouped: RegroupedState, F):
    """Second derivatives of psi = pose . F over the regrouped coordinates.

    Returns (H_qq, H_thth, H_qth), H_qth laid out passive-rows by
    spring-columns. They are blocks of the closed-form load Hessian of
    ``_load_hessian``, exactly symmetric, and exact zeros for a zero wrench.
    """
    F = np.asarray(F, dtype=float).ravel()
    if F.size != chain.task_dim:
        raise ModelError(f"wrench of length {F.size} does not match task dim {chain.task_dim}")
    elements = np.concatenate([regrouped.q_elements, regrouped.theta_elements])
    H = _loaded_derivatives(chain, regrouped, F)[1][np.ix_(elements, elements)]
    k = len(regrouped.q_tilde)
    return H[:k, :k], H[k:, k:], H[:k, k:]


# -- rigid inverse kinematics ------------------------------------------------


def chain_ik_best_effort(chain: ChainModel, t):
    """Rigid IK core: closest reachable configuration and its pose distance.

    Levenberg-Marquardt on the actuated, perfect-passive and preloaded
    coordinates with virtual springs locked at rest, started from the
    chain's declared assembly seed (which picks the branch). Unreachable
    targets converge to the closest reachable point. Each trial step runs
    one forward pass that records the joint frames, so the Jacobian of the
    next iteration is built from the accepted trial's pass.
    """
    target = np.asarray(t, dtype=float).ravel()
    if target.size != chain.task_dim:
        raise ModelError(f"pose of length {target.size} does not match task dim {chain.task_dim}")

    n_rho, n_q = chain.n_actuated, chain.n_perfect
    free_elements = list(chain.actuated_elements) + list(chain.perfect_elements) + list(
        chain.preloaded_elements
    )
    u = np.zeros(len(free_elements)) if chain.ik_seed is None else chain.ik_seed.copy()

    def build_state(vec):
        return ChainState(
            rho=vec[:n_rho],
            q=vec[n_rho : n_rho + n_q],
            vartheta=vec[n_rho + n_q :],
            theta=np.zeros(chain.n_virtual),
        )

    def forward(vec):
        """Residual at vec and the (T, frames, pose) pass behind it."""
        coords = chain.element_coordinates(build_state(vec))
        T, frames = _end_transform(chain, coords, with_joint_frames=True)
        pose = _task_pose(T, chain.task_dim)
        return target - pose, (T, frames, pose)

    r, geometry = forward(u)
    r_norm = float(np.linalg.norm(r))
    lam = None
    eye = np.eye(len(free_elements))
    for _ in range(_IK_MAX_ITERATIONS):
        # a distance that overflows to inf or nan ends the iteration as unreachable
        if r_norm <= _IK_TOL or not r_norm < math.inf or not free_elements:
            break
        T, frames, pose = geometry
        J = _columns(chain, T, pose, _twists(chain, T, frames))[:, free_elements]
        if lam is None:
            sigma = float(np.linalg.norm(J, 2))
            lam = 1e-3 * max(sigma * sigma, 1.0)
        g = J.T @ r
        improved = False
        for _ in range(40):
            step = np.linalg.solve(J.T @ J + lam * eye, g)
            r_try, geometry_try = forward(u + step)
            try_norm = float(np.linalg.norm(r_try))
            if try_norm < r_norm:
                u = u + step
                r, r_norm, geometry = r_try, try_norm, geometry_try
                lam = max(lam * 0.3, 1e-14)
                improved = True
                break
            lam *= 10.0
        if not improved:
            break
    return build_state(u), r_norm


def chain_ik_unloaded(chain: ChainModel, t):
    """Rigid inverse kinematics of one chain; raises OutOfWorkspaceError
    carrying the closest reachable distance when the target cannot be met."""
    state, r_norm = chain_ik_best_effort(chain, t)
    if not r_norm <= _IK_FAIL_TOL:
        raise OutOfWorkspaceError(
            f"pose unreachable for chain {chain.name!r}, closest distance {r_norm:.3e}",
            distance=r_norm,
        )
    return state


def inverse_kinematics_unloaded(manipulator: ManipulatorModel, t) -> list[ChainState]:
    """Per-chain rigid IK of the whole manipulator at a shared target pose."""
    target = manipulator.pose_array(t)
    states = []
    for i, chain in enumerate(manipulator.chains):
        try:
            states.append(chain_ik_unloaded(chain, target))
        except OutOfWorkspaceError as err:
            err.chain_index = i
            raise
    return states
