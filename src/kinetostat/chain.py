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
from .errors import KinetostatError, ModelError, OutOfWorkspaceError
from .springs import RegroupedState, SpringLaw, _engaged_rows

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
    is_identity: bool = field(init=False, repr=False, compare=False)  # translation and rpy all zero: the pass skips it

    def __post_init__(self):
        values = (*self.translation, *self.rpy)
        if not all(math.isfinite(v) for v in values):
            raise ModelError(f"transform {self.translation}/{self.rpy} is not finite")
        object.__setattr__(self, "is_identity", not any(values))

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
            raise ModelError(f"unknown joint kind {self.kind!r}, expected one of {JOINT_KINDS}", field="kind")
        if self.motion not in MOTIONS:
            raise ModelError(f"unknown joint motion {self.motion!r}, expected one of {MOTIONS}", field="motion")
        if not all(math.isfinite(a) for a in self.axis):
            raise ModelError(f"joint axis {self.axis} is not finite", field="axis")
        norm = math.sqrt(sum(a * a for a in self.axis))
        if abs(norm - 1.0) > _AXIS_TOL:
            raise ModelError(f"joint axis must have unit norm, |axis| = {norm!r}", field="axis")
        if (self.spring is not None) != (self.kind == PRELOADED_PASSIVE):
            need = "needs a" if self.spring is None else "takes no"
            raise ModelError(f"{self.kind} joint {need} spring law", field="spring")
        if (self.stiffness is not None) != (self.kind == VIRTUAL_ELASTIC):
            need = "needs a" if self.stiffness is None else "takes no"
            raise ModelError(f"{self.kind} joint {need} stiffness", field="stiffness")
        if self.stiffness is not None and not 0.0 < self.stiffness < math.inf:
            raise ModelError(
                f"virtual spring stiffness must be finite and > 0, got {self.stiffness}",
                field="stiffness",
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
        v = _task_vector(values, dim, "pose")
        n_p = 2 if dim in (2, 3) else 3
        return PoseVector(p=tuple(v[:n_p]), phi=tuple(v[n_p:]), dim=dim)

    def as_array(self) -> np.ndarray:
        return np.array(self.p + self.phi, dtype=float)


def _task_vector(values, dim: int, what: str) -> np.ndarray:
    """``values``, a PoseVector or numbers, as a flat float array of ``dim`` finite entries, or a ModelError."""
    v = values.as_array() if isinstance(values, PoseVector) else np.asarray(values, dtype=float).ravel()
    if v.size != dim:
        raise ModelError(f"{what} of length {v.size} does not match task dim {dim}")
    if not np.isfinite(v).all():
        raise ModelError(f"{what} {v.tolist()} is not finite")
    return v


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
    # derived from the elements: index arrays per joint kind, of the equilibrium
    # unknowns and of the rigid IK's coordinates (both in JOINT_KINDS order),
    # revolute flags, preload springs in preloaded order, layout per mask
    actuated_elements: np.ndarray = field(init=False, repr=False, compare=False)
    perfect_elements: np.ndarray = field(init=False, repr=False, compare=False)
    preloaded_elements: np.ndarray = field(init=False, repr=False, compare=False)
    virtual_elements: np.ndarray = field(init=False, repr=False, compare=False)
    unknown_elements: np.ndarray = field(init=False, repr=False, compare=False)
    rigid_elements: np.ndarray = field(init=False, repr=False, compare=False)
    _revolute: np.ndarray = field(init=False, repr=False, compare=False)
    preload_springs: tuple = field(init=False, repr=False, compare=False)
    _regroupings: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _structure: tuple = field(init=False, repr=False, compare=False)  # shared by the chains of one stack (_fused)

    def __post_init__(self):
        if self.task_dim not in TASK_DIMS:
            raise ModelError(f"task dimension must be one of {TASK_DIMS}")
        by_kind: dict[str, list[int]] = {k: [] for k in JOINT_KINDS}
        for i, (_, joint) in enumerate(self.elements):
            by_kind[joint.kind].append(i)
        if not by_kind[VIRTUAL_ELASTIC]:
            raise ModelError("chain needs at least one virtual_elastic joint", field="elements")
        kinds = [np.array(by_kind[k], dtype=np.intp) for k in JOINT_KINDS]
        self.actuated_elements, self.perfect_elements, self.preloaded_elements, self.virtual_elements = kinds
        self.unknown_elements = np.concatenate(kinds[1:])
        self.rigid_elements = np.concatenate(kinds[:3])
        self._revolute = np.array([joint.motion == ROTATIONAL for _, joint in self.elements])
        self.preload_springs = tuple(self.joint_at(e).spring for e in by_kind[PRELOADED_PASSIVE])
        if self.ik_seed is not None:
            self.ik_seed = np.asarray(self.ik_seed, dtype=float).ravel()
            if self.ik_seed.size != self.rigid_elements.size:
                raise ModelError(
                    f"ik_seed length {self.ik_seed.size} does not match the "
                    f"{self.rigid_elements.size} rigid coordinates of chain {self.name!r}",
                    field="ik_seed",
                )
        # the discrete parts, the spring branches and the seed's bytes, which keep the sign of a zero that == ignores
        joints = tuple((link.is_identity, joint.kind, joint.motion) for link, joint in self.elements)
        seed = None if self.ik_seed is None else self.ik_seed.tobytes()
        identity = (self.base_pose.is_identity, self.tool_transform.is_identity)
        self._structure = (self.task_dim, *identity, joints, tuple(s.branch for s in self.preload_springs), seed)

    # -- coordinate bookkeeping -------------------------------------------

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

        Returns ``(q_elements, theta_elements, theta_tilde_0, k_tilde)``:
        the chain element behind each aggregate coordinate, and the rest
        offsets and stiffnesses aligned with theta_tilde. Built once per
        mask and read-only.
        """
        key = mask.tobytes()
        layout = self._regroupings.get(key)
        if layout is None:
            preloaded = self.preloaded_elements
            theta = np.concatenate([self.virtual_elements, preloaded[mask]])
            rest, k = _spring_constants(self, self._constants)
            layout = (np.concatenate([self.perfect_elements, preloaded[~mask]]), theta, rest[theta], k[theta])
            for array in layout:
                array.flags.writeable = False
            self._regroupings[key] = layout
        return layout

    def _by_mask(self, masks: np.ndarray) -> list:
        """``(rows, regrouping(mask))`` per distinct mask of ``masks`` (M, n_preloaded), in ``np.unique``'s order."""
        if not len(masks) or (masks == masks[0]).all():  # one mask, the common case: no sort
            return [(np.arange(len(masks)), self.regrouping(masks[0]))] if len(masks) else []
        order = np.lexsort(np.packbits(masks, axis=1).T[::-1])  # a stable sort of bytes of 8 columns, the first on top
        ordered = masks[order]
        ends = [0, *(np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1).tolist(), len(order)]
        return [(order[lo:hi], self.regrouping(ordered[lo])) for lo, hi in zip(ends, ends[1:])]

    @cached_property
    def _motions(self) -> tuple:
        """Per joint, for the scalar pass, its axis and rotation terms: None for a prismatic joint, skew(axis)
        and axis axis^T for a revolute one."""
        axes = [np.asarray(joint.axis, dtype=float) for _, joint in self.elements]
        return tuple((a, (geo.skew(a), np.outer(a, a)) if rotates else None) for a, rotates in zip(axes, self._revolute))

    @cached_property
    def _constants(self) -> np.ndarray:
        """The chain's row of ``_row_constants``, from floats: the base, link and tool matrices and the revolute
        terms (``_motions``') in the order the forward pass reads them, less the identities it skips, then the
        joint axes (``_axis_constants``) and the springs (``_spring_constants``)."""

        def matrix(transform: Transform) -> list:
            return [] if transform.is_identity else transform.matrix.ravel().tolist()

        flat, axes, rest, k = matrix(self.base_pose), [], [], []
        for (link, joint), rotates in zip(self.elements, self._revolute):
            x, y, z = axis = tuple(map(float, joint.axis))
            flat += matrix(link)
            if rotates:
                flat += (0.0, -z, y, z, 0.0, -x, -y, x, 0.0, x * x, x * y, x * z, y * x, y * y, y * z, z * x, z * y, z * z)
            axes += axis
            rest.append(0.0 if joint.spring is None else joint.spring.preload_offset)
            k.append(joint.stiffness or 0.0 if joint.spring is None else joint.spring.k)
        constants = np.array(flat + matrix(self.tool_transform) + axes + rest + k)
        constants.flags.writeable = False  # every stack of the chain reads it, as does every command on a reused model
        return constants

    def element_coordinates(self, state: ChainState) -> np.ndarray:
        """Joint values in chain element order, or a ModelError if they do not fit the chain or are not finite."""
        state.validate_against(self)
        out = np.empty(len(self.elements))
        out[self.actuated_elements] = state.rho
        out[self.perfect_elements] = state.q
        out[self.preloaded_elements] = state.vartheta
        out[self.virtual_elements] = state.theta
        if not np.isfinite(out).all():
            raise ModelError(f"joint values {out.tolist()} are not finite")
        return out

    def state_of(self, coords: np.ndarray) -> ChainState:
        """ChainState holding joint values given in chain element order."""
        return ChainState(
            rho=coords[self.actuated_elements],
            q=coords[self.perfect_elements],
            vartheta=coords[self.preloaded_elements],
            theta=coords[self.virtual_elements],
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
        return _task_vector(t, self.task_dim, "pose")


# -- forward geometry ------------------------------------------------------

_I3 = np.eye(3)
_I4 = np.eye(4)


def _end_transform(chain: ChainModel, coords: np.ndarray):
    """Compose the chain and record each joint's frame (after its link).

    Identity transforms (``Transform.is_identity``) are skipped, and a
    factor meeting a product that is still I is taken as it is. A product
    with I equals the other factor bit for bit, except that it turns -0.0
    into +0.0 and spreads NaN from an overflowed (inf) translation through
    inf * 0. T and the frames may be shared matrices: callers only read them.
    """
    T = None if chain.base_pose.is_identity else chain.base_pose.matrix  # None: the identity
    frames = []
    for (link, _), (axis, rotation), value in zip(chain.elements, chain._motions, coords):
        if not link.is_identity:
            T = link.matrix if T is None else T @ link.matrix
        frames.append(_I4 if T is None else T)
        motion = _I4.copy()
        if rotation is None:
            motion[:3, 3] = axis * value
        else:
            # geo.rotation_about with the axis terms cached; an infinite angle gives NaN, as np.cos does
            try:
                c, s = math.cos(value), math.sin(value)
            except ValueError:
                c = s = math.nan
            motion[:3, :3] = c * _I3 + s * rotation[0] + (1.0 - c) * rotation[1]
        T = motion if T is None else T @ motion
    if not chain.tool_transform.is_identity:
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
    T, _ = _end_transform(chain, coords)
    return _task_pose(T, chain.task_dim)


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


def regrouped_geometry(chain: ChainModel, regrouped: RegroupedState):
    """End pose at a regrouped configuration and its Jacobians on demand.

    One forward pass records the joint frames. Returns ``(pose, columns)``;
    ``columns()`` builds ``(J_theta, J_q)`` from those frames, so a caller
    that ends up needing only the pose never builds them.
    """
    T, frames = _end_transform(chain, regrouped.coords)
    pose = _task_pose(T, chain.task_dim)

    def columns():
        cols = _columns(chain, T, pose, _twists(chain, T, frames))
        return cols[:, regrouped.theta_elements], cols[:, regrouped.q_elements]

    return pose, columns


def jacobians(chain: ChainModel, regrouped: RegroupedState):
    """(J_theta, J_q): task Jacobians of the spring-like and passive sets."""
    return regrouped_geometry(chain, regrouped)[1]()


def _loaded_derivatives(chain: ChainModel, coords: np.ndarray, F: np.ndarray, constants=None):
    """Task Jacobian columns (M, d, n) and load Hessians d(J^T F)/dx (M, n, n) of every chain element at
    stacked joint vectors (M, n_elements) under wrenches (M, d), from one ``_stack_pass``, and by row the
    error of a row whose dim-6 rate map E is singular, NaN there. ``constants`` as in ``_stack_pass``.

    The Hessian is in closed form. Take a pair with a the earlier (or the
    same) element and b the later. Moving a turns b's column with a's
    twist, and moving b moves the end point, which turns a's column through
    its angular part. Both give omega_a x v_b on the position rows, the Lie
    bracket of the two joint screws (Murray, Li & Sastry, ch. 3), so
    H[a, b] = F_p . (omega_a x v_b) is symmetric by construction. The yaw
    row (dim 3) and the E^-1(phi) omega rows (dim 6) add their derivatives,
    written in the same symmetric form. Every pair is one broadcast, a on
    the rows and b on the columns, and the triangle a <= b is mirrored.
    """
    constants = _row_constants([chain], [len(coords)]) if constants is None else constants
    dim, n = chain.task_dim, len(chain.elements)
    pose, T, frames = _stack_pass(chain, coords, constants)
    cols, twists = _stack_columns(chain, T, frames, constants, True)
    E_inv, errors = _euler_stack(pose) if dim == 6 else (None, {})
    if E_inv is not None:  # a row whose E is singular raises the scalar columns' error
        cols = _map_rates(cols, E_inv)
    o0, o1, o2, v0, v1, v2 = (t[:, None] for t in twists)  # each element's twist on the columns, (M, 1, n)
    a0, a1, a2 = (o.swapaxes(1, 2) for o in (o0, o1, o2))  # and omega on the rows, as element a
    f0, f1 = F[:, 0, None, None], F[:, 1, None, None]
    f2 = F[:, 2, None, None] if dim == 6 else 0.0
    H = f0 * (a1 * v2 - a2 * v1) + f1 * (a2 * v0 - a0 * v2) + f2 * (a0 * v1 - a1 * v0)
    if dim == 3:
        # yaw = atan2(c1, c0) of the end x-axis c, which moves as dc = omega x c
        c0, c1, c2 = (T[:, i, 0, None, None] for i in range(3))
        # numpy division: a vertical x-axis gives inf here as in _stack_columns
        inv_s = 1.0 / (c0 * c0 + c1 * c1)
        e0, e1, e2 = o1 * c2 - o2 * c1, o2 * c0 - o0 * c2, o0 * c1 - o1 * c0
        yaw, mu = cols[:, 2, None], (c0 * e0 + c1 * e1) * inv_s
        # d(dc_b)/dx_a = omega_a x dc_b
        w0, w1 = a1 * e2 - a2 * e1, a2 * e0 - a0 * e2
        H += F[:, 2, None, None] * ((c0 * w1 - c1 * w0) * inv_s - yaw * mu.swapaxes(1, 2) - yaw.swapaxes(1, 2) * mu)
    elif dim == 6:
        # phi rates u = E^-1 omega; d(F_phi . E^-1 omega) brings in -G . dE[u_b] u_a
        g0, g1, g2 = (E_inv.swapaxes(-1, -2) @ F[:, 3:, None])[:, :, None].transpose(1, 0, 2, 3)
        cy, sy = np.cos(pose[:, 4])[:, None, None], np.sin(pose[:, 4])[:, None, None]
        cz, sz = np.cos(pose[:, 5])[:, None, None], np.sin(pose[:, 5])[:, None, None]
        u1, u2, w0, w1 = cols[:, 4, None], cols[:, 5, None], cols[:, 3, :, None], cols[:, 4, :, None]
        r0 = (-sy * cz * u1 - cy * sz * u2) * w0 - cz * u2 * w1
        r1 = (-sy * sz * u1 + cy * cz * u2) * w0 - sz * u2 * w1
        r2 = -cy * u1 * w0
        H -= g0 * r0 + g1 * r1 + g2 * r2
    return cols, np.where(np.arange(n)[:, None] <= np.arange(n), H, H.swapaxes(1, 2)), errors


def loaded_hessians(chain: ChainModel, regrouped: RegroupedState, F):
    """Second derivatives of psi = pose . F over the regrouped coordinates.

    Returns (H_qq, H_thth, H_qth), H_qth laid out passive-rows by
    spring-columns. They are blocks of the closed-form load Hessian of
    ``_loaded_derivatives``, exactly symmetric, and exact zeros for a zero wrench.
    """
    _, H, errors = _loaded_derivatives(chain, regrouped.coords[None], _task_vector(F, chain.task_dim, "wrench")[None])
    if errors:
        raise errors[0]
    q, theta = regrouped.q_elements, regrouped.theta_elements
    return H[0][np.ix_(q, q)], H[0][np.ix_(theta, theta)], H[0][np.ix_(q, theta)]


# -- rigid inverse kinematics ------------------------------------------------


def chain_ik_best_effort(chain: ChainModel, t):
    """Rigid IK core: closest reachable configuration and its pose distance.

    Levenberg-Marquardt on the actuated, perfect-passive and preloaded
    coordinates with virtual springs locked at rest, started from the
    chain's declared assembly seed (which picks the branch). Unreachable
    targets converge to the closest reachable point. The iterate is the
    joint vector in chain element order that the forward pass reads; a
    trial step writes the free coordinates of a copy of it, and a
    ChainState is built only for the result. Each trial runs one forward
    pass that records the joint frames, so the Jacobian of the next
    iteration is built from the accepted trial's pass.
    """
    target = _task_vector(t, chain.task_dim, "pose")
    free = chain.rigid_elements
    coords = np.zeros(len(chain.elements))
    if chain.ik_seed is not None:
        coords[free] = chain.ik_seed

    def forward(x):
        """Residual at x, its norm and the (T, frames, pose) pass behind it."""
        T, frames = _end_transform(chain, x)
        pose = _task_pose(T, chain.task_dim)
        r = target - pose
        return r, math.sqrt(r @ r), (T, frames, pose)

    # a reach near the float range overflows the residual norm (past ~1e154) or
    # the damped normal matrix; the distance left names the target unreachable
    with np.errstate(over="ignore"):
        r, r_norm, geometry = forward(coords)
        lam = None
        eye = np.eye(free.size)
        for _ in range(_IK_MAX_ITERATIONS):
            # a distance that overflows to inf or nan ends the iteration as unreachable
            if r_norm <= _IK_TOL or not r_norm < math.inf or not free.size:
                break
            T, frames, pose = geometry
            J = _columns(chain, T, pose, _twists(chain, T, frames))[:, free]
            if lam is None:
                sigma = float(np.linalg.norm(J, 2))
                lam = 1e-3 * max(sigma * sigma, 1.0)
            g = J.T @ r
            improved = False
            for _ in range(40):
                if not lam < math.inf:  # a damping past the float range ends it too
                    break
                trial = coords.copy()
                trial[free] += np.linalg.solve(J.T @ J + lam * eye, g)
                r_try, try_norm, geometry_try = forward(trial)
                if try_norm < r_norm:
                    coords = trial
                    r, r_norm, geometry = r_try, try_norm, geometry_try
                    lam = max(lam * 0.3, 1e-14)
                    improved = True
                    break
                lam *= 10.0
            if not improved:
                break
    return chain.state_of(coords), r_norm


def _row_constants(chains, sizes) -> np.ndarray:
    """The constants a stack reads, ``ChainModel._constants``, as ``sizes[i]`` rows of ``chains[i]`` in chain
    order, so that the constants of a subset of rows are one gather."""
    return np.array([chain._constants for chain in chains])[np.repeat(np.arange(len(chains)), sizes)]


def _spring_constants(chain: ChainModel, constants: np.ndarray) -> np.ndarray:
    """Per element its spring's rest offset and stiffness (a virtual spring's are 0 and its stiffness, a
    joint without one has zeros): a view (..., 2, n_elements) of the tail of ``constants`` (..., width)."""
    n = len(chain.elements)
    return constants[..., -2 * n :].reshape(*constants.shape[:-1], 2, n)


def _axis_constants(chain: ChainModel, constants: np.ndarray) -> np.ndarray:
    """The joint axes in their link frames: a view (M, n_elements, 3) of ``constants`` (M, width) before the springs."""
    n, width = len(chain.elements), constants.shape[1]
    return constants[:, width - 5 * n : width - 2 * n].reshape(len(constants), n, 3)


def _masks(chain: ChainModel, coords: np.ndarray, preloads: np.ndarray) -> np.ndarray:
    """Active sets (M, n_preloaded) of stacked joint vectors, each under its row's springs ``preloads``, the
    preloaded elements' ``_spring_constants`` (M, 2, n_preloaded)."""
    at = chain.preloaded_elements
    return _engaged_rows([s.branch for s in chain.preload_springs], preloads[:, 1], preloads[:, 0], coords[:, at])


def _stack_pass(chain: ChainModel, coords: np.ndarray, constants=None):
    """Poses (M, d), end transforms (M, 4, 4) and joint frames (M, n, 4, 4), each after its link, of stacked
    element-order joint vectors, in the arithmetic of ``_end_transform`` and ``_task_pose``; ``_stack_columns``
    builds the Jacobian columns of the rows that need them. ``constants`` are the rows' ``_row_constants``, by
    default ``chain``'s, so the rows may belong to any chains of its structure."""
    m, dim, at = len(coords), chain.task_dim, 0
    if constants is None:
        constants = _row_constants([chain], [m])

    def read(*shape):
        """The rows' next constant, a view. Each row's matrix is C-ordered, as the scalar pass's is,
        so a stacked product takes the scalar product's BLAS kernel and order of summation."""
        nonlocal at
        size = math.prod(shape)
        at += size
        return constants[:, at - size : at].reshape(m, *shape)

    T = None if chain.base_pose.is_identity else read(4, 4)
    frames, axes = np.empty((m, len(chain.elements), 4, 4)), _axis_constants(chain, constants)
    for j, ((link, _), rotates, value) in enumerate(zip(chain.elements, chain._revolute, coords.T)):
        if not link.is_identity:
            T = read(4, 4) if T is None else T @ read(4, 4)
        frames[:, j] = _I4 if T is None else T
        motion = np.empty((m, 4, 4))
        motion[:] = _I4
        if rotates:
            c, s = np.cos(value)[:, None, None], np.sin(value)[:, None, None]
            motion[:, :3, :3] = c * _I3 + s * read(3, 3) + (1.0 - c) * read(3, 3)
        else:
            motion[:, :3, 3] = axes[:, j] * value[:, None]
        T = motion if T is None else T @ motion
    if not chain.tool_transform.is_identity:
        T = T @ read(4, 4)
    # numpy's arctan2 and arcsin miss math's last bit on some inputs: angles go row by row
    pose = T[:, :2, 3].copy() if dim == 2 else np.array([_task_pose(t, dim) for t in T]).reshape(m, dim)
    return pose, T, frames


def _stack_columns(chain: ChainModel, T: np.ndarray, frames: np.ndarray, constants: np.ndarray, twists: bool = False):
    """Jacobian columns (K, d, n) of K rows of a ``_stack_pass`` (their T, frames and constants) in the arithmetic
    of ``_twists`` and ``_columns``; dim 6 rows 3-5 hold omega, unmapped. With ``twists``, also the world twists
    (six (K, n) arrays, omega then v); without, a dim-2 pass skips the terms its columns do not read."""
    dim, revolute = chain.task_dim, chain._revolute
    a0, a1, a2 = (frames[..., :3, :3] @ _axis_constants(chain, constants)[..., None])[..., 0].transpose(2, 0, 1)
    b0, b1, b2 = (T[:, None, :3, 3] - frames[..., :3, 3]).transpose(2, 0, 1)
    v = [np.where(revolute, c, a) for c, a in ((a1 * b2 - a2 * b1, a0), (a2 * b0 - a0 * b2, a1))]
    if dim == 2 and not twists:
        return np.stack(v, axis=1)
    o0, o1, o2 = (np.where(revolute, a, 0.0) for a in (a0, a1, a2))
    v.append(np.where(revolute, a0 * b1 - a1 * b0, a2))
    rows = v[:2]
    if dim == 3:
        c0, c1, c2 = (T[:, i, 0, None] for i in range(3))
        d0, d1 = o1 * c2 - o2 * c1, o2 * c0 - o0 * c2
        rows.append((c0 * d1 - c1 * d0) / (c0 * c0 + c1 * c1))
    elif dim == 6:
        rows += [v[2], o0, o1, o2]
    return (np.stack(rows, axis=1), (o0, o1, o2, *v)) if twists else np.stack(rows, axis=1)


def _norms(v: np.ndarray) -> np.ndarray:
    """sqrt(v . v) of each row of v (M, n), as ``math.sqrt(v @ v)`` gives it for one row."""
    return np.sqrt((v[:, None] @ v[:, :, None])[:, 0, 0])


def _euler_stack(poses: np.ndarray):
    """``_euler_rate_inverse`` of pose rows: E^-1 (K, 3, 3), NaN where it raises, and those errors by row."""
    E_inv, errors = np.full((len(poses), 3, 3), np.nan), {}
    for i, pose in enumerate(poses):
        try:
            E_inv[i] = _euler_rate_inverse(pose)
        except ModelError as err:
            errors[i] = err
    return E_inv, errors


def _map_rates(cols: np.ndarray, E_inv: np.ndarray) -> np.ndarray:
    """Dim-6 stacked columns (K, 6, n) with rows 3-5 mapped from omega onto
    the orientation rates E^-1 omega, as ``_columns`` maps them; in place."""
    omega = np.ascontiguousarray(cols[:, 3:].swapaxes(1, 2))[..., None]
    cols[:, 3:] = (E_inv[:, None] @ omega)[..., 0].swapaxes(1, 2)
    return cols


def _gather(a: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """``a[..., elements]`` laid out by columns, as numpy lays out that gather of a
    2-D array: a product's BLAS kernel, and so its order of summation, follows
    the layout, and a stacked product of these takes the scalar one's kernel."""
    return np.take(a.swapaxes(-1, -2), elements, axis=-2).swapaxes(-1, -2)


def _ik_stack(chain: ChainModel, targets: np.ndarray, constants=None):
    """``chain_ik_best_effort`` for targets (N, task_dim), one trial per live row a round: a row that
    stops is written out once and dropped from every working array. Each row keeps its own damping, counts
    and stop test, and a rejected row's normal matrix is built again from unchanged inputs, so it takes the
    scalar solve's steps bit for bit. Returns joint vectors (N, n_elements), pose distances (N,) and, by row,
    the ModelError a scalar solve would raise. ``constants`` as in ``_stack_pass``. A stack of one is slower
    than the scalar solve."""
    n, free, eye = len(targets), chain.rigid_elements, np.eye(chain.rigid_elements.size)
    coords = np.zeros((n, len(chain.elements)))
    coords[:, free] = 0.0 if chain.ik_seed is None else chain.ik_seed
    out, distances, errors, cols = np.empty(coords.shape), np.empty(n), {}, np.empty((n, chain.task_dim, coords.shape[1]))
    rows, lam, (steps, trials), first = np.arange(n), np.zeros(n), np.zeros((2, n), dtype=int), True
    constants = _row_constants([chain], [n]) if constants is None else constants
    # inf - inf in an overflowed pass is met silently by the scalar solve's Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        pose, T, frames = _stack_pass(chain, coords, constants)
        r, better = targets - pose, np.full(n, True)  # better: rows whose last pass is their iterate's
        dist = _norms(r)
        while True:
            # the scalar stop tests
            live = (dist > _IK_TOL) & (dist < math.inf) & (steps < _IK_MAX_ITERATIONS) & bool(free.size)
            live &= (trials < 40) & (lam < math.inf)
            if chain.task_dim == 6:
                at = np.flatnonzero(live)
                E_inv, bad = _euler_stack(pose[at])
                for i, err in bad.items():
                    errors[rows[at[i]]], live[at[i]] = err, False
                E_inv = E_inv[live[at]]
            # columns only for the rows that go on and moved: a rejected trial leaves a row's J as it was
            new = better & live
            if new.all():
                cols = _stack_columns(chain, T, frames, constants)
            elif new.any():
                cols[new] = _stack_columns(chain, T[new], frames[new], constants[new])
            if not live.all():
                out[rows[~live]], distances[rows[~live]] = coords[~live], dist[~live]
                state = (rows, coords, r, dist, pose, cols, targets, constants, lam, steps, trials)
                rows, coords, r, dist, pose, cols, targets, constants, lam, steps, trials = (a[live] for a in state)
            if not rows.size:
                return out, distances, errors
            J = cols[:, :, free]
            if chain.task_dim == 6:
                J = _map_rates(J, E_inv)
            if first:  # every row has its first J, which the stop tests found finite; rows that start at one
                # seed share it, so one SVD a run of rows with the same bytes
                bits = J.reshape(len(J), -1).view(np.int64)
                run = np.concatenate([[True], (bits[1:] != bits[:-1]).any(axis=1)])
                sigma = np.linalg.svd(J[run], compute_uv=False)[np.cumsum(run) - 1, 0]
                lam, first = 1e-3 * np.maximum(sigma * sigma, 1.0), False
            trial = coords.copy()
            damped = J.swapaxes(1, 2) @ J + lam[:, None, None] * eye
            trial[:, free] += np.linalg.solve(damped, J.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]
            pose_try, T, frames = _stack_pass(chain, trial, constants)
            r_try = targets - pose_try
            try_dist = _norms(r_try)
            better = try_dist < dist
            kept = better[:, None]
            coords, r, pose = np.where(kept, trial, coords), np.where(kept, r_try, r), np.where(kept, pose_try, pose)
            dist = np.where(better, try_dist, dist)
            lam = np.where(better, np.maximum(lam * 0.3, 1e-14), lam * 10.0)
            trials = np.where(better, 0, trials + 1)
            steps = steps + better


def _reaches(r_norm):
    """True where a rigid IK's pose distance (a float or an array) met its target; False for NaN."""
    return r_norm <= _IK_FAIL_TOL


def _reached(chain: ChainModel, state: ChainState, r_norm: float) -> ChainState:
    """``state``, the chain's rigid IK, if it met its target; else raises
    OutOfWorkspaceError carrying the closest reachable distance."""
    if not _reaches(r_norm):
        message = f"pose unreachable for chain {chain.name!r}, closest distance {r_norm:.3e}"
        raise OutOfWorkspaceError(message, distance=r_norm)
    return state


def _stack_state(chain: ChainModel, stack, row: int) -> ChainState:
    """Row ``row`` of an ``_ik_stack`` result, checked as ``inverse_kinematics_unloaded``
    checks its rigid IK: the state, or the error the row stored, or OutOfWorkspaceError."""
    coords, distances, errors = stack
    if row in errors:
        raise errors[row]
    return _reached(chain, chain.state_of(coords[row]), float(distances[row]))


def _fused(chains, stack, per_chain, *shared, constants=None) -> list:
    """``stack(chain, *rows, *shared, constants)`` once per structure group of ``chains``, the chains that share
    a ``ChainModel._structure``: ``rows`` are the group's entries of each ``per_chain`` sequence (arrays of rows)
    stacked in chain order, ``chain`` is the group's first and ``constants`` the rows' ``_row_constants``: their
    own chains', or the ``constants`` given per chain, which may be another model's of its structure. Returns per
    chain its share of the result: its rows of each array, and its entries of a dict keyed by row, renumbered."""
    groups, out = {}, [None] * len(chains)
    for i, chain in enumerate(chains):
        groups.setdefault(chain._structure, []).append(i)
    for group in groups.values():
        sizes = [len(per_chain[0][i]) for i in group]
        members = [chains[i] for i in group]
        rows = [np.concatenate([a[i] for i in group]) for a in per_chain]
        own = _row_constants(members, sizes) if constants is None else np.concatenate([constants[i] for i in group])
        result = stack(members[0], *rows, *shared, own)
        ends, single = np.cumsum(sizes).tolist(), isinstance(result, np.ndarray)
        for i, lo, hi in zip(group, [0] + ends[:-1], ends):
            names = members[0].name, chains[i].name
            out[i] = _share(result, lo, hi, names) if single else tuple(_share(a, lo, hi, names) for a in result)
    return out


def _share(a, lo: int, hi: int, names: tuple):
    """Rows lo:hi of a stack's output: of an array, or of a dict keyed by row, renumbered from 0, whose errors
    name the stack's chain ``names[0]``: bound here to the rows' own chain ``names[1]``."""
    if not isinstance(a, dict):
        return a[lo:hi]
    for err in (v for r, v in a.items() if lo <= r < hi and isinstance(v, KinetostatError)):
        err.args = (str(err).replace(f"chain {names[0]!r}", f"chain {names[1]!r}", 1),)
    return {r - lo: v for r, v in a.items() if lo <= r < hi}


def _each_chain(manipulator: ManipulatorModel, solve, *per_chain) -> list:
    """``solve(chain, *items)`` for every chain, ``items`` its entries of the
    ``per_chain`` sequences; a KinetostatError leaves with the chain's index."""
    out = []
    try:
        for args in zip(manipulator.chains, *per_chain):
            out.append(solve(*args))
    except KinetostatError as err:
        err.chain_index = len(out)  # every chain before the failing one returned
        raise
    return out


def _first_errors(found: list) -> dict:
    """By row the error of its first failing chain, ``found`` per chain a stack's errors by row, each with its
    chain's index set as ``_each_chain`` sets it."""
    out = {}
    for index, by_row in reversed(list(enumerate(found))):
        for row, err in by_row.items():
            err.chain_index, out[row] = index, err
    return out


def inverse_kinematics_unloaded(manipulator: ManipulatorModel, t) -> list[ChainState]:
    """Per-chain rigid IK of the whole manipulator at a shared target pose."""
    target = manipulator.pose_array(t)
    # chain_ik_best_effort is looked up at each call, so a wrapper bound in its place sees it
    return _each_chain(manipulator, lambda chain: _reached(chain, *chain_ik_best_effort(chain, target)))
