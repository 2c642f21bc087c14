import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from kinetostat import (
    ChainModel,
    ChainState,
    JointModel,
    ModelError,
    OrthoglideSpec,
    OutOfWorkspaceError,
    SpringLaw,
    Transform,
    build_planar_orthoglide,
    inverse_kinematics_unloaded,
    jacobians,
    loaded_hessians,
    partition,
)
from kinetostat.chain import _ik_stack, chain_ik_best_effort, fk_array

from conftest import gradient_differences, random_planar_chain, random_spatial_chain, random_state


# -- forward kinematics ------------------------------------------------------


def test_fk_orthoglide_q0(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.0], theta=[0.0])
    np.testing.assert_allclose(fk_array(chain, state), [0.0, 0.0], atol=1e-15)


def test_fk_identity_chain_is_base_then_tool():
    base = Transform(translation=(0.3, -0.4, 0.0))
    tool = Transform(translation=(0.1, 0.25, 0.0))
    chain = ChainModel(
        task_dim=2,
        base_pose=base,
        elements=[
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=1.0)),
        ],
        tool_transform=tool,
    )
    pose = fk_array(chain, chain.state_of(np.zeros(len(chain.elements))))
    expected = (base.matrix @ tool.matrix)[:2, 3]
    np.testing.assert_allclose(pose, expected, atol=1e-15)


def test_fk_matches_hand_composed_planar():
    # independent oracle: compose the same chain with complex numbers
    rng = np.random.default_rng(7)
    for _ in range(10):
        chain = random_planar_chain(rng, n_joints=3)
        for _ in range(10):
            state = random_state(rng, chain)
            coords = chain.element_coordinates(state)

            def planar(T):
                return complex(T[0, 3], T[1, 3]), math.atan2(T[1, 0], T[0, 0])

            z, a = planar(chain.base_pose.matrix)
            for (link, joint), value in zip(chain.elements, coords):
                lz, la = planar(link.matrix)
                z = z + lz * complex(math.cos(a), math.sin(a))
                a = a + la
                if joint.motion == "translational":
                    step = complex(joint.axis[0], joint.axis[1]) * value
                    z = z + step * complex(math.cos(a), math.sin(a))
                else:
                    a = a + joint.axis[2] * value
            tz, _ = planar(chain.tool_transform.matrix)
            z = z + tz * complex(math.cos(a), math.sin(a))

            pose = fk_array(chain, state)
            np.testing.assert_allclose(pose, [z.real, z.imag], atol=1e-12)


def test_fk_dimension_mismatch():
    spec = OrthoglideSpec()
    chain = build_planar_orthoglide(spec).chains[0]
    with pytest.raises(ModelError):
        fk_array(chain, ChainState(rho=[1.0, 2.0], q=[], vartheta=[0.0], theta=[0.0]))


def test_pose_wrap_full_turn():
    # a 2 pi revolute motion gives back the identical pose, orientation included
    chain = ChainModel(
        task_dim=3,
        base_pose=Transform.identity(),
        elements=[
            (Transform.identity(), JointModel(kind="perfect_passive", motion="rotational", axis=(0.0, 0.0, 1.0))),
            (Transform(translation=(0.7, 0.0, 0.0)), JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=1.0)),
        ],
        tool_transform=Transform.identity(),
    )
    s1 = ChainState(rho=[], q=[0.4], vartheta=[], theta=[0.1])
    s2 = ChainState(rho=[], q=[0.4 + 2.0 * math.pi], vartheta=[], theta=[0.1])
    np.testing.assert_allclose(fk_array(chain, s1), fk_array(chain, s2), atol=1e-12)


# -- Jacobians ---------------------------------------------------------------


def test_prismatic_jacobian_column(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    state = ChainState(rho=[1.2], q=[], vartheta=[0.3], theta=[0.0])
    J_theta, _ = jacobians(chain, partition(chain, state))
    np.testing.assert_allclose(J_theta[:, 0], [1.0, 0.0], atol=1e-15)


def test_revolute_jacobian_column_is_lever(ortho_nopreload):
    # magnitude equals the lever arm, direction perpendicular to it
    chain = ortho_nopreload.chains[0]
    state = ChainState(rho=[1.2], q=[], vartheta=[0.3], theta=[0.0])
    _, J_q = jacobians(chain, partition(chain, state))
    col = J_q[:, 0]
    lever = fk_array(chain, state) - np.array([1.2, 0.0])
    assert math.isclose(np.linalg.norm(col), np.linalg.norm(lever), rel_tol=1e-12)
    assert abs(col @ lever) < 1e-12


def _reference_geometry(chain, coords):
    """Forward pass and Jacobian columns composed from geo.rotation_about and
    np.cross, the arithmetic the cached joint constants must reproduce."""
    from kinetostat import geometry as geo

    T = chain.base_pose.matrix
    frames = []
    for (link, joint), value in zip(chain.elements, coords):
        T = T @ link.matrix
        frames.append((T[:3, :3] @ np.asarray(joint.axis), T[:3, 3].copy()))
        if joint.motion == "translational":
            T = T @ geo.homogeneous(translation=np.asarray(joint.axis) * value)
        else:
            T = T @ geo.homogeneous(rotation=geo.rotation_about(joint.axis, value))
    T = T @ chain.tool_transform.matrix
    dim = chain.task_dim
    cols = np.zeros((dim, len(chain.elements)))
    for j, ((axis_w, origin_w), (_, joint)) in enumerate(zip(frames, chain.elements)):
        rotational = joint.motion == "rotational"
        v = np.cross(axis_w, T[:3, 3] - origin_w) if rotational else axis_w
        omega = axis_w if rotational else np.zeros(3)
        cols[:2, j] = v[:2]
        if dim == 3:
            c0 = T[:3, 0]
            dc0 = np.cross(omega, c0)
            cols[2, j] = (c0[0] * dc0[1] - c0[1] * dc0[0]) / (c0[0] * c0[0] + c0[1] * c0[1])
        elif dim == 6:
            rpy = geo.rpy_from_matrix(T[:3, :3])
            cols[2, j] = v[2]
            cols[3:, j] = np.linalg.inv(geo.euler_rate_matrix([geo.wrap_angle(a) for a in rpy])) @ omega
    return T, cols


@pytest.mark.parametrize("task_dim", [2, 3, 6])
def test_geometry_bitwise_equal_to_reference(task_dim):
    from kinetostat.chain import _end_transform, _loaded_derivatives

    from conftest import scalar_columns

    rng = np.random.default_rng(70 + task_dim)
    for _ in range(40):
        if task_dim == 6:
            chain = random_spatial_chain(rng)
        else:
            chain = random_planar_chain(rng, task_dim=task_dim, n_joints=5)
        coords = chain.element_coordinates(random_state(rng, chain))
        T_ref, cols_ref = _reference_geometry(chain, coords)
        assert np.array_equal(_end_transform(chain, coords)[0], T_ref)
        assert np.array_equal(scalar_columns(chain, coords), cols_ref)
        cols, _, errors = _loaded_derivatives(chain, coords[None], np.zeros((1, task_dim)))
        assert not errors and np.array_equal(cols[0], cols_ref)


def _with_identities(rng, chain):
    """The chain with its base, tool and each link replaced by the identity at random."""
    def pick(transform):
        return Transform.identity() if rng.uniform() < 0.5 else transform

    return dataclasses.replace(
        chain,
        base_pose=pick(chain.base_pose),
        elements=[(pick(link), joint) for link, joint in chain.elements],
        tool_transform=pick(chain.tool_transform),
    )


@pytest.mark.parametrize("task_dim", [2, 3, 6])
def test_identity_elision_bitwise_equal_to_reference(task_dim):
    # skipping identity base, links and tool leaves the pass and the
    # Jacobian columns equal to the fully multiplied reference
    from kinetostat.chain import _end_transform, _loaded_derivatives

    from conftest import scalar_columns

    rng = np.random.default_rng(90 + task_dim)
    skipped = 0
    for _ in range(40):
        if task_dim == 6:
            chain = random_spatial_chain(rng)
        else:
            chain = random_planar_chain(rng, task_dim=task_dim, n_joints=5)
        chain = _with_identities(rng, chain)
        skipped += sum(link.is_identity for link, _ in chain.elements)
        coords = chain.element_coordinates(random_state(rng, chain))
        T_ref, cols_ref = _reference_geometry(chain, coords)
        assert np.array_equal(_end_transform(chain, coords)[0], T_ref)
        assert np.array_equal(scalar_columns(chain, coords), cols_ref)
        cols, _, errors = _loaded_derivatives(chain, coords[None], np.zeros((1, task_dim)))
        assert not errors and np.array_equal(cols[0], cols_ref)
    assert skipped > 0


def test_identity_transforms_are_never_multiplied_in():
    # NaN in the cached matrix of every identity transform of the shipped
    # chains would reach the pose, the Jacobian and the solve if multiplied in
    from conftest import shipped_model
    from kinetostat import solve_chain_equilibrium

    model = shipped_model()
    target = np.array([0.1, 0.2])
    states = inverse_kinematics_unloaded(model, target)
    poisoned = 0
    for chain in model.chains:
        for transform in (chain.base_pose, chain.tool_transform, *(link for link, _ in chain.elements)):
            if transform.is_identity:
                transform.__dict__["matrix"] = np.full((4, 4), np.nan)
                poisoned += 1
    assert poisoned == 8  # base and three links per chain
    for chain, state in zip(model.chains, states):
        assert np.isfinite(fk_array(chain, state)).all()
        J_theta, J_q = jacobians(chain, partition(chain, state))
        assert np.isfinite(J_theta).all() and np.isfinite(J_q).all()
        eq = solve_chain_equilibrium(chain, target, state.rho, start=state)
        assert np.isfinite(eq.F).all() and eq.residual <= 1e-9


def test_is_identity_flag():
    assert Transform.identity().is_identity
    assert Transform(translation=(-0.0, 0.0, 0.0)).is_identity
    assert not Transform(translation=(0.0, 1e-300, 0.0)).is_identity
    assert not Transform(rpy=(0.0, 0.0, 2.0 * math.pi)).is_identity


def _fd_jacobian(chain, state, elements):
    coords0 = chain.element_coordinates(state)
    cols = []
    for e in elements:
        h = 1e-7 * max(1.0, abs(coords0[e]))
        cp = coords0.copy()
        cm = coords0.copy()
        cp[e] += h
        cm[e] -= h

        def pose_at(c):
            from kinetostat.chain import _end_transform, _task_pose

            T, _ = _end_transform(chain, c)
            return _task_pose(T, chain.task_dim)

        cols.append((pose_at(cp) - pose_at(cm)) / (2.0 * h))
    return np.array(cols).T


@pytest.mark.parametrize("task_dim", [2, 3])
def test_jacobian_matches_finite_differences_planar(task_dim):
    rng = np.random.default_rng(42 + task_dim)
    checked = 0
    while checked < 100:
        chain = random_planar_chain(rng, task_dim=task_dim)
        state = random_state(rng, chain)
        reg = partition(chain, state)
        J_theta, J_q = jacobians(chain, reg)
        fd_theta = _fd_jacobian(chain, state, reg.theta_elements)
        fd_q = _fd_jacobian(chain, state, reg.q_elements)
        for J, fd in ((J_theta, fd_theta), (J_q, fd_q)):
            if J.size == 0:
                continue
            for j in range(J.shape[1]):
                err = np.linalg.norm(J[:, j] - fd[:, j]) / max(1.0, np.linalg.norm(J[:, j]))
                assert err <= 1e-5
        checked += 1


def test_jacobian_matches_finite_differences_spatial():
    rng = np.random.default_rng(11)
    for _ in range(25):
        chain = random_spatial_chain(rng)
        state = random_state(rng, chain, scale=0.3)
        reg = partition(chain, state)
        J_theta, J_q = jacobians(chain, reg)
        fd_theta = _fd_jacobian(chain, state, reg.theta_elements)
        fd_q = _fd_jacobian(chain, state, reg.q_elements)
        for J, fd in ((J_theta, fd_theta), (J_q, fd_q)):
            for j in range(J.shape[1]):
                err = np.linalg.norm(J[:, j] - fd[:, j]) / max(1.0, np.linalg.norm(J[:, j]))
                assert err <= 1e-5


# -- load Hessians -----------------------------------------------------------


def _psi_hessian_fd(chain, reg, F, h=1e-5):
    k = len(reg.q_tilde)
    x0 = np.concatenate([reg.q_tilde, reg.theta_tilde])
    n = x0.size

    def psi(x):
        coords = reg.coords.copy()
        coords[reg.q_elements] = x[:k]
        coords[reg.theta_elements] = x[k:]
        return float(fk_array(chain, chain.state_of(coords)) @ F)

    H = np.zeros((n, n))
    psi0 = psi(x0)
    for i in range(n):
        for j in range(n):
            if i == j:
                xp = x0.copy(); xm = x0.copy()
                xp[i] += h; xm[i] -= h
                H[i, i] = (psi(xp) - 2.0 * psi0 + psi(xm)) / (h * h)
                continue
            xpp = x0.copy(); xpm = x0.copy(); xmp = x0.copy(); xmm = x0.copy()
            xpp[i] += h; xpp[j] += h
            xmm[i] -= h; xmm[j] -= h
            xpm[i] += h; xpm[j] -= h
            xmp[i] -= h; xmp[j] += h
            H[i, j] = (psi(xpp) - psi(xpm) - psi(xmp) + psi(xmm)) / (4.0 * h * h)
    return H[:k, :k], H[k:, k:], H[:k, k:]


def _chain_reach(chain, state):
    spans = [np.linalg.norm(chain.base_pose.translation), np.linalg.norm(chain.tool_transform.translation)]
    spans += [np.linalg.norm(link.translation) for link, _ in chain.elements]
    spans += [abs(v) for v in chain.element_coordinates(state)]
    return max(1.0, float(np.sum(spans)))


def test_hessians_match_psi_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        chain = random_planar_chain(rng)
        state = random_state(rng, chain)
        reg = partition(chain, state)
        F = rng.normal(size=2)
        H_qq, H_tt, H_qt = loaded_hessians(chain, reg, F)
        R_qq, R_tt, R_qt = _psi_hessian_fd(chain, reg, F)
        # the psi-difference oracle carries roundoff ~1e-6 |psi| at step 1e-5
        tol = 4e-6 * max(np.linalg.norm(F), 1e-3) * _chain_reach(chain, state)
        np.testing.assert_allclose(H_qq, R_qq, atol=tol)
        np.testing.assert_allclose(H_tt, R_tt, atol=tol)
        np.testing.assert_allclose(H_qt, R_qt, atol=tol)


# random chains of every task dimension; the spatial-axis ones also reach the
# yaw Hessian of dim 3 (zero on planar chains) and the out-of-plane terms of dim 2
ORACLE_CHAINS = {
    "planar-2": lambda rng: random_planar_chain(rng, task_dim=2),
    "planar-3": lambda rng: random_planar_chain(rng, task_dim=3),
    "spatial-2": lambda rng: dataclasses.replace(random_spatial_chain(rng), task_dim=2),
    "spatial-3": lambda rng: dataclasses.replace(random_spatial_chain(rng), task_dim=3),
    "spatial-6": random_spatial_chain,
}


@pytest.mark.parametrize("name", sorted(ORACLE_CHAINS))
def test_load_hessian_matches_gradient_differences(name):
    from kinetostat.chain import _loaded_derivatives

    from conftest import scalar_columns

    rng = np.random.default_rng(sorted(ORACLE_CHAINS).index(name))
    for _ in range(25):
        chain = ORACLE_CHAINS[name](rng)
        state = random_state(rng, chain, scale=0.3)
        F = rng.normal(size=chain.task_dim)
        coords = chain.element_coordinates(state)
        cols, H, errors = _loaded_derivatives(chain, coords[None], F[None])
        cols, H = cols[0], H[0]
        assert not errors
        np.testing.assert_array_equal(cols, scalar_columns(chain, coords))
        np.testing.assert_array_equal(H, H.T)
        R = gradient_differences(chain, coords, F)
        # central differences at step 1e-6 carry roundoff near 1e-10 |H|
        np.testing.assert_allclose(H, R, rtol=0.0, atol=1e-7 * max(1.0, np.abs(R).max()))


def test_hessians_zero_for_zero_wrench(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.2], theta=[0.05])
    for H in loaded_hessians(chain, partition(chain, state), np.zeros(2)):
        assert not H.any()


def test_hessians_zero_for_linear_chain():
    from conftest import two_prismatic_toy

    chain = two_prismatic_toy().chains[0]
    state = ChainState(rho=[0.4], q=[], vartheta=[], theta=[0.3, -0.2])
    for H in loaded_hessians(chain, partition(chain, state), np.array([2.0, -1.5])):
        np.testing.assert_allclose(H, 0.0, atol=1e-9)


def test_hessians_exactly_symmetric():
    rng = np.random.default_rng(5)
    chain = random_planar_chain(rng)
    state = random_state(rng, chain)
    reg = partition(chain, state)
    H_qq, H_tt, _ = loaded_hessians(chain, reg, rng.normal(size=2))
    np.testing.assert_array_equal(H_qq, H_qq.T)
    np.testing.assert_array_equal(H_tt, H_tt.T)


# -- task-space vectors --------------------------------------------------------


@pytest.mark.parametrize(
    "entry, what",
    [
        ("pose_array", "pose"),
        ("PoseVector.from_array", "pose"),
        ("solve_chain_equilibrium", "pose"),
        ("chain_ik_best_effort", "pose"),
        ("loaded_hessians", "wrench"),
        ("solve_inverse_kinetostatic", "prescribed wrench"),
        ("force_deflection", "sweep direction"),
    ],
)
@pytest.mark.parametrize("bad", ["length", "nan", "inf"])
def test_every_task_vector_is_checked_in_one_wording(ortho_nopreload, entry, what, bad):
    # a vector of the wrong length or with a non-finite entry is named the
    # same way at every entry point, with no chain index: the caller is at fault
    from kinetostat import PoseVector, force_deflection, solve_chain_equilibrium, solve_inverse_kinetostatic

    model, chain = ortho_nopreload, ortho_nopreload.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.2], theta=[0.05])
    calls = {
        "pose_array": model.pose_array,
        "PoseVector.from_array": lambda v: PoseVector.from_array(v, 2),
        "solve_chain_equilibrium": lambda v: solve_chain_equilibrium(chain, v, [1.0]),
        "chain_ik_best_effort": lambda v: chain_ik_best_effort(chain, v),
        "loaded_hessians": lambda v: loaded_hessians(chain, partition(chain, state), v),
        "solve_inverse_kinetostatic": lambda v: solve_inverse_kinetostatic(model, [0.1, 0.1], 1e-8, f_ext=v),
        "force_deflection": lambda v: force_deflection(model, [0.1, 0.1], v, 0.01, 0.005),
    }
    vector, message = {
        "length": ([0.1, 0.1, 0.0], f"{what} of length 3 does not match task dim 2"),
        "nan": ([math.nan, 0.0], f"{what} [nan, 0.0] is not finite"),
        "inf": ([0.0, -math.inf], f"{what} [0.0, -inf] is not finite"),
    }[bad]
    with pytest.raises(ModelError) as exc:
        calls[entry](vector)
    assert str(exc.value) == message
    assert exc.value.chain_index is None


def test_a_pose_vector_of_another_dimension_is_named_by_its_length(ortho_nopreload):
    from kinetostat import PoseVector

    with pytest.raises(ModelError, match=r"^pose of length 3 does not match task dim 2$"):
        ortho_nopreload.pose_array(PoseVector(p=(0.1, 0.1), phi=(0.0,), dim=3))


# -- rigid inverse kinematics -------------------------------------------------


def test_ik_q0_gives_leg_length(ortho_nopreload):
    states = inverse_kinematics_unloaded(ortho_nopreload, [0.0, 0.0])
    for s in states:
        assert math.isclose(s.rho[0], 1.0, abs_tol=1e-10)
        assert abs(s.vartheta[0]) < 1e-10


def test_ik_q2_matches_circle_intersection(ortho_spec, ortho_nopreload):
    # closed-form branch: rho = p + sqrt(L^2 - p^2)
    p = ortho_spec.p
    expected = p + math.sqrt(1.0 - p * p)
    states = inverse_kinematics_unloaded(ortho_nopreload, [p, p])
    for s in states:
        assert math.isclose(s.rho[0], expected, rel_tol=1e-12)


def test_ik_tangent_pose(ortho_nopreload):
    # fully folded: |t - axis foot| = L, the two branches coincide; the
    # double root turns a 1e-10 pose tolerance into ~1e-5 on coordinates
    chain = ortho_nopreload.chains[0]
    state, distance = chain_ik_best_effort(chain, [0.3, 1.0])
    assert distance <= 1e-10
    np.testing.assert_allclose(fk_array(chain, state), [0.3, 1.0], atol=1e-10)
    assert math.isclose(state.rho[0], 0.3, abs_tol=5e-5)


def test_ik_roundtrip_workspace(ortho_nopreload, ortho_spec):
    rng = np.random.default_rng(0)
    p = ortho_spec.p
    for _ in range(1000):
        t = rng.uniform(-p, p, size=2)
        states = inverse_kinematics_unloaded(ortho_nopreload, t)
        for chain, s in zip(ortho_nopreload.chains, states):
            assert np.linalg.norm(fk_array(chain, s) - t) <= 1e-10


def test_ik_out_of_workspace(ortho_nopreload):
    with pytest.raises(OutOfWorkspaceError) as exc:
        inverse_kinematics_unloaded(ortho_nopreload, [0.0, 1.7])
    assert exc.value.distance == pytest.approx(0.7, rel=1e-3)
    assert exc.value.chain_index == 0


def _two_pass_ik(chain, t):
    """Reference rigid IK: the same Levenberg-Marquardt iteration with a
    separate forward pass for the Jacobian of every iteration."""
    from conftest import scalar_columns

    target = np.asarray(t, dtype=float).ravel()
    n_rho, n_q = chain.n_actuated, chain.n_perfect
    free = [*chain.actuated_elements, *chain.perfect_elements, *chain.preloaded_elements]
    u = np.zeros(len(free)) if chain.ik_seed is None else chain.ik_seed.copy()

    def state(vec):
        return ChainState(vec[:n_rho], vec[n_rho : n_rho + n_q], vec[n_rho + n_q :], np.zeros(chain.n_virtual))

    r = target - fk_array(chain, state(u))
    r_norm = float(np.linalg.norm(r))
    lam = None
    eye = np.eye(len(free))
    for _ in range(200):
        if r_norm <= 1e-12 or not free:
            break
        cols = scalar_columns(chain, chain.element_coordinates(state(u)))
        J = cols[:, free]
        if lam is None:
            lam = 1e-3 * max(float(np.linalg.norm(J, 2)) ** 2, 1.0)
        g = J.T @ r
        improved = False
        for _ in range(40):
            step = np.linalg.solve(J.T @ J + lam * eye, g)
            r_try = target - fk_array(chain, state(u + step))
            try_norm = float(np.linalg.norm(r_try))
            if try_norm < r_norm:
                u = u + step
                r, r_norm = r_try, try_norm
                lam = max(lam * 0.3, 1e-14)
                improved = True
                break
            lam *= 10.0
        if not improved:
            break
    return state(u), r_norm


@pytest.mark.parametrize("task_dim", [2, 3, 6])
def test_ik_bitwise_equal_to_two_pass_reference(task_dim):
    # reachable targets (the pose of a random state) and arbitrary ones
    from kinetostat.chain import chain_ik_best_effort

    rng = np.random.default_rng(90 + task_dim)
    for i in range(30):
        if task_dim == 6:
            chain = random_spatial_chain(rng)
        else:
            chain = random_planar_chain(rng, task_dim=task_dim, n_joints=5)
        if i % 2:
            t = fk_array(chain, random_state(rng, chain, scale=0.3))
        else:
            t = fk_array(chain, chain.state_of(np.zeros(len(chain.elements)))) + rng.uniform(-1.0, 1.0, task_dim)
        state, r_norm = chain_ik_best_effort(chain, t)
        ref_state, ref_norm = _two_pass_ik(chain, t)
        assert r_norm == ref_norm
        for a, b in zip((state.rho, state.q, state.vartheta), (ref_state.rho, ref_state.q, ref_state.vartheta)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("target", [[0.3, 0.1], [0.0, 1.7]])
def test_ik_one_forward_pass_per_trial(monkeypatch, ortho_nopreload, target):
    # each Levenberg-Marquardt trial (one linear solve) runs one pass, and
    # the Jacobian of the next iteration reuses the accepted trial's frames
    import kinetostat.chain
    from kinetostat.chain import chain_ik_best_effort

    real_pass = kinetostat.chain._end_transform
    real_solve = np.linalg.solve
    passes, trials = [], []

    def counted_pass(*args, **kwargs):
        passes.append(1)
        return real_pass(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        trials.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(kinetostat.chain, "_end_transform", counted_pass)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    chain_ik_best_effort(ortho_nopreload.chains[0], target)
    assert len(trials) > 1
    assert len(passes) == 1 + len(trials)


def test_ik_builds_one_chain_state(monkeypatch, ortho_nopreload):
    # the trials write the free coordinates of an element-order vector; a
    # ChainState is built for the result only
    from kinetostat.chain import chain_ik_best_effort

    real_init = ChainState.__post_init__
    real_solve = np.linalg.solve
    states, trials = [], []

    def counted_init(self):
        states.append(1)
        real_init(self)

    def counted_solve(*args, **kwargs):
        trials.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(ChainState, "__post_init__", counted_init)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    chain_ik_best_effort(ortho_nopreload.chains[0], [0.3, 0.1])
    assert len(trials) > 1
    assert len(states) == 1


# -- rigid inverse kinematics of a stack of targets ------------------------------


def _assert_stack_is_scalar_ik(chain, targets):
    """The stacked IK gives every row the bytes of its scalar solve, and the
    ModelError of a row whose scalar solve raises one."""
    targets = np.asarray(targets, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coords, distances, errors = _ik_stack(chain, targets)
    raised = 0
    for row, t in enumerate(targets):
        try:
            state, r_norm = chain_ik_best_effort(chain, t)
        except ModelError as err:
            assert type(errors[row]) is type(err) and str(errors[row]) == str(err)
            raised += 1
            continue
        assert row not in errors
        assert np.array_equal(coords[row], chain.element_coordinates(state))
        assert np.array_equal(distances[row], r_norm, equal_nan=True)
    return raised


@pytest.mark.parametrize("task_dim", [2, 3, 6])
def test_ik_stack_bitwise_equal_to_scalar_ik(task_dim):
    # random chains without an ik_seed; reachable targets (the pose of a random
    # state), targets off the reach, far off it, and one at 1e200
    rng = np.random.default_rng(170 + task_dim)
    for _ in range(5):
        chain = random_spatial_chain(rng) if task_dim == 6 else random_planar_chain(rng, task_dim, n_joints=5)
        assert chain.ik_seed is None
        home = fk_array(chain, chain.state_of(np.zeros(len(chain.elements))))
        targets = [fk_array(chain, random_state(rng, chain, scale=0.3)) for _ in range(6)]
        targets += [home + rng.uniform(-1.0, 1.0, task_dim) for _ in range(6)]
        targets += [home + rng.uniform(-5.0, 5.0, task_dim) for _ in range(3)]
        targets.append(np.full(task_dim, 1e200))
        assert _assert_stack_is_scalar_ik(chain, targets) == 0


def test_ik_stack_bitwise_equal_on_the_orthoglide_grid(ortho_spec):
    # seeded chains; a 20 x 20 grid over the workspace, an unreachable
    # corner, a target at 1e200 and the centre
    p = ortho_spec.p
    axis = np.linspace(-p, p, 20)
    targets = [[x, y] for x in axis for y in axis] + [[5.0, 5.0], [1e200, 0.0], [0.0, 0.0]]
    for chain in build_planar_orthoglide(ortho_spec).chains:
        assert chain.ik_seed is not None
        assert _assert_stack_is_scalar_ik(chain, targets) == 0


def test_ik_stack_of_a_chain_without_rigid_coordinates():
    # only virtual springs: no free coordinate, every row keeps the rest pose
    chain = ChainModel(
        task_dim=2,
        base_pose=Transform.identity(),
        elements=[
            (Transform.identity(), JointModel("virtual_elastic", "translational", (1.0, 0.0, 0.0), stiffness=1.0)),
            (Transform.identity(), JointModel("virtual_elastic", "rotational", (0.0, 0.0, 1.0), stiffness=2.0)),
        ],
        tool_transform=Transform(translation=(1.0, 0.0, 0.0)),
    )
    assert _assert_stack_is_scalar_ik(chain, [[1.0, 0.0], [0.5, 0.2], [1e200, 0.0]]) == 0


def test_ik_stack_fails_only_the_row_at_the_euler_singularity():
    # the Euler-rate map is singular at cos ry = 0: the scalar solve of that
    # target raises a ModelError, and only that row of the stack carries it
    def joint(kind, motion, axis, **kw):
        return Transform.identity(), JointModel(kind, motion, axis, **kw)

    chain = ChainModel(
        task_dim=6,
        base_pose=Transform.identity(),
        elements=[
            joint("virtual_elastic", "translational", (1.0, 0.0, 0.0), stiffness=1.0),
            joint("actuated", "translational", (1.0, 0.0, 0.0)),
            joint("perfect_passive", "translational", (0.0, 1.0, 0.0)),
            joint("perfect_passive", "translational", (0.0, 0.0, 1.0)),
            joint("perfect_passive", "rotational", (0.0, 1.0, 0.0)),
        ],
        tool_transform=Transform(translation=(0.1, 0.0, 0.0)),
    )
    ry = [0.0, 0.3, 1.5, math.pi / 2.0, -0.7]
    targets = [[x, y, 0.1, 0.0, r, 0.0] for x in (0.3, -1.0) for y in (0.2, 2.0) for r in ry]
    assert _assert_stack_is_scalar_ik(chain, targets) == 4


@pytest.mark.parametrize("budget", [200, 3, 1])
def test_ik_stack_rows_that_stop_in_different_rounds(monkeypatch, ortho_spec, budget):
    # a row already at its target and one at 1e200 stop before the first
    # round, one out of reach ends on rejected trials, the others converge
    # round by round, or stop at an iteration budget of 3 or 1: every row is
    # its scalar solve's bytes, in stacks of 6, 1 and 0 rows
    import kinetostat.chain

    chain = build_planar_orthoglide(ortho_spec).chains[0]
    seed = np.zeros(len(chain.elements))
    seed[chain.rigid_elements] = chain.ik_seed
    targets = np.array([fk_array(chain, chain.state_of(seed)), [1e200, 0.0], [5.0, 5.0], [0.1, 0.2], [-0.3, 0.25], [0.45, -0.45]])
    real, sizes = kinetostat.chain._stack_pass, []

    def counted(chain, coords, *args):
        sizes.append(len(coords))
        return real(chain, coords, *args)

    monkeypatch.setattr(kinetostat.chain, "_IK_MAX_ITERATIONS", budget)
    monkeypatch.setattr(kinetostat.chain, "_stack_pass", counted)
    for m in (6, 1, 0):
        assert _assert_stack_is_scalar_ik(chain, targets[:m]) == 0
    assert chain_ik_best_effort(chain, targets[2])[1] > 1.0  # out of reach
    # the first pass has every row, the first trial the four still iterating
    assert sizes[:2] == [6, 4] and len(set(sizes)) > (2 if budget > 1 else 1)


def test_fused_ik_takes_one_first_damping_a_run_of_equal_j(monkeypatch, ortho_spec):
    # one fused IK stack of the x-leg, a spring twin of it (its J are the
    # x-leg's) and a y-leg with a longer tool (other J, other damping); the
    # x-leg's first target is its seed's pose, so
    # that row stops before the first round: the run of equal first J starts
    # at the x-leg's second row and runs on through the twin's rows. One SVD
    # a run, and every row is its own chain's scalar IK bit for bit
    from kinetostat.chain import _fused

    x_leg, y_leg = build_planar_orthoglide(ortho_spec).chains
    twin = _spring_twin(np.random.default_rng(7), x_leg, "twin")
    y_leg = dataclasses.replace(y_leg, tool_transform=Transform(translation=(0.0, -1.3, 0.0)))
    assert x_leg._structure == twin._structure == y_leg._structure
    seed = np.zeros(len(x_leg.elements))
    seed[x_leg.rigid_elements] = x_leg.ik_seed
    chains = [x_leg, twin, y_leg]
    targets = [np.array([fk_array(x_leg, x_leg.state_of(seed)), [0.1, 0.2], [-0.3, 0.25]]),
               np.array([[0.45, -0.45], [0.2, 0.1]]), np.array([[0.1, 0.2], [0.3, -0.1], [-0.2, -0.2]])]
    real, svd_rows = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        svd_rows.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    stacks = _fused(chains, _ik_stack, [targets])
    monkeypatch.undo()
    assert svd_rows == [2]  # the x-leg's two live rows and the twin's are one run, the y-leg's another
    for chain, t, (coords, distances, errors) in zip(chains, targets, stacks):
        assert not errors
        for row, target in enumerate(t):
            state, r_norm = chain_ik_best_effort(chain, target)
            assert coords[row].tobytes() == chain.element_coordinates(state).tobytes()
            assert distances[row].tobytes() == np.float64(r_norm).tobytes()
    assert stacks[0][1][0] == 0.0  # the x-leg's first row stopped at its seed


# -- stacked forward pass and mask groups ----------------------------------------


def _negative_zero(axis):
    """``axis`` with its smallest component turned into -0.0, renormalized."""
    a = list(axis)
    a[int(np.argmin(np.abs(a)))] = -0.0
    norm = math.sqrt(sum(v * v for v in a))
    return tuple(v / norm for v in a)


@pytest.mark.parametrize("m", [0, 1, 7])
@pytest.mark.parametrize("task_dim", [2, 3, 6])
def test_stack_pass_bitwise_equal_to_the_scalar_pass(task_dim, m):
    # row by row the bytes of _end_transform (T and every joint frame),
    # _task_pose, _twists and _columns (dim 6 after the rate map its callers
    # apply), on random chains whose base, links and tool are none of them the
    # identity; on the same chains with the base and first two links the
    # identity, as the shipped legs have them, so the first frames are the
    # pass's shared I; with an axis component of -0.0; and with a prismatic
    # coordinate of the last row at inf, which overflows that row
    from kinetostat.chain import _columns, _end_transform, _euler_stack, _map_rates, _row_constants, _stack_columns
    from kinetostat.chain import _stack_pass, _task_pose, _twists

    rng, overflowed = np.random.default_rng(230 + task_dim), 0
    for _ in range(5):
        chain = random_spatial_chain(rng) if task_dim == 6 else random_planar_chain(rng, task_dim, n_joints=5)
        transforms = [chain.base_pose, chain.tool_transform] + [link for link, _ in chain.elements]
        assert not any(transform.is_identity for transform in transforms)
        coords = np.array([chain.element_coordinates(random_state(rng, chain)) for _ in range(m)])
        coords = coords.reshape(m, len(chain.elements))
        identity = [(Transform.identity(), joint) for _, joint in chain.elements[:2]] + chain.elements[2:]
        signed = [(link, dataclasses.replace(joint, axis=_negative_zero(joint.axis))) for link, joint in chain.elements]
        prismatic = [j for j, (_, joint) in enumerate(chain.elements) if joint.motion == "translational"]
        overflow = coords.copy()
        if m and prismatic:
            overflow[-1, prismatic[0]] = math.inf
            overflowed += 1
        cases = [
            (chain, coords),
            (dataclasses.replace(chain, base_pose=Transform.identity(), elements=identity), coords),
            (dataclasses.replace(chain, elements=signed), coords),
            (chain, overflow),
        ]
        for case, x in cases:
            with np.errstate(all="ignore"):
                pose, T, frames = _stack_pass(case, x)
                cols, twists = _stack_columns(case, T, frames, _row_constants([case], [m]), True)
                if task_dim == 6:
                    cols = _map_rates(cols, _euler_stack(pose)[0])
                # the pass of the IK and equilibrium stacks, which drop the twists: a
                # dim-2 pass skips the terms its columns do not read, with the same bytes
                lean = _stack_columns(case, T, frames, _row_constants([case], [m]))
                if task_dim == 6:
                    lean = _map_rates(lean, _euler_stack(pose)[0])
            assert lean.tobytes() == cols.tobytes()
            assert pose.shape == (m, task_dim) and cols.shape == (m, task_dim, len(case.elements))
            assert T.shape == (m, 4, 4) and frames.shape == (m, len(case.elements), 4, 4)
            assert np.shape(twists) == (6, m, len(case.elements))
            for row, xs in enumerate(x):
                with np.errstate(all="ignore"):
                    T_ref, frames_ref = _end_transform(case, xs)
                    pose_ref = _task_pose(T_ref, task_dim)
                    twists_ref = _twists(case, T_ref, frames_ref)
                    cols_ref = _columns(case, T_ref, pose_ref, twists_ref)
                assert T[row].tobytes() == T_ref.tobytes()
                assert frames[row].tobytes() == np.array(frames_ref).tobytes()
                assert pose[row].tobytes() == pose_ref.tobytes()
                assert cols[row].tobytes() == cols_ref.tobytes()
                assert np.array(twists)[:, row].T.tobytes() == np.array(twists_ref).tobytes()
    assert overflowed > (2 if m else -1)  # not a vacuous check


# -- fused stacks: the rows of every chain of one structure as one stack --------


def _structure_twin(rng, chain, name):
    """A chain of ``chain``'s structure whose axes, base, links and tool are other, none the identity."""
    spatial = chain.task_dim == 6

    def transform():
        if spatial:
            return Transform(translation=tuple(rng.uniform(-0.5, 0.5, 3)), rpy=tuple(rng.uniform(-0.3, 0.3, 3)))
        return Transform(translation=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), 0.0), rpy=(0.0, 0.0, float(rng.uniform(-1, 1))))

    def axis(joint):
        if not spatial and joint.motion == "rotational":
            return (0.0, 0.0, float(rng.choice([-1.0, 1.0])))
        v = rng.normal(size=3) if spatial else np.array([rng.normal(), rng.normal(), 0.0])
        return tuple(v / np.linalg.norm(v))

    elements = [(transform(), dataclasses.replace(joint, axis=axis(joint))) for _, joint in chain.elements]
    return dataclasses.replace(chain, base_pose=transform(), elements=elements, tool_transform=transform(), name=name)


def _spring_twin(rng, chain, name):
    """``chain`` with other spring constants and the same branches: its preloads take k = 0 and offset
    -0.0 in turn, or other values, and its virtual springs other stiffnesses."""
    preloads = iter(range(len(chain.elements)))

    def joint(j):
        if j.spring is not None:
            i = next(preloads)
            k = 0.0 if i % 2 == 0 else float(rng.uniform(0.1, 2.0))
            offset = -0.0 if i % 3 != 1 else float(rng.uniform(-0.3, 0.3))
            return dataclasses.replace(j, spring=SpringLaw(k, offset, j.spring.branch))
        if j.stiffness is not None:
            return dataclasses.replace(j, stiffness=float(rng.uniform(0.5, 3.0)))
        return j

    return dataclasses.replace(chain, elements=[(link, joint(j)) for link, j in chain.elements], name=name)


@pytest.mark.parametrize("m", [0, 1, 7])
@pytest.mark.parametrize("task_dim", [2, 3, 6])
def test_fused_stack_is_each_chains_stack_bit_for_bit(task_dim, m):
    # two chains of one structure (other axes, base, links and tool), a twin
    # of the first with other spring constants, and a chain of another
    # structure, m rows each: the fused stacks, split per chain, give each
    # chain the bytes of its own stack, for the forward pass, the rigid IK,
    # the equilibrium and both block-system responses
    from kinetostat import SolverOptions
    from kinetostat.chain import _fused, _row_constants, _stack_columns, _stack_pass
    from kinetostat.equilibrium import _equilibrium_stack
    from kinetostat.stiffness import _chain_responses

    def random_chain():
        return random_spatial_chain(rng, n_joints=8) if task_dim == 6 else random_planar_chain(rng, task_dim, n_joints=5)

    rng, tally, preloads = np.random.default_rng(290 + task_dim), {"converged": 0, "responses": 0}, 0
    for _ in range(4):
        first = random_chain()
        first = dataclasses.replace(first, ik_seed=rng.uniform(-0.3, 0.3, first.rigid_elements.size), name="first")
        chains = [first, dataclasses.replace(random_chain(), name="other"), _structure_twin(rng, first, "twin")]
        chains.append(_spring_twin(rng, first, "springs"))
        assert chains[0]._structure == chains[2]._structure == chains[3]._structure != chains[1]._structure
        preloads += chains[3].n_preloaded
        x = [np.array([c.element_coordinates(random_state(rng, c)) for _ in range(m)]).reshape(m, len(c.elements)) for c in chains]
        targets = [np.array([fk_array(c, c.state_of(v)) for v in xs]).reshape(m, task_dim) for c, xs in zip(chains, x)]
        targets = [t + rng.uniform(-0.05, 0.05, t.shape) for t in targets]
        if m == 7:
            targets[2][-1] = 1e200  # an overflowed row of the rigid IK
        F = [rng.uniform(-0.5, 0.5, (m, task_dim)) for _ in chains]

        group = [chains[0], chains[2]]
        constants = _row_constants(group, [m, m])
        fused = _stack_pass(chains[0], np.concatenate([x[0], x[2]]), constants)
        fused_cols, fused_twists = _stack_columns(chains[0], *fused[1:], constants, True)
        for i, c in enumerate(group):
            own = _stack_pass(c, [x[0], x[2]][i])
            own_cols, own_twists = _stack_columns(c, *own[1:], _row_constants([c], [m]), True)
            rows = slice(i * m, (i + 1) * m)
            assert [a[rows].tobytes() for a in (*fused, fused_cols)] == [a.tobytes() for a in (*own, own_cols)]
            assert [a[rows].tobytes() for a in fused_twists] == [a.tobytes() for a in own_twists]

        with np.errstate(all="ignore"):
            iks = _fused(chains, _ik_stack, [targets])
            for c, t, (coords, distances, errors) in zip(chains, targets, iks):
                own = _ik_stack(c, t)
                assert coords.tobytes() == own[0].tobytes() and distances.tobytes() == own[1].tobytes()
                assert {row: (type(e), str(e)) for row, e in errors.items()} == {row: (type(e), str(e)) for row, e in own[2].items()}
            rho = [xs[:, c.actuated_elements] for c, xs in zip(chains, x)]
            solves = _fused(chains, _equilibrium_stack, [targets, [xs.copy() for xs in x], rho], SolverOptions())
            for c, t, xs, r, solve in zip(chains, targets, x, rho, solves):
                own = _equilibrium_stack(c, t, xs.copy(), r, SolverOptions())
                assert [a.tobytes() for a in solve[:3]] == [a.tobytes() for a in own[:3]]
                assert _errors_said(solve[3]) == _errors_said(own[3])  # each naming its own chain
                tally["converged"] += m - len(own[3])
            for sensitivity in (True, False):
                responses = _fused(chains, _chain_responses, [x, F], sensitivity)
                for c, xs, f, (response, errors) in zip(chains, x, F, responses):
                    own = _chain_responses(c, xs, f, sensitivity)
                    assert response.tobytes() == own[0].tobytes() and _errors_said(errors) == _errors_said(own[1])
                    tally["responses"] += int(np.isfinite(response).all(axis=(1, 2)).sum())
    assert min(tally.values()) > (5 if m == 7 else -1)  # not a vacuous check
    assert (preloads > 0) == (task_dim != 6)  # the spatial chains have no preloaded joint


def _errors_said(errors):
    """Errors by row as what they say: type and message."""
    return {row: (type(err), str(err)) for row, err in errors.items()}


def test_fused_stack_binds_a_rows_error_to_its_own_chain(monkeypatch):
    # the shipped legs run as one stack under the x-leg; at one iteration a
    # sweep from (-0.45, 0) solves the x-leg's sample 0 and not the y-leg's:
    # the curve's error names the y-leg and carries chain index 1, as the
    # scalar total_wrench of that sample raises it, with no scalar solve
    from conftest import forbid_scalar_solves, shipped_model, sweep_by_samples
    from kinetostat import SolverOptions, force_deflection

    model, opts = shipped_model(), SolverOptions(max_iterations=1)
    with monkeypatch.context() as m:
        forbid_scalar_solves(m)
        curve = force_deflection(model, [-0.45, 0.0], [1.0, 0.0], 0.02, 0.01, opts)
    oracle = sweep_by_samples(model, [-0.45, 0.0], [1.0, 0.0], 0.02, 0.01, opts)
    assert len(curve.deltas) == len(oracle.deltas) == 0 and curve.force_magnitude.tobytes() == oracle.force_magnitude.tobytes()
    assert "chain 'y-leg'" in str(curve.error) and curve.error.chain_index == oracle.error.chain_index == 1
    attributes = ("residual", "iterations", "restarts")
    assert [type(curve.error), str(curve.error), *(getattr(curve.error, a) for a in attributes)] == [
        type(oracle.error), str(oracle.error), *(getattr(oracle.error, a) for a in attributes)]
    assert curve.error.describe() == oracle.error.describe()


def test_chains_differing_in_a_spring_branch_a_seed_or_an_identity_link_stack_apart():
    # the y-leg differs from the x-leg only in its axes and tool, and a chain
    # whose spring differs only in k or offset only in its constants, so they
    # share a stack; a chain whose spring branch, ik_seed or a link's identity
    # differs from the x-leg's, the seed if only in the sign of a zero, runs a
    # stack of its own
    from kinetostat.chain import _fused

    x_leg, y_leg = build_planar_orthoglide(OrthoglideSpec(spring=SpringLaw(0.1, 0.0))).chains
    link, joint = x_leg.elements[2]

    def variant(name, **changes):
        return dataclasses.replace(x_leg, name=name, **changes)

    def spring(law):
        return x_leg.elements[:2] + [(link, dataclasses.replace(joint, spring=law))]

    chains = [
        x_leg,
        variant("spring", elements=spring(SpringLaw(0.2, 0.0))),
        y_leg,
        variant("offset", elements=spring(SpringLaw(0.1, -0.0))),
        variant("branch", elements=spring(SpringLaw(0.1, 0.0, "positive_part"))),
        variant("seed", ik_seed=np.array([1.0, -0.0])),
        variant("link", elements=x_leg.elements[:2] + [(Transform(translation=(0.0, 0.1, 0.0)), joint)]),
    ]
    stacks = []

    def recorded(chain, rows, constants):
        stacks.append((chain.name, rows.tolist()))
        return rows + 0.5, {len(rows) - 1: "last"}

    # each chain's rows, and its share of a dict keyed by the stack's rows, come back to it
    shares = _fused(chains, recorded, [[np.arange(3) + 10 * i for i in range(len(chains))]])
    assert stacks == [("x-leg", [0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32]), ("branch", [40, 41, 42]),
                      ("seed", [50, 51, 52]), ("link", [60, 61, 62])]
    assert [rows.tolist() for rows, _ in shares] == [[10 * i + 0.5, 10 * i + 1.5, 10 * i + 2.5] for i in range(7)]
    assert [by_row for _, by_row in shares] == [{}] * 3 + [{2: "last"}] * 4


@pytest.mark.parametrize("branch", ["linear", "positive_part"])
def test_rows_of_several_models_take_each_models_compensation_and_sweep_bit_for_bit(branch):
    # four shipped-geometry models whose springs differ in k (0 included), offset
    # (-0.0 included) and drive stiffness: their compensations as one stack of
    # (model, point) rows, and their sweeps as one sweep, give each model the
    # bytes of its own; the rigid IK of the first serves them all
    from kinetostat.chain import _fused, _ik_stack, _row_constants
    from kinetostat.control import _compensate_stack
    from kinetostat.equilibrium import _sweep

    laws = [(0.0, 0.0), (0.1, -0.0), (0.5, math.pi / 12.0), (0.05, 0.2)]
    models = [
        build_planar_orthoglide(OrthoglideSpec(K_theta=1.0 + 0.25 * i, spring=SpringLaw(k, offset, branch)))
        for i, (k, offset) in enumerate(laws)
    ]
    targets = np.array([[0.0, 0.0], [-0.45, -0.45], [0.45, 0.45], [0.3, -0.2]])
    p, count = len(targets), len(models)
    seeds = [coords for coords, _, _ in _fused(models[0].chains, _ik_stack, [[targets] * 2])]
    constants = [_row_constants(legs, [p] * count) for legs in zip(*(model.chains for model in models))]
    with np.errstate(all="ignore"):  # as its callers run it
        fused = _compensate_stack(models[0].chains, np.tile(targets, (count, 1)), [np.tile(x, (count, 1)) for x in seeds],
                                  constants, 1e-8, None)
    starts, finished = [], 0
    for i, model in enumerate(models):
        own_seeds = [coords for coords, _, _ in _fused(model.chains, _ik_stack, [[targets] * 2])]
        assert [x.tobytes() for x in own_seeds] == [x.tobytes() for x in seeds]
        with np.errstate(all="ignore"):
            own = _compensate_stack(model.chains, targets, own_seeds, [_row_constants([c], [p]) for c in model.chains], 1e-8, None)
        rows = slice(i * p, (i + 1) * p)
        arrays, own_arrays = fused[0] + fused[1] + fused[2] + list(fused[4:]), own[0] + own[1] + own[2] + list(own[4:])
        assert [a[rows].tobytes() for a in arrays] == [a.tobytes() for a in own_arrays]
        assert _errors_said({r - i * p: e for r, e in fused[3].items() if r // p == i}) == _errors_said(own[3])
        finished += p - len(own[3])
        starts.append([x[i * p + 2] for x in fused[0]])
    assert finished > p * count // 2  # not a vacuous check
    curves = _sweep(models, targets[2], [-1.0, -1.0], 0.3, 0.01, None, [None] * count, starts)
    for model, start, curve in zip(models, starts, curves):
        [own] = _sweep([model], targets[2], [-1.0, -1.0], 0.3, 0.01, None, [None], [start])
        arrays = ("deltas", "force_magnitude", "force_along", "direction")
        assert [getattr(curve, a).tobytes() for a in arrays] == [getattr(own, a).tobytes() for a in arrays]
        assert (type(curve.error), str(curve.error)) == (type(own.error), str(own.error))
        assert len(curve.deltas) > 1


def _groups_by_sorting(chain, masks):
    """``ChainModel._by_mask`` as ``np.unique`` over the mask rows gives it."""
    unique, inverse = np.unique(masks, axis=0, return_inverse=True)
    return [(np.flatnonzero(inverse.ravel() == i), chain.regrouping(mask)) for i, mask in enumerate(unique)]


def _two_spring_chain(preloaded=True):
    """A planar chain with two preloaded revolutes, or with perfect ones in their place."""
    def joint(kind, motion, axis, **kw):
        return Transform(translation=(0.5, 0.0, 0.0)), JointModel(kind, motion, axis, **kw)

    kind = "preloaded_passive" if preloaded else "perfect_passive"
    springs = [{"spring": SpringLaw(1.0, 0.1, "positive_part")}, {"spring": SpringLaw(2.0, -0.1)}] if preloaded else [{}, {}]
    return ChainModel(
        task_dim=2,
        base_pose=Transform.identity(),
        elements=[
            joint("actuated", "translational", (1.0, 0.0, 0.0)),
            joint("virtual_elastic", "translational", (1.0, 0.0, 0.0), stiffness=1.0),
            joint(kind, "rotational", (0.0, 0.0, 1.0), **springs[0]),
            joint(kind, "rotational", (0.0, 0.0, 1.0), **springs[1]),
        ],
        tool_transform=Transform(translation=(0.5, 0.0, 0.0)),
    )


@pytest.mark.parametrize(
    "preloaded, rows, groups",
    [
        (True, [], 0),
        (True, [[True, False]] * 6, 1),
        (True, [[True, False], [False, False], [True, True], [True, False], [False, True], [True, True]], 4),
        (False, [[]] * 5, 1),
        (False, [], 0),
    ],
    ids=["no-rows", "one-mask", "mixed-masks", "no-preloaded-joint", "no-preloaded-joint-no-rows"],
)
def test_by_mask_groups_as_sorting_the_masks(preloaded, rows, groups):
    # the one-mask shortcut gives the groups, row indices and shared layouts
    # of sorting the masks, an empty stack included
    chain = _two_spring_chain(preloaded)
    masks = np.array(rows, dtype=bool).reshape(len(rows), chain.n_preloaded)
    got, expected = chain._by_mask(masks), _groups_by_sorting(chain, masks)
    assert len(got) == len(expected) == groups
    for (rows_got, layout), (rows_expected, layout_expected) in zip(got, expected):
        assert rows_got.dtype == rows_expected.dtype and np.array_equal(rows_got, rows_expected)
        assert layout is layout_expected


def _preloaded_chain(width):
    """A planar chain of one drive, one virtual spring and ``width`` preloaded revolutes."""
    slide = (Transform.identity(), JointModel("actuated", "translational", (1.0, 0.0, 0.0)))
    spring = (Transform.identity(), JointModel("virtual_elastic", "translational", (1.0, 0.0, 0.0), stiffness=1.0))
    law = SpringLaw(1.0, 0.0, "positive_part")
    turn = (Transform(translation=(0.1, 0.0, 0.0)), JointModel("preloaded_passive", "rotational", (0.0, 0.0, 1.0), spring=law))
    return ChainModel(task_dim=2, base_pose=Transform.identity(), elements=[slide, spring] + [turn] * width,
                      tool_transform=Transform.identity())


@pytest.mark.parametrize("width", [1, 2, 8, 9, 62, 63, 64, 65, 130])
def test_by_mask_groups_random_masks_as_sorting_them(width):
    # random masks of any width group as sorting them does, two masks that
    # differ only in their last column (the 65th and the 131st included) too
    chain, rng = _preloaded_chain(width), np.random.default_rng(width)
    for rows in (2, 9, 40):
        distinct = rng.random((5, width)) < 0.5
        distinct[1] = distinct[0]
        distinct[1, -1] = ~distinct[0, -1]
        masks = distinct[rng.integers(0, 5, rows)]
        masks[:2] = distinct[:2]
        got, expected = chain._by_mask(masks), _groups_by_sorting(chain, masks)
        assert len(got) == len(expected) > 1
        for (rows_got, layout), (rows_expected, layout_expected) in zip(got, expected):
            assert rows_got.dtype == rows_expected.dtype and np.array_equal(rows_got, rows_expected)
            assert layout is layout_expected


# -- the chain-failure rule ----------------------------------------------------


def _upright_document():
    """A dim-6 model of two copies of one chain: slider along x, passive y
    and z slides, a passive pitch joint, then six virtual springs. The
    first copy's IK seed is level; the second's pitches the end upright
    (ry = pi/2), where the roll-pitch-yaw rate map is singular."""

    def joint(kind, motion, axis, **kw):
        return {"joint": {"kind": kind, "motion": motion, "axis": axis, **kw}}

    x, y, z = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
    elements = [
        joint("actuated", "translational", x),
        joint("perfect_passive", "translational", y),
        joint("perfect_passive", "translational", z),
        joint("perfect_passive", "rotational", y),
    ]
    elements += [joint("virtual_elastic", m, a, stiffness=1.0) for m in ("translational", "rotational") for a in (x, y, z)]
    chains = [
        {"name": name, "tool": {"translation": [0.1, 0.0, 0.0]}, "ik_seed": [0.0, 0.0, 0.0, pitch], "elements": elements}
        for name, pitch in (("level", 0.0), ("upright", math.pi / 2.0))
    ]
    box = {"min": [-0.2, -0.2, -0.1], "max": [0.2, 0.2, 0.1]}
    return {"version": "kinetostat/1", "task_dim": 6, "workspace": box, "chains": chains}


def _failure_in_chain_1(site):
    """The error that ``site``, one of the per-chain loops, raises when chain 1 fails."""
    from kinetostat import SingularityError, sensitivity_matrix, total_wrench
    from kinetostat.equilibrium import EquilibriumResult
    from kinetostat.orthoglide import _critical_points
    from kinetostat.springs import regroup
    from kinetostat.stiffness import _aggregate_stiffness, _responses

    from conftest import shipped_model

    model = shipped_model()
    _, eqs = total_wrench(model, [0.1, 0.1], [1.0, 1.0])
    # the y-leg's bar turned across its drive: both its spring columns point along y
    y_leg = model.chains[1]
    flat = EquilibriumResult(np.zeros(2), 0.0, 0, 0, regroup(y_leg, np.array([1.0, 0.0, math.pi / 2.0])), y_leg)
    calls = {
        "inverse_kinematics_unloaded": (OutOfWorkspaceError, lambda: inverse_kinematics_unloaded(model, [1.5, 0.0])),
        "total_wrench": (
            ModelError,
            lambda: total_wrench(model, [0.1, 0.1], [1.0, 1.0], starts=[eqs[0].regrouped.coords, np.zeros(2)]),
        ),
        "stiffness._responses": (SingularityError, lambda: _responses(model.chains, [eqs[0], flat], True)),
        "sensitivity_matrix": (  # the y-leg's stacked equilibrium, started flat
            SingularityError,
            lambda: sensitivity_matrix(model, [0.1, 0.1], [1.0, 1.0], starts=[eqs[0].regrouped.coords, flat.regrouped.coords]),
        ),
        "stiffness._aggregate_stiffness": (SingularityError, lambda: _aggregate_stiffness(model, [eqs[0], flat])),
        "orthoglide._critical_point": (  # the critical-point search, _critical_points of one model
            SingularityError,
            lambda: _critical_points(
                [model], [0.1, 0.1], np.array([1.0, 1.0]) / math.sqrt(2.0), 0.3, None,
                [[eqs[0].regrouped.coords, flat.regrouped.coords]],
            ),
        ),
    }
    error, call = calls[site]
    with pytest.raises(error) as exc:
        call()
    return exc.value


@pytest.mark.parametrize(
    "site",
    [
        "inverse_kinematics_unloaded",
        "total_wrench",
        "stiffness._responses",
        "sensitivity_matrix",
        "stiffness._aggregate_stiffness",
        "orthoglide._critical_point",
        "orthoglide.compliance_grid",
    ],
)
def test_a_failure_inside_one_chain_carries_its_index(site, tmp_path, capsys):
    # every per-chain loop tags the error of the chain that failed, here chain 1
    if site != "orthoglide.compliance_grid":
        assert _failure_in_chain_1(site).chain_index == 1
        return
    # the grid re-raises the ModelError its IK stack stored for a row, in every cell
    from kinetostat.cli import main

    path = tmp_path / "upright.json"
    path.write_text(json.dumps(_upright_document()))
    assert main(["map", "--model", str(path), "--grid", "2"]) == 0
    reason = "model error on chain 1: orientation parametrization singular (cos ry ~ 0)"
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.endswith(f" failed: {reason}") for line in lines)


def test_a_model_error_inside_a_chain_solve_carries_its_index():
    # the upright chain's cold start hits the Euler singularity inside its
    # equilibrium solve; the level chain before it converges
    from kinetostat import ManipulatorModel, parse_model, total_wrench

    model = parse_model(json.dumps(_upright_document()))
    target = [0.1, 0.0, 0.0, 0.0, 0.0, 0.0]
    F, _ = total_wrench(ManipulatorModel(task_dim=6, chains=model.chains[:1]), target, [0.0])
    assert np.isfinite(F).all()
    with pytest.raises(ModelError, match="orientation parametrization singular") as exc:
        total_wrench(model, target, [0.0, 0.0])
    assert exc.value.chain_index == 1


def test_sweep_row_whose_ik_stored_a_model_error_raises_it():
    # the upright chain's IK stack stores the Euler singularity for every row:
    # row 0 is solved from the given starts, but row 1 is a cold solve, whose
    # rigid IK raises that ModelError, so the sweep ends with it
    from kinetostat import ManipulatorModel, force_deflection, parse_model, total_wrench

    model = parse_model(json.dumps(_upright_document()))
    target = [0.1, 0.0, 0.0, 0.0, 0.0, 0.0]
    _, (level,) = total_wrench(ManipulatorModel(task_dim=6, chains=model.chains[:1]), target, [0.0])
    starts = [level.regrouped.coords] * 2
    curve = force_deflection(model, target, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.0, 0.01, starts=starts)
    assert len(curve.deltas) == 1 and not curve.truncated
    with pytest.raises(ModelError, match="orientation parametrization singular") as exc:
        force_deflection(model, target, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.02, 0.01, starts=starts)
    assert exc.value.chain_index == 1
