import dataclasses
import math

import numpy as np
import pytest

from kinetostat import (
    ChainModel,
    ChainState,
    JointModel,
    ModelError,
    OrthoglideSpec,
    OutOfWorkspaceError,
    Transform,
    build_planar_orthoglide,
    forward_kinematics,
    inverse_kinematics_unloaded,
    jacobians,
    loaded_hessians,
    partition,
)
from kinetostat.chain import chain_ik_unloaded, fk_array

from conftest import gradient_differences, random_planar_chain, random_spatial_chain, random_state


# -- forward kinematics ------------------------------------------------------


def test_fk_orthoglide_q0(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.0], theta=[0.0])
    pose = forward_kinematics(chain, state)
    np.testing.assert_allclose(pose.as_array(), [0.0, 0.0], atol=1e-15)


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
    pose = fk_array(chain, chain.zero_state())
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
        forward_kinematics(chain, ChainState(rho=[1.0, 2.0], q=[], vartheta=[0.0], theta=[0.0]))


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
    from kinetostat.chain import _end_transform, _geometry_and_columns

    rng = np.random.default_rng(70 + task_dim)
    for _ in range(40):
        if task_dim == 6:
            chain = random_spatial_chain(rng)
        else:
            chain = random_planar_chain(rng, task_dim=task_dim, n_joints=5)
        coords = chain.element_coordinates(random_state(rng, chain))
        T_ref, cols_ref = _reference_geometry(chain, coords)
        assert np.array_equal(_end_transform(chain, coords, with_joint_frames=False)[0], T_ref)
        assert np.array_equal(_geometry_and_columns(chain, coords)[1], cols_ref)


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

            T, _ = _end_transform(chain, c, with_joint_frames=False)
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
        state = reg.scatter(chain, q_tilde=x[:k], theta_tilde=x[k:])
        return float(fk_array(chain, state) @ F)

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
    from kinetostat.chain import _geometry_and_columns, _loaded_derivatives

    rng = np.random.default_rng(sorted(ORACLE_CHAINS).index(name))
    for _ in range(25):
        chain = ORACLE_CHAINS[name](rng)
        state = random_state(rng, chain, scale=0.3)
        reg = partition(chain, state)
        F = rng.normal(size=chain.task_dim)
        coords = chain.element_coordinates(state)
        cols, H = _loaded_derivatives(chain, reg, F)
        np.testing.assert_array_equal(cols, _geometry_and_columns(chain, coords)[1])
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
    state = chain_ik_unloaded(chain, [0.3, 1.0])
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
    from kinetostat.chain import _geometry_and_columns

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
        _, cols = _geometry_and_columns(chain, chain.element_coordinates(state(u)))
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
            t = fk_array(chain, chain.zero_state()) + rng.uniform(-1.0, 1.0, task_dim)
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
