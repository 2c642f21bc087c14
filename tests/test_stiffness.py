import numpy as np
import pytest

from kinetostat import (
    ChainModel,
    ChainState,
    EquilibriumResult,
    JointModel,
    ModelError,
    SpringSofteningError,
    Transform,
    chain_stiffness,
    directional_stiffness,
    inverse_kinematics_unloaded,
    jacobians,
    manipulator_stiffness,
    partition,
    solve_chain_equilibrium,
    solve_inverse_kinetostatic,
    stiffness_vs_fd_check,
    total_wrench,
    workspace_points,
)

from kinetostat.stiffness import _aggregate_stiffness

from conftest import DIAG, linear_preload_model, stop_limit_model, two_prismatic_toy


def test_single_chain_rank_one_outer_product(ortho_nopreload):
    # unloaded chain stiffness is the axial law spread over the leg direction
    chain = ortho_nopreload.chains[0]
    target = np.array([0.25, 0.4])
    state = inverse_kinematics_unloaded(ortho_nopreload, target)[0]
    eq = solve_chain_equilibrium(chain, target, state.rho)
    K = chain_stiffness(chain, eq)
    leg = target - np.array([state.rho[0], 0.0])
    leg /= np.linalg.norm(leg)
    cos_alpha = abs(leg[0])
    expected = np.outer(leg, leg) / cos_alpha**2
    np.testing.assert_allclose(K, expected, atol=1e-9)
    assert np.linalg.matrix_rank(K, tol=1e-9 * np.linalg.norm(K, 2)) == 1


@pytest.mark.parametrize("kv", [0.01, 0.05, 0.1])
def test_preloaded_centre_is_diagonal(kv):
    model = linear_preload_model(kv)
    res = manipulator_stiffness(model, [0.0, 0.0], [[1.0], [1.0]])
    np.testing.assert_allclose(res.K_sigma, (1.0 + kv) * np.eye(2), atol=1e-9)
    assert res.rank_c == [2, 2]


def test_zero_wrench_reduces_to_classic_model(ortho_nopreload):
    # at F = 0 the block system must collapse to the Hessian-free form
    chain = ortho_nopreload.chains[0]
    target = np.array([0.1, 0.3])
    state = inverse_kinematics_unloaded(ortho_nopreload, target)[0]
    eq = solve_chain_equilibrium(chain, target, state.rho)
    assert np.linalg.norm(eq.F) < 1e-12
    K = chain_stiffness(chain, eq)

    J_theta, J_q = jacobians(chain, partition(chain, eq.state))
    d = chain.task_dim
    k = J_q.shape[1]
    A = np.zeros((d + k, d + k))
    A[:d, :d] = (J_theta / partition(chain, eq.state).k_tilde) @ J_theta.T
    A[:d, d:] = J_q
    A[d:, :d] = J_q.T
    K_classic = np.linalg.inv(A)[:d, :d]
    np.testing.assert_allclose(K, K_classic, atol=1e-12)


def test_manipulator_stiffness_reference_points(ortho_spec, ortho_nopreload):
    q0, q1, q2 = workspace_points(ortho_spec)
    res0 = manipulator_stiffness(ortho_nopreload, q0, [[1.0], [1.0]])
    np.testing.assert_allclose(res0.K_sigma, np.eye(2), atol=1e-9)

    rho1 = [s.rho for s in inverse_kinematics_unloaded(ortho_nopreload, q1)]
    k1 = directional_stiffness(manipulator_stiffness(ortho_nopreload, q1, rho1).K_sigma, -DIAG)
    assert k1 == pytest.approx(2.276, rel=0.02)

    rho2 = [s.rho for s in inverse_kinematics_unloaded(ortho_nopreload, q2)]
    k2 = directional_stiffness(manipulator_stiffness(ortho_nopreload, q2, rho2).K_sigma, DIAG)
    assert k2 == pytest.approx(0.24, rel=0.03)


def test_directional_stiffness_isotropic_and_axis():
    K = 3.7 * np.eye(2)
    assert directional_stiffness(K, [1.0, 0.0]) == pytest.approx(3.7)
    assert directional_stiffness(K, DIAG) == pytest.approx(3.7)
    assert directional_stiffness(np.diag([2.0, 5.0]), [1.0, 0.0]) == pytest.approx(2.0)
    with pytest.raises(ModelError):
        directional_stiffness(K, [1.0, 1.0])


def test_fd_check_unloaded_centre(ortho_nopreload):
    dev = stiffness_vs_fd_check(ortho_nopreload, [0.0, 0.0], [[1.0], [1.0]], h=1e-6)
    assert dev <= 1e-4


def test_fd_check_loaded_pose(ortho_spec, ortho_nopreload):
    # displaced toward the flat corner: Hessian terms engaged
    q2 = workspace_points(ortho_spec)[2].as_array()
    rho = [s.rho for s in inverse_kinematics_unloaded(ortho_nopreload, q2)]
    dev = stiffness_vs_fd_check(ortho_nopreload, q2 + 0.05 * DIAG, rho, h=1e-6)
    assert dev <= 1e-3


def test_fd_check_exact_on_linear_toy():
    toy = two_prismatic_toy()
    dev = stiffness_vs_fd_check(toy, [0.3, -0.2], [[0.1]], h=1e-6)
    assert dev <= 1e-10


def test_symmetry_and_preloaded_rank(ortho_spec):
    model = linear_preload_model(0.1)
    rng = np.random.default_rng(4)
    for _ in range(10):
        t = rng.uniform(-0.45, 0.45, size=2)
        rho = [s.rho for s in inverse_kinematics_unloaded(model, t)]
        res = manipulator_stiffness(model, t, rho)
        for K, rank in zip(res.K_c, res.rank_c):
            assert np.linalg.norm(K - K.T) <= 1e-9 * max(np.linalg.norm(K), 1.0)
            assert rank == 2  # angular preload adds the lateral load path
        assert np.linalg.cond(res.K_sigma) < 1e12


def test_aggregate_nonsingular_inside_square(ortho_nopreload, ortho_spec):
    p = ortho_spec.p
    for x in np.linspace(-p, p, 5):
        for y in np.linspace(-p, p, 5):
            rho = [s.rho for s in inverse_kinematics_unloaded(ortho_nopreload, [x, y])]
            res = manipulator_stiffness(ortho_nopreload, [x, y], rho)
            assert np.isfinite(np.linalg.cond(res.K_sigma))
            assert np.linalg.cond(res.K_sigma) < 1e9


def test_spring_softening_error():
    # compressive radial load equal to kـr/L wipes out the rotational stiffness
    chain = ChainModel(
        task_dim=2,
        base_pose=Transform.identity(),
        elements=[
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=2.0)),
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="rotational", axis=(0.0, 0.0, 1.0), stiffness=0.5)),
        ],
        tool_transform=Transform(translation=(1.0, 0.0, 0.0)),
        name="softening-toy",
    )
    state = ChainState(rho=[], q=[], vartheta=[], theta=[0.0, 0.0])
    reg = partition(chain, state)
    eq = EquilibriumResult(
        F=np.array([-0.5, 0.0]),  # exactly cancels the 0.5 rotational stiffness
        q_tilde=reg.q_tilde,
        theta_tilde=reg.theta_tilde,
        active_mask=reg.active_mask,
        residual=0.0,
        iterations=1,
        restarts=0,
        regrouped=reg,
        state=state,
    )
    with pytest.raises(SpringSofteningError):
        chain_stiffness(chain, eq)


def test_buckled_stiffness_flagged_not_error(ortho_spec, ortho_nopreload):
    # past the force peak the aggregate turns indefinite and is only flagged
    q2 = workspace_points(ortho_spec)[2].as_array()
    rho = [s.rho for s in inverse_kinematics_unloaded(ortho_nopreload, q2)]
    res = manipulator_stiffness(ortho_nopreload, q2 + 0.25 * DIAG, rho)
    assert directional_stiffness(res.K_sigma, DIAG) < 0.0
    assert res.indefinite


@pytest.mark.parametrize("model_name", ["linear", "stop_limit"])
@pytest.mark.parametrize("point", [1, 2])
def test_stiffness_at_compensation_equilibria_is_identical(ortho_spec, model_name, point):
    # the compensation's last accepted equilibria are the ones a fresh
    # solve at the returned rho finds, to the bit
    model = linear_preload_model(0.1) if model_name == "linear" else stop_limit_model()
    pose = workspace_points(ortho_spec)[point]
    opts = ortho_spec.options()
    sol = solve_inverse_kinetostatic(model, pose, 1e-8, opts)
    reused = _aggregate_stiffness(model, sol.equilibria)
    fresh = manipulator_stiffness(model, pose, sol.rho, opts)
    assert np.array_equal(reused.K_sigma, fresh.K_sigma)
    assert all(np.array_equal(a, b) for a, b in zip(reused.K_c, fresh.K_c))
    assert reused.condition == fresh.condition
    assert reused.indefinite == fresh.indefinite


@pytest.mark.parametrize("build", [lambda: linear_preload_model(0.1), stop_limit_model])
def test_reported_condition_and_rank_come_from_full_svds(build):
    # the reported condition is the exact 2-norm condition of each chain's
    # block matrix, and rank_c counts K_c's singular values above 1e-9 smax
    from kinetostat.stiffness import _block_system

    model = build()
    res = manipulator_stiffness(model, [0.3, 0.4], [[1.2], [1.1]])
    for chain, eq, K, cond, rank in zip(model.chains, res.equilibria, res.K_c, res.condition, res.rank_c):
        A = _block_system(chain, eq)[0]
        assert cond == float(np.linalg.cond(A))
        smax = float(np.linalg.norm(K, 2))
        assert rank == int(np.linalg.matrix_rank(K, tol=1e-9 * smax))


def _count_forward_passes(monkeypatch):
    import kinetostat.chain

    real = kinetostat.chain._end_transform
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kinetostat.chain, "_end_transform", counted)
    return calls


@pytest.mark.parametrize("block", ["_chain_stiffness_diag", "_chain_sensitivity"])
def test_one_forward_pass_per_block(monkeypatch, block):
    # the Jacobians and the whole load Hessian come from one pass; central
    # differences of J^T F made 5 (stiffness) and 8 (sensitivity) here
    from importlib import resources

    import kinetostat.stiffness
    from kinetostat.modelfile import parse_model

    text = resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text()
    model = parse_model(text)
    rho = [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, [0.3, 0.2])]
    _, equilibria = total_wrench(model, [0.3, 0.2], rho)
    passes = _count_forward_passes(monkeypatch)
    for chain, eq in zip(model.chains, equilibria):
        assert np.any(eq.F)
        passes.clear()
        getattr(kinetostat.stiffness, block)(chain, eq)
        assert len(passes) == 1
