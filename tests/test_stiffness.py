import itertools
import math

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

from kinetostat.stiffness import _aggregate_stiffness, _chain_responses, _responses

from conftest import DIAG, linear_preload_model, stop_limit_model, two_prismatic_toy


def test_single_chain_rank_one_outer_product(ortho_nopreload):
    # unloaded chain stiffness is the axial law spread over the leg direction
    chain = ortho_nopreload.chains[0]
    target = np.array([0.25, 0.4])
    state = inverse_kinematics_unloaded(ortho_nopreload, target)[0]
    eq = solve_chain_equilibrium(chain, target, state.rho)
    [K] = _responses([chain], [eq], False)
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
    [K] = _responses([chain], [eq], False)

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
            (Transform.identity(), JointModel(kind="actuated", motion="translational", axis=(1.0, 0.0, 0.0))),
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=2.0)),
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="rotational", axis=(0.0, 0.0, 1.0), stiffness=0.5)),
        ],
        tool_transform=Transform(translation=(1.0, 0.0, 0.0)),
        name="softening-toy",
    )
    state = ChainState(rho=[0.0], q=[], vartheta=[], theta=[0.0, 0.0])
    reg = partition(chain, state)
    eq = EquilibriumResult(
        F=np.array([-0.5, 0.0]),  # exactly cancels the 0.5 rotational stiffness
        residual=0.0,
        iterations=1,
        restarts=0,
        regrouped=reg,
        chain=chain,
    )
    with pytest.raises(SpringSofteningError, match="loaded spring block of chain 'softening-toy' lost invertibility"):
        _responses([chain], [eq], False)
    # the stack of one that raised it leaves the softened row NaN, with that error
    for sensitivity, columns in ((True, 1), (False, 2)):
        with np.errstate(all="ignore"):
            row, errors = _chain_responses(chain, reg.coords[None], eq.F[None], sensitivity)
        assert row.shape == (1, 2, columns) and np.isnan(row).all()
        assert list(errors) == [0] and type(errors[0]) is SpringSofteningError
        assert str(errors[0]).startswith("loaded spring block of chain 'softening-toy' lost invertibility (condition ")


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
    # block matrix, built here from the Jacobians and load Hessians, and
    # rank_c counts K_c's singular values above 1e-9 smax
    from kinetostat import loaded_hessians

    model = build()
    res = manipulator_stiffness(model, [0.3, 0.4], [[1.2], [1.1]])
    for chain, eq, K, cond, rank in zip(model.chains, res.equilibria, res.K_c, res.condition, res.rank_c):
        (J_theta, J_q), (H_qq, H_tt, H_qt) = jacobians(chain, eq.regrouped), loaded_hessians(chain, eq.regrouped, eq.F)
        kf = np.linalg.inv(np.diag(eq.regrouped.k_tilde) - H_tt)
        A = np.block([[J_theta @ kf @ J_theta.T, J_q + J_theta @ kf @ H_qt.T], [J_q.T + H_qt @ kf @ J_theta.T, H_qq + H_qt @ kf @ H_qt.T]])
        s = np.linalg.svd(A, compute_uv=False)
        assert cond == pytest.approx(s[0] / s[-1], rel=1e-9)
        smax = float(np.linalg.norm(K, 2))
        assert rank == int(np.linalg.matrix_rank(K, tol=1e-9 * smax))


def test_condition_computed_only_when_read(monkeypatch):
    # the reported condition takes one SVD per chain, both legs' in one call;
    # only `stiffness --json` prints it, so the table, the map and the critical
    # search never pay for it
    from kinetostat import OrthoglideSpec, compliance_grid, reproduce_table1

    from conftest import shipped_model

    real = np.linalg.cond
    calls = []

    def counted(A, *args, **kwargs):
        calls.append(len(A))  # matrices in the stack
        return real(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    reproduce_table1(OrthoglideSpec())
    compliance_grid(shipped_model(), 4)
    res = manipulator_stiffness(linear_preload_model(0.1), [0.3, 0.4], [[1.2], [1.1]])
    assert calls == []
    condition = res.condition
    assert calls == [2] and res.condition is condition and calls == [2]


def _count_forward_passes(monkeypatch):
    """The rows of every forward pass from now on, None for a scalar pass."""
    import kinetostat.chain

    scalar, stacked, calls = kinetostat.chain._end_transform, kinetostat.chain._stack_pass, []

    def counted_scalar(*args):
        calls.append(None)
        return scalar(*args)

    def counted_stacked(chain, coords, *args):
        calls.append(len(coords))
        return stacked(chain, coords, *args)

    monkeypatch.setattr(kinetostat.chain, "_end_transform", counted_scalar)
    monkeypatch.setattr(kinetostat.chain, "_stack_pass", counted_stacked)
    return calls


@pytest.mark.parametrize("sensitivity", [False, True])
def test_one_forward_pass_per_block(monkeypatch, sensitivity):
    # the Jacobians and the whole load Hessian of both legs come from one
    # stacked pass of a row each; central differences of J^T F made 5
    # (stiffness) and 8 (sensitivity) passes a leg here
    from importlib import resources

    from kinetostat.modelfile import parse_model

    text = resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text()
    model = parse_model(text)
    rho = [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, [0.3, 0.2])]
    _, equilibria = total_wrench(model, [0.3, 0.2], rho)
    assert all(np.any(eq.F) for eq in equilibria)
    passes = _count_forward_passes(monkeypatch)
    _responses(model.chains, equilibria, sensitivity)
    assert passes == [2]


@pytest.mark.parametrize(
    "u, match",
    [([math.nan, 0.0], "direction u must be a unit vector"), ([1.0, 0.0, 0.0], "direction u of length 3")],
)
def test_directional_stiffness_names_a_bad_direction(u, match):
    # NaN passed the old |norm - 1| > tol test; a wrong length failed inside matmul
    with pytest.raises(ModelError, match=match):
        directional_stiffness(np.eye(2), u)


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-6])
def test_fd_check_names_a_bad_step(ortho_nopreload, h):
    # NaN passed the old h <= 0 test and failed later as a non-finite pose
    with pytest.raises(ModelError, match="finite-difference step h"):
        stiffness_vs_fd_check(ortho_nopreload, [0.0, 0.1], [[1.0], [1.0]], h=h)


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_stacked_block_systems_are_the_scalar_ones_bit_for_bit(monkeypatch, dim):
    # dF/drho and the chain stiffness of stacked equilibria, grouped by active
    # mask, equal the single-pose block systems' (a stack of one row) to the
    # bit, or carry their error, also when a Frobenius bound that clears
    # nothing sends every system through the SVD branch; every row that
    # solves among the first three of a chain matches central differences of
    # the scalar equilibrium's wrench in rho (dF/drho) or in the pose (K)
    import kinetostat.equilibrium
    from conftest import random_planar_chain, random_spatial_chain, random_state
    from kinetostat import KinetostatError, solve_chain_equilibrium
    from kinetostat.chain import fk_array

    def fd_response(eq, target, rho, sensitivity, h=1e-4):
        """Central differences of F in rho or in the pose, warm-started from ``eq``; None where a solve
        fails or the active set moves."""
        columns = []
        for j in range(rho.size if sensitivity else dim):
            ends = []
            for sign in (1.0, -1.0):
                r, t = rho.copy(), target.copy()
                (r if sensitivity else t)[j] += sign * h
                try:
                    moved = solve_chain_equilibrium(chain, t, r, start=eq.regrouped.coords)
                except KinetostatError:
                    return None
                if not np.array_equal(moved.regrouped.active_mask, eq.regrouped.active_mask):
                    return None
                ends.append(moved.F)
            columns.append((ends[0] - ends[1]) / (2.0 * h))
        return np.array(columns).reshape(-1, dim).T

    rng = np.random.default_rng(10 + dim)
    compared = differenced = 0
    for _ in range(8):
        chain = random_spatial_chain(rng, n_joints=8) if dim == 6 else random_planar_chain(rng, task_dim=dim, n_joints=5)
        equilibria, targets = [], []
        for _ in range(12):
            x = chain.element_coordinates(random_state(rng, chain))
            target = fk_array(chain, chain.state_of(x)) + rng.uniform(-0.05, 0.05, dim)
            try:
                equilibria.append(solve_chain_equilibrium(chain, target, x[chain.actuated_elements], start=x))
                targets.append(target)
            except KinetostatError:
                pass
        if not equilibria:
            continue
        coords = np.array([eq.regrouped.coords for eq in equilibria])
        F = np.array([eq.F for eq in equilibria])
        for sensitivity, clear in itertools.product((True, False), (None, 0.0)):
            with monkeypatch.context() as m:
                if clear is not None:
                    m.setattr(kinetostat.equilibrium, "_COND_BOUND_CLEAR", clear)
                with np.errstate(all="ignore"):
                    stacked, errors = _chain_responses(chain, coords, F, sensitivity)
                    alone = [_chain_responses(chain, coords[i : i + 1], F[i : i + 1], sensitivity) for i in range(len(F))]
            for i, (row, (expected, found)) in enumerate(zip(stacked, alone)):
                assert row.tobytes() == expected[0].tobytes()
                assert [(type(e), str(e)) for e in (errors.get(i), found.get(0))] == [(type(found.get(0)), str(found.get(0)))] * 2
                if i in errors:
                    assert np.isnan(row).all()
                    continue
                compared += 1
                fd = None
                if clear is None and i < 3:
                    fd = fd_response(equilibria[i], targets[i], coords[i, chain.actuated_elements], sensitivity)
                if fd is not None:
                    np.testing.assert_allclose(row, fd, rtol=0.0, atol=1e-4 * np.abs(fd).max(initial=1.0))
                    differenced += 1
    assert compared > 40 and differenced > 12  # not a vacuous check
