import math

import numpy as np
import pytest

from kinetostat import (
    ChainModel,
    ControlSingularityError,
    JointModel,
    KinetostatError,
    ManipulatorModel,
    ModelError,
    NonConvergenceError,
    OutOfWorkspaceError,
    OrthoglideSpec,
    SolverOptions,
    SpringLaw,
    Transform,
    build_planar_orthoglide,
    inverse_kinematics_unloaded,
    sensitivity_matrix,
    solve_inverse_kinetostatic,
    total_wrench,
    workspace_points,
)

from conftest import gradient_differences, linear_preload_model, off_base_actuator_model, shipped_model, stop_limit_model


def test_sensitivity_is_minus_drive_stiffness_at_centre(ortho_nopreload):
    # extending a drive at the isotropic centre pushes the platform axially
    S = sensitivity_matrix(ortho_nopreload, [0.0, 0.0], [[1.0], [1.0]])
    np.testing.assert_allclose(S, -np.eye(2), atol=1e-6)


def test_sensitivity_scales_with_drive_stiffness():
    a = build_planar_orthoglide(OrthoglideSpec(K_theta=1.0))
    b = build_planar_orthoglide(OrthoglideSpec(K_theta=2.0))
    Sa = sensitivity_matrix(a, [0.1, 0.2], [[1.0], [1.0]])
    Sb = sensitivity_matrix(b, [0.1, 0.2], [[1.0], [1.0]])
    np.testing.assert_allclose(Sb, 2.0 * Sa, atol=1e-6)


def _fd_sensitivity(manipulator, t, rho_all, h_rho=1e-5):
    """dF_total/drho by central differences of total_wrench: the form the
    compensation used before the exact one, kept as its oracle."""
    from kinetostat.chain import chain_ik_best_effort
    from kinetostat.equilibrium import split_rho

    target = manipulator.pose_array(t)
    starts = [chain_ik_best_effort(chain, target)[0] for chain in manipulator.chains]
    flat = np.concatenate(split_rho(manipulator, rho_all))
    S = np.zeros((manipulator.task_dim, flat.size))
    for j in range(flat.size):
        rp = flat.copy()
        rm = flat.copy()
        rp[j] += h_rho
        rm[j] -= h_rho
        Fp, _ = total_wrench(manipulator, target, rp, starts=starts)
        Fm, _ = total_wrench(manipulator, target, rm, starts=starts)
        S[:, j] = (Fp - Fm) / (2.0 * h_rho)
    return S


def _deviation_from_fd(model, pose):
    rho = [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, pose)]
    S = sensitivity_matrix(model, pose, rho)
    S_fd = _fd_sensitivity(model, pose, rho)
    return float(np.abs(S - S_fd).max() / np.abs(S_fd).max())


SENSITIVITY_MODELS = {
    "linear-preload": lambda: linear_preload_model(0.1),
    "stop-limit": stop_limit_model,
    "off-base-actuator": off_base_actuator_model,
}


@pytest.mark.parametrize("name", sorted(SENSITIVITY_MODELS))
@pytest.mark.parametrize("p", [0.0, 0.15, 0.3, 0.45])
def test_sensitivity_matches_finite_differences(name, p):
    assert _deviation_from_fd(SENSITIVITY_MODELS[name](), [p, p]) <= 1e-8


@pytest.mark.parametrize("p", [0.15, 0.3, 0.45])
def test_sensitivity_with_a_passive_coordinate_before_the_actuator(p):
    # the y-leg's base spring idles below its offset, so the passive base
    # coordinate turns the drive axis and H_qrho enters the right-hand side
    model = off_base_actuator_model(base_spring=SpringLaw(1.0, 0.05, "positive_part"))
    rho = [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, [p, p])]
    _, equilibria = total_wrench(model, [p, p], rho)
    assert [len(eq.regrouped.q_tilde) for eq in equilibria] == [0, 1]
    assert _deviation_from_fd(model, [p, p]) <= 1e-8


def test_sensitivity_needs_the_mixed_hessian(monkeypatch):
    # with the actuator behind a revolute spring, -sum K_c J_rho misses dF/drho
    import kinetostat.stiffness

    real = kinetostat.stiffness._loaded_derivatives

    def without_mixed_block(chain, *args):
        cols, H, errors = real(chain, *args)
        H[..., :, chain.actuated_elements] = 0.0
        H[..., chain.actuated_elements, :] = 0.0
        return cols, H, errors

    monkeypatch.setattr(kinetostat.stiffness, "_loaded_derivatives", without_mixed_block)
    assert _deviation_from_fd(off_base_actuator_model(), [0.45, 0.45]) > 1e-3


def _mixed_blocks(chain, eq):
    """(H_qrho, H_thrho) of the closed-form load Hessian at an equilibrium."""
    from kinetostat.chain import _loaded_derivatives

    H = _loaded_derivatives(chain, eq.regrouped.coords[None], eq.F[None])[1][0]
    act = chain.actuated_elements
    return H[np.ix_(eq.regrouped.q_elements, act)], H[np.ix_(eq.regrouped.theta_elements, act)]


@pytest.mark.parametrize("build, vanishes", [(lambda: linear_preload_model(0.1), True), (off_base_actuator_model, False)])
def test_mixed_hessian_vanishes_for_base_actuators(build, vanishes):
    model = build()
    rho = [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, [0.3, 0.4])]
    _, equilibria = total_wrench(model, [0.3, 0.4], rho)
    for chain, eq in zip(model.chains, equilibria):
        assert np.any(eq.F)
        H_qrho, H_thrho = _mixed_blocks(chain, eq)
        assert H_qrho.shape == (len(eq.regrouped.q_tilde), chain.n_actuated)
        assert H_thrho.shape == (len(eq.regrouped.theta_tilde), chain.n_actuated)
        assert (not np.any(H_qrho) and not np.any(H_thrho)) == vanishes


@pytest.mark.parametrize("base_spring", [None, SpringLaw(1.0, 0.05, "positive_part")])
def test_mixed_hessian_matches_gradient_differences(base_spring):
    model = off_base_actuator_model(base_spring=base_spring)
    rho = [s.rho + 0.01 for s in inverse_kinematics_unloaded(model, [0.3, 0.4])]
    _, equilibria = total_wrench(model, [0.3, 0.4], rho)
    for chain, eq in zip(model.chains, equilibria):
        coords = eq.regrouped.coords
        R = gradient_differences(chain, coords, eq.F)
        act = chain.actuated_elements
        R_qrho = R[np.ix_(eq.regrouped.q_elements, act)]
        R_thrho = R[np.ix_(eq.regrouped.theta_elements, act)]
        H_qrho, H_thrho = _mixed_blocks(chain, eq)
        # the base joint, passive or spring, turns the drive axis
        assert np.any(R_qrho) or np.any(R_thrho)
        tol = 1e-7 * max(1.0, np.abs(R).max())
        np.testing.assert_allclose(H_qrho, R_qrho, rtol=0.0, atol=tol)
        np.testing.assert_allclose(H_thrho, R_thrho, rtol=0.0, atol=tol)


def test_no_preload_keeps_kinematic_rho(ortho_nopreload):
    sol = solve_inverse_kinetostatic(ortho_nopreload, [0.3, 0.1], 1e-8)
    kin = inverse_kinematics_unloaded(ortho_nopreload, [0.3, 0.1])
    assert sol.outer_iterations == 0
    for r, s in zip(sol.rho, kin):
        np.testing.assert_allclose(r, s.rho, atol=1e-12)


@pytest.mark.parametrize("kv", [0.01, 0.1])
def test_centre_needs_no_compensation(kv):
    # springs rest at the centre pose, so the kinematic command is exact
    model = linear_preload_model(kv)
    sol = solve_inverse_kinetostatic(model, [0.0, 0.0], 1e-8)
    for r in sol.rho:
        assert r[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kv", [0.01, 0.05, 0.1])
def test_corner_compensation_matches_closed_form(ortho_spec, kv):
    # one-chain force balance on the workspace diagonal gives
    # rho = p + c + kv asin(p) / (c - p), c = sqrt(1 - p^2)
    model = linear_preload_model(kv)
    p = ortho_spec.p
    c = math.sqrt(1.0 - p * p)
    expected = p + c + kv * math.asin(p) / (c - p)
    sol = solve_inverse_kinetostatic(model, [p, p], 1e-10)
    for r in sol.rho:
        assert r[0] == pytest.approx(expected, abs=1e-6)
    assert sol.residual_wrench < 1e-10
    assert sol.full_rank


def test_resolving_at_returned_rho_balances(ortho_spec):
    model = linear_preload_model(0.1)
    q2 = workspace_points(ortho_spec)[2]
    sol = solve_inverse_kinetostatic(model, q2, 1e-8)
    F, _ = total_wrench(model, q2, sol.rho)
    assert np.linalg.norm(F) < 1e-8


def test_forward_consistency(ortho_spec):
    # walking the pose back via the stiffness map must land on the target
    model = linear_preload_model(0.1)
    q2 = workspace_points(ortho_spec)[2].as_array()
    sol = solve_inverse_kinetostatic(model, q2, 1e-10)
    from kinetostat import manipulator_stiffness

    t = q2.copy()
    for _ in range(20):
        F, _ = total_wrench(model, t, sol.rho)
        if np.linalg.norm(F) < 1e-12:
            break
        K = manipulator_stiffness(model, t, sol.rho).K_sigma
        t = t - np.linalg.solve(K, F)
    assert np.linalg.norm(t - q2) < 1e-8


def test_monotone_residual_history(ortho_spec):
    model = linear_preload_model(0.1)
    sol = solve_inverse_kinetostatic(model, [0.2, 0.35], 1e-10)
    assert all(b < a for a, b in zip(sol.history, sol.history[1:]))


def test_prescribed_external_wrench(ortho_spec):
    # hold the pose against a pulling load instead of zero wrench
    model = linear_preload_model(0.05)
    target_wrench = np.array([0.02, -0.01])
    sol = solve_inverse_kinetostatic(model, [0.1, 0.2], 1e-10, f_ext=target_wrench)
    F, _ = total_wrench(model, [0.1, 0.2], sol.rho)
    np.testing.assert_allclose(F, target_wrench, atol=1e-9)


def _coincident_legs_model():
    """Two identical x legs: their actuator forces are collinear at every pose."""

    def leg():
        return ChainModel(
            task_dim=2,
            base_pose=Transform.identity(),
            elements=[
                (Transform.identity(), JointModel(kind="actuated", motion="translational", axis=(1.0, 0.0, 0.0))),
                (Transform.identity(), JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=1.0)),
                (
                    Transform.identity(),
                    JointModel(
                        kind="preloaded_passive",
                        motion="rotational",
                        axis=(0.0, 0.0, -1.0),
                        spring=SpringLaw(0.05, 0.1, "linear"),
                    ),
                ),
            ],
            tool_transform=Transform(translation=(-1.0, 0.0, 0.0)),
            ik_seed=np.array([1.0, 0.0]),
        )

    return ManipulatorModel(task_dim=2, chains=[leg(), leg()], name="coincident")


def test_coincident_legs_raise_control_singularity():
    with pytest.raises(ControlSingularityError):
        solve_inverse_kinetostatic(_coincident_legs_model(), [0.1, 0.2], 1e-10)


@pytest.mark.parametrize("build", [shipped_model, off_base_actuator_model])
def test_a_round_in_which_every_row_fails_raises_the_recorded_error(monkeypatch, tmp_path, capsys, build):
    # every row's response failing leaves the sensitivity solve a stack of 0
    # rows, which raised numpy's ValueError (exit 1 on the CLI) in place of
    # the error the round recorded
    from kinetostat import SpringSofteningError, serialize_model
    from kinetostat.cli import main

    from conftest import inject_errors

    path = tmp_path / "model.json"
    path.write_text(serialize_model(build()))
    inject_errors(monkeypatch, "_chain_responses", "every", SpringSofteningError)
    with pytest.raises(SpringSofteningError, match="^injected into row 0 of chain ") as raised:
        solve_inverse_kinetostatic(build(), [0.3, 0.3], 1e-8)
    assert raised.value.chain_index == 0
    assert main(["invkin", "--model", str(path), "--pose", "0.3,0.3", "--eps-f", "1e-8"]) == 5
    assert capsys.readouterr().err.startswith("singularity: injected into row 0 of chain ")


def _x_legs(*legs):
    """A model of the shipped legs picked by index, 0 the x-leg and 1 the y-leg."""
    chains = shipped_model().chains
    return ManipulatorModel(task_dim=2, chains=[chains[i] for i in legs])


# model, pose, eps_f, keyword arguments, and the outcome: a solution (with its full_rank) or an error type
COMPENSATIONS = {
    "shipped": (shipped_model, [0.2, 0.3], 1e-8, {}, True),
    "shipped-corner": (shipped_model, [0.45, 0.45], 1e-12, {}, True),
    "stop-limit": (stop_limit_model, [-0.3, 0.4], 1e-10, {}, True),
    "off-base": (off_base_actuator_model, [0.45, 0.45], 1e-12, {}, True),
    "y-leg-unconverged": (  # the y-leg's equilibrium uses every restart
        lambda: off_base_actuator_model(base_spring=SpringLaw(1.0, 0.05, "positive_part")), [0.3, 0.3], 1e-12, {}, NonConvergenceError
    ),
    "f-ext": (lambda: linear_preload_model(0.05), [0.1, 0.2], 1e-10, {"f_ext": [0.02, -0.01]}, True),
    "redundant": (lambda: _x_legs(0, 1, 0), [0.2, 0.3], 1e-8, {}, True),
    "rank-deficient": (lambda: _x_legs(0, 0, 0), [0.1, 0.0], 1e-8, {"f_ext": [0.05, 0.0]}, False),
    "stall": (lambda: _x_legs(0), [0.2, 0.3], 1e-8, {}, NonConvergenceError),
    "control-singularity": (_coincident_legs_model, [0.1, 0.2], 1e-10, {}, ControlSingularityError),
    "one-iteration": (shipped_model, [0.2, 0.3], 1e-8, {"opts": SolverOptions(max_iterations=1)}, NonConvergenceError),
    "unreachable": (shipped_model, [1.5, 0.0], 1e-8, {}, OutOfWorkspaceError),
}


def _compensation_said(outcome):
    """A compensation's solution, to the bit and with its equilibria's solve records, or its error."""
    if isinstance(outcome, KinetostatError):
        records = [getattr(outcome, a, None) for a in ("chain_index", "iterations", "restarts", "residual")]
        return type(outcome), str(outcome), records
    equilibria = [(eq.F.tobytes(), eq.regrouped.coords.tobytes(), eq.iterations, eq.restarts, eq.residual) for eq in outcome.equilibria]
    rho = [r.tobytes() for r in outcome.rho]
    return rho, outcome.residual_wrench, outcome.outer_iterations, outcome.history, outcome.full_rank, equilibria


@pytest.mark.parametrize("case", sorted(COMPENSATIONS))
def test_compensation_is_its_newton_loop_bit_for_bit(case):
    # the stacked loop of one row gives the scalar Newton loop's solution to
    # the bit, with its history, rank flag and equilibria, or its error
    from conftest import compensate_by_steps

    build, pose, eps_f, kwargs, expected = COMPENSATIONS[case]
    model, outcomes = build(), []
    for solve in (solve_inverse_kinetostatic, compensate_by_steps):
        try:
            outcomes.append(solve(model, pose, eps_f, **kwargs))
        except KinetostatError as err:
            outcomes.append(err)
    assert _compensation_said(outcomes[0]) == _compensation_said(outcomes[1])
    if isinstance(expected, bool):
        assert outcomes[0].full_rank == expected and outcomes[0].outer_iterations > 0
        assert outcomes[0].equilibria[0].iterations > 0
    else:
        assert type(outcomes[0]) is expected


def test_single_pose_commands_solve_nothing_alone_after_the_rigid_ik(monkeypatch, tmp_path, capsys):
    # invkin, stiffness and the sensitivity run their equilibria, Newton steps
    # and block systems as stacks: with every scalar solve but the rigid IK
    # forbidden they print what they print without the guard
    from importlib import resources

    from conftest import forbid_scalar_solves
    from kinetostat.cli import main

    path = tmp_path / "orthoglide-planar.json"
    path.write_text(resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text())
    commands = [
        ["invkin", "--model", str(path), "--pose", "0.45,0.45", "--eps-f", "1e-12", "--json"],
        ["stiffness", "--model", str(path), "--pose", "0.2,0.3", "--json"],
        ["stiffness", "--model", str(path), "--pose", "0.2,0.3", "--rho", "1.1,0.9", "--json"],
    ]
    model, pose = shipped_model(), [0.3, 0.4]
    seeds = inverse_kinematics_unloaded(model, pose)
    rho = [s.rho + 0.01 for s in seeds]
    outputs = []
    for guarded in (False, True):
        with monkeypatch.context() as m:
            if guarded:
                forbid_scalar_solves(m, rigid_ik=False)
            codes = [main(argv) for argv in commands]
            S = [sensitivity_matrix(model, pose, rho, starts=starts).tobytes() for starts in (None, seeds)]
        outputs.append((codes, capsys.readouterr(), S))
    assert outputs[0] == outputs[1] and outputs[1][0] == [0, 0, 0] and outputs[1][2][0] == outputs[1][2][1]


@pytest.mark.parametrize("pose", [[0.2, 0.3], [0.45, 0.45]])
def test_sensitivity_seeded_by_ik_states_is_identical(pose):
    # a cold start is the best-effort IK state with rho substituted, so
    # handing that state in changes no bit
    model = linear_preload_model(0.1)
    seeds = inverse_kinematics_unloaded(model, pose)
    rho = [s.rho + 0.01 for s in seeds]
    S_cold = sensitivity_matrix(model, pose, rho)
    S_seeded = sensitivity_matrix(model, pose, rho, starts=seeds)
    assert np.array_equal(S_cold, S_seeded)


def _count_ik_calls(monkeypatch):
    import kinetostat.chain
    import kinetostat.equilibrium

    real = kinetostat.chain.chain_ik_best_effort
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    for module in (kinetostat.chain, kinetostat.equilibrium):
        monkeypatch.setattr(module, "chain_ik_best_effort", counted)
    return calls


@pytest.mark.parametrize("kv, pose, outer", [(0.1, [0.0, 0.0], 0), (0.1, [0.45, 0.45], 1)])
def test_compensation_solves_rigid_ik_once_per_chain(monkeypatch, kv, pose, outer):
    model = linear_preload_model(kv)
    calls = _count_ik_calls(monkeypatch)
    sol = solve_inverse_kinetostatic(model, pose, 1e-12)
    assert sol.outer_iterations == outer
    assert sorted(calls) == sorted(chain.name for chain in model.chains)


def test_multi_step_compensation_solves_rigid_ik_once_per_chain(monkeypatch):
    # the shipped legs' wrench is affine in rho, so an exact S lands in one
    # step; an actuator behind a revolute spring needs several
    model = off_base_actuator_model()
    calls = _count_ik_calls(monkeypatch)
    sol = solve_inverse_kinetostatic(model, [0.45, 0.45], 1e-12)
    assert sol.outer_iterations == 4
    assert sorted(calls) == sorted(chain.name for chain in model.chains)


def _count_wrench_calls(monkeypatch):
    """|F_sigma| of every wrench evaluation of a single-pose compensation from now on: the chains of
    the models here share one structure, so an evaluation is one equilibrium stack of a row a chain."""
    import kinetostat.control

    real = kinetostat.control._equilibrium_stack
    norms = []

    def counted(*args, **kwargs):
        F, *rest = real(*args, **kwargs)
        norms.append(float(np.linalg.norm(np.sum(F, axis=0))))
        return F, *rest

    monkeypatch.setattr(kinetostat.control, "_equilibrium_stack", counted)
    return norms


@pytest.mark.parametrize("build", [lambda: linear_preload_model(0.1), stop_limit_model, off_base_actuator_model])
def test_compensation_solves_no_equilibrium_for_the_sensitivity(monkeypatch, build):
    # one wrench evaluation at the kinematic rho, then only line-search
    # trials: here every trial is accepted, one per Newton step
    model = build()
    norms = _count_wrench_calls(monkeypatch)
    sol = solve_inverse_kinetostatic(model, [0.45, 0.45], 1e-12)
    assert sol.outer_iterations > 0
    assert len(norms) == 1 + sol.outer_iterations
    assert norms == sol.history


def test_solution_carries_equilibria_at_returned_rho(ortho_spec):
    model = linear_preload_model(0.1)
    q2 = workspace_points(ortho_spec)[2]
    sol = solve_inverse_kinetostatic(model, q2, 1e-8)
    assert sol.outer_iterations > 0
    F, eqs = total_wrench(model, q2, sol.rho)
    for mine, fresh in zip(sol.equilibria, eqs):
        assert np.array_equal(mine.F, fresh.F)
        assert np.array_equal(mine.state.q, fresh.state.q)
        assert np.array_equal(mine.state.vartheta, fresh.state.vartheta)
        assert np.array_equal(mine.state.theta, fresh.state.theta)
    assert sol.residual_wrench == float(np.linalg.norm(F))


def test_force_deflection_solves_rigid_ik_once_per_chain(monkeypatch):
    # one IK stack per structure group over every sample's target, whose first
    # row is the rigid IK at the start pose; the two legs share a structure, so
    # that is one stack of both chains' rows, each chain with exactly the
    # sweep's targets; the sweep runs no scalar IK
    import kinetostat.equilibrium
    from kinetostat import force_deflection

    model = linear_preload_model(0.1)
    calls = _count_ik_calls(monkeypatch)
    real, stacks = kinetostat.equilibrium._ik_stack, []

    def counted(chain, targets, constants):
        stacks.append((chain.name, targets.copy()))
        return real(chain, targets, constants)

    monkeypatch.setattr(kinetostat.equilibrium, "_ik_stack", counted)
    curve = force_deflection(model, [0.1, 0.2], [0.6, 0.8], 0.05, 0.01)
    assert len(curve.deltas) == 6
    assert calls == []
    sweep_targets = np.array([0.1, 0.2]) + (np.arange(6) * 0.01)[:, None] * curve.direction
    assert [(name, targets.tobytes()) for name, targets in stacks] == [
        (model.chains[0].name, np.concatenate([sweep_targets] * len(model.chains)).tobytes())
    ]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_knobs_rejected(ortho_nopreload, value):
    with pytest.raises(ModelError, match="finite"):
        solve_inverse_kinetostatic(ortho_nopreload, [0.1, 0.2], value)
    with pytest.raises(ModelError, match="finite"):
        SolverOptions(pose_tol=value)


def test_compensation_rejects_non_finite_pose(ortho_nopreload):
    with pytest.raises(ModelError, match="not finite"):
        solve_inverse_kinetostatic(ortho_nopreload, [math.nan, 0.0], 1e-8)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_compensation_rejects_non_finite_wrench(ortho_nopreload, value):
    # the caller's wrench is at fault, not an actuator of some chain
    with pytest.raises(ModelError) as exc:
        solve_inverse_kinetostatic(ortho_nopreload, [0.1, 0.1], 1e-8, f_ext=[value, 0])
    assert str(exc.value) == f"prescribed wrench [{value}, 0.0] is not finite"
    assert exc.value.chain_index is None


def test_redundant_actuators_take_the_least_squares_step():
    # a second x-leg makes S 2 x 3: the step is the least-squares one, of full rank 2
    x_leg, y_leg = shipped_model().chains
    model = ManipulatorModel(task_dim=2, chains=[x_leg, y_leg, x_leg])
    sol = solve_inverse_kinetostatic(model, [0.2, 0.3], 1e-8)
    assert sol.full_rank and sol.outer_iterations == 1 and sol.residual_wrench < 1e-8


def test_rank_deficient_actuators_converge_and_are_flagged():
    # three x-legs on the x axis: every column of S points along x (rank 1 of
    # 2), and a prescribed x load lies in its range
    model = ManipulatorModel(task_dim=2, chains=[shipped_model().chains[0]] * 3)
    sol = solve_inverse_kinetostatic(model, [0.1, 0.0], 1e-8, f_ext=[0.05, 0.0])
    assert not sol.full_rank and sol.outer_iterations == 1
    F, _ = total_wrench(model, [0.1, 0.0], sol.rho)
    np.testing.assert_allclose(F, [0.05, 0.0], atol=1e-8)


def test_compensation_stalls_when_no_halving_lowers_the_residual(monkeypatch):
    # the x-leg alone cannot cancel its preload's y force: the first step is
    # taken, then every halving of the second leaves |F| where it was
    import kinetostat.control as control

    norms = _count_wrench_calls(monkeypatch)
    model = ManipulatorModel(task_dim=2, chains=[shipped_model().chains[0]])
    with pytest.raises(NonConvergenceError, match=r"stalled at \|F\| = 3\.047e-02") as exc:
        solve_inverse_kinetostatic(model, [0.2, 0.3], 1e-8)
    assert exc.value.iterations == 1 and exc.value.residual == norms[1]
    assert len(norms) == 2 + control._MAX_HALVINGS and min(norms[2:]) >= norms[1]
