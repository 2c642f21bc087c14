import math

import numpy as np
import pytest

from kinetostat import (
    ChainModel,
    ChainState,
    JointModel,
    ModelError,
    NonConvergenceError,
    OrthoglideSpec,
    SingularityError,
    SolverOptions,
    SpringLaw,
    Transform,
    build_planar_orthoglide,
    force_deflection,
    inverse_kinematics_unloaded,
    jacobians,
    partition,
    solve_chain_equilibrium,
    total_wrench,
    workspace_points,
)
from kinetostat.chain import fk_array

from conftest import DIAG, count_iterations, force_scalar_rows, linear_preload_model, shipped_model, stop_limit_model


def equilibrium_identities(chain, eq, target):
    """Re-evaluate the three static balance identities at the final state."""
    reg = partition(chain, eq.state)
    J_theta, J_q = jacobians(chain, reg)
    pose_err = np.linalg.norm(fk_array(chain, eq.state) - np.asarray(target))
    passive = np.linalg.norm(J_q.T @ eq.F) if J_q.size else 0.0
    spring = np.linalg.norm(reg.k_tilde * (reg.theta_tilde - reg.theta_tilde_0) - J_theta.T @ eq.F)
    return pose_err, passive, spring


def test_unloaded_pose_converges_first_iteration(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    eq = solve_chain_equilibrium(chain, [0.0, 0.0], [1.0])
    np.testing.assert_allclose(eq.F, 0.0, atol=1e-15)
    assert eq.iterations == 1
    assert eq.restarts == 0


def test_axial_displacement_force(ortho_nopreload):
    # leg aligned with the drive: the chain acts as the bare drive spring
    chain = ortho_nopreload.chains[0]
    delta = 1e-3
    eq = solve_chain_equilibrium(chain, [delta, 0.0], [1.0])
    np.testing.assert_allclose(eq.F, [delta, 0.0], atol=1e-12)


@pytest.mark.parametrize("alpha_deg", [10.0, 25.0, 40.0])
def test_angled_leg_force_balance(ortho_nopreload, alpha_deg):
    # force balance along the leg: stiffness K / cos^2(alpha)
    chain = ortho_nopreload.chains[0]
    alpha = math.radians(alpha_deg)
    base = np.array([0.2, math.sin(alpha)])  # leg at angle alpha to the x drive
    state = inverse_kinematics_unloaded(ortho_nopreload, base)[0]
    rho = state.rho
    leg_dir = base - np.array([rho[0], 0.0])
    leg_dir /= np.linalg.norm(leg_dir)
    delta = 1e-6
    eq = solve_chain_equilibrium(chain, base + delta * leg_dir, rho)
    expected = delta / math.cos(alpha) ** 2
    assert np.linalg.norm(eq.F) == pytest.approx(expected, rel=1e-2)


def test_identities_at_random_loaded_poses(ortho_nopreload):
    rng = np.random.default_rng(21)
    model = linear_preload_model(0.1)
    for _ in range(100):
        base = rng.uniform(-0.45, 0.45, size=2)
        states = inverse_kinematics_unloaded(model, base)
        target = base + rng.uniform(-0.05, 0.05, size=2)
        for chain, st in zip(model.chains, states):
            eq = solve_chain_equilibrium(chain, target, st.rho)
            pose_err, passive, spring = equilibrium_identities(chain, eq, target)
            assert pose_err <= 1e-9
            assert passive <= 1e-9
            assert spring <= 1e-9
            assert eq.iterations <= 10


def test_warm_and_cold_starts_agree(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    target = [0.32, 0.18]
    cold = solve_chain_equilibrium(chain, target, [1.05])
    warm = solve_chain_equilibrium(chain, target, [1.05], start=cold.state)
    assert np.linalg.norm(cold.F - warm.F) <= 1e-7


def test_bitwise_determinism(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    opts = SolverOptions(rng_seed=7)
    a = solve_chain_equilibrium(chain, [0.3, 0.2], [1.1], opts)
    b = solve_chain_equilibrium(chain, [0.3, 0.2], [1.1], opts)
    assert a.F.tobytes() == b.F.tobytes()
    assert a.regrouped.theta_tilde.tobytes() == b.regrouped.theta_tilde.tobytes()
    assert a.iterations == b.iterations


@pytest.mark.parametrize("opts", [SolverOptions(), SolverOptions(max_iterations=2, max_restarts=10, rng_seed=7)])
def test_generator_built_on_first_restart(monkeypatch, opts):
    # only a restart draws from the seeded generator, so a solve that does
    # not restart builds none, and one that does builds one for all its
    # restarts, from the seed: the same stream as one built up front
    model = linear_preload_model(0.1)
    start = inverse_kinematics_unloaded(model, [0.3, 0.2])[0]
    real = np.random.default_rng
    seeds = []

    def counted(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    eq = solve_chain_equilibrium(model.chains[0], [0.33, 0.16], start.rho, opts, start=start)
    assert (eq.restarts > 1) == (opts.max_iterations == 2)
    assert seeds == ([opts.rng_seed] if eq.restarts else [])


def test_repartition_is_fixed_point():
    model = build_planar_orthoglide(
        OrthoglideSpec(spring=SpringLaw(0.3, math.pi / 12.0, "positive_part"))
    )
    chain = model.chains[0]
    target = [0.42, 0.44]  # stop limit engaged around here
    state = inverse_kinematics_unloaded(model, target)[0]
    eq = solve_chain_equilibrium(chain, target, state.rho)
    again = solve_chain_equilibrium(chain, target, state.rho, start=eq.state)
    assert np.array_equal(eq.regrouped.active_mask, again.regrouped.active_mask)
    assert np.linalg.norm(eq.F - again.F) <= 1e-9


def test_total_wrench_zero_at_kinematic_pose(ortho_nopreload):
    F, results = total_wrench(ortho_nopreload, [0.0, 0.0], [[1.0], [1.0]])
    np.testing.assert_allclose(F, 0.0, atol=1e-14)
    assert len(results) == 2


def test_total_wrench_isotropic_centre(ortho_nopreload):
    delta = 1e-6
    t = delta * DIAG
    F, _ = total_wrench(ortho_nopreload, t, [[1.0], [1.0]])
    assert np.linalg.norm(F) == pytest.approx(delta, rel=1e-2)


@pytest.mark.parametrize("kv", [0.01, 0.1])
def test_total_wrench_preloaded_centre(kv):
    # drive stiffness plus the angular preload acting over the bar length
    model = linear_preload_model(kv)
    delta = 1e-6
    F, _ = total_wrench(model, delta * DIAG, [[1.0], [1.0]])
    assert np.linalg.norm(F) == pytest.approx((1.0 + kv) * delta, rel=1e-2)


def test_force_deflection_starts_at_zero(ortho_nopreload):
    curve = force_deflection(ortho_nopreload, [0.0, 0.0], [1.0, 0.0], 0.01, 0.005)
    assert curve.force_along[0] == 0.0
    assert curve.error is None and not curve.truncated
    assert np.all(np.diff(curve.deltas) > 0.0)


@pytest.mark.parametrize("step", [1e-19, 1e-300])
def test_sweep_too_long_to_hold_raises_before_any_solve(monkeypatch, ortho_nopreload, step):
    # 1e18 samples and more: numpy refuses the curve's force array at once, so
    # the sweep raises before its first stack rather than solve chunk after chunk
    import kinetostat.equilibrium

    monkeypatch.setattr(kinetostat.equilibrium, "_fused", None)  # a stack would raise TypeError
    with pytest.raises(ModelError, match=rf"^sweep of 0\.1 in steps of {step:g} does not fit in memory$"):
        force_deflection(ortho_nopreload, [0.0, 0.0], [1.0, 1.0], 0.1, step)


def test_force_deflection_buckling_peak(ortho_spec, ortho_nopreload):
    q2 = workspace_points(ortho_spec)[2].as_array()
    curve = force_deflection(ortho_nopreload, q2, DIAG, 0.25, 0.001)
    peak = curve.force_along.max()
    assert peak == pytest.approx(0.020, rel=0.10)
    interior = np.argmax(curve.force_along)
    assert 0 < interior < len(curve.deltas) - 1


def test_force_deflection_monotone_with_strong_preload(ortho_spec):
    model = linear_preload_model(0.1)
    q2 = workspace_points(ortho_spec)[2].as_array()
    from kinetostat import solve_inverse_kinetostatic

    sol = solve_inverse_kinetostatic(model, q2, 1e-8)
    curve = force_deflection(model, q2, DIAG, 0.25, 0.001, rho_all=sol.rho)
    assert np.all(np.diff(curve.force_along) > 0.0)


def test_singular_chain_raises():
    # a single prismatic spring cannot balance transverse loads
    chain = ChainModel(
        task_dim=2,
        base_pose=Transform.identity(),
        elements=[
            (Transform.identity(), JointModel(kind="actuated", motion="translational", axis=(1.0, 0.0, 0.0))),
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=1.0)),
        ],
        tool_transform=Transform.identity(),
    )
    with pytest.raises(SingularityError) as exc:
        solve_chain_equilibrium(chain, [0.5, 0.0], [0.2])
    assert exc.value.condition > 1e12 or not math.isfinite(exc.value.condition)


def test_nonconvergence_carries_best_residual(ortho_nopreload):
    chain = ortho_nopreload.chains[0]
    opts = SolverOptions(max_iterations=1, max_restarts=1)
    with pytest.raises(NonConvergenceError) as exc:
        solve_chain_equilibrium(chain, [0.4, 0.3], [1.3], opts)
    assert exc.value.residual > 0.0


def test_nonconvergence_names_the_test_the_solve_missed(monkeypatch, ortho_nopreload):
    # off the pose the message gives the best residual alone; at the pose it
    # says that the step test, not the pose test, ran out of iterations
    import kinetostat.equilibrium

    chain, one = ortho_nopreload.chains[0], SolverOptions(max_iterations=1, max_restarts=0)
    with pytest.raises(NonConvergenceError) as exc:
        solve_chain_equilibrium(chain, [0.4, 0.3], [1.0], one, start=np.zeros(len(chain.elements)))
    assert str(exc.value) == f"equilibrium of chain 'x-leg' did not converge (best residual {exc.value.residual:.3e})"
    assert exc.value.residual > one.pose_tol
    with pytest.raises(NonConvergenceError) as exc:
        solve_chain_equilibrium(chain, [0.4, 0.3], [1.3], one)
    reason = "met pose_tol, but the step did not settle in 1 iteration"
    assert str(exc.value) == f"equilibrium of chain 'x-leg' did not converge (best residual {exc.value.residual:.3e} {reason})"
    monkeypatch.setattr(kinetostat.equilibrium, "STEP_TOL", -1.0)  # no step settles
    with pytest.raises(NonConvergenceError, match=r" met pose_tol, but the step did not settle in 3 iterations\)$"):
        solve_chain_equilibrium(chain, [0.4, 0.3], [1.3], SolverOptions(max_iterations=3))


def test_solver_options_validation():
    with pytest.raises(ModelError):
        SolverOptions(pose_tol=0.0)
    with pytest.raises(ModelError):
        SolverOptions(max_iterations=0)
    # np.random.default_rng rejects a negative seed, so it must never reach it
    with pytest.raises(ModelError, match="seed"):
        SolverOptions(rng_seed=-1)


def test_rho_shape_checked(ortho_nopreload):
    with pytest.raises(ModelError):
        solve_chain_equilibrium(ortho_nopreload.chains[0], [0.0, 0.0], [1.0, 2.0])


@pytest.mark.parametrize("pose, rho", [([math.nan, 0.0], [[1.0], [1.0]]), ([0.0, 0.0], [[math.inf], [1.0]])])
def test_total_wrench_rejects_non_finite_input(ortho_nopreload, pose, rho):
    with pytest.raises(ModelError, match="not finite"):
        total_wrench(ortho_nopreload, pose, rho)


def test_start_states_must_match_the_chains(ortho_nopreload):
    states = inverse_kinematics_unloaded(ortho_nopreload, [0.1, 0.2])
    rho = [s.rho for s in states]
    with pytest.raises(ModelError, match="1 start states for 2 chains"):
        total_wrench(ortho_nopreload, [0.1, 0.2], rho, starts=states[:1])
    with pytest.raises(ModelError, match="1 start states for 2 chains"):
        force_deflection(ortho_nopreload, [0.1, 0.2], [1.0, 0.0], 0.01, 0.005, rho_all=rho, starts=states[:1])
    # without rho_all the actuators come from the starts, one chain short
    with pytest.raises(ModelError, match="expected 2 actuator values, got 1"):
        force_deflection(ortho_nopreload, [0.1, 0.2], [1.0, 0.0], 0.01, 0.005, starts=states[:1])
    coords = [chain.element_coordinates(s) for chain, s in zip(ortho_nopreload.chains, states)]
    n = len(ortho_nopreload.chains[1].elements)
    with pytest.raises(ModelError, match=rf"start of shape \(2,\) does not match {n} chain elements") as err:
        force_deflection(ortho_nopreload, [0.1, 0.2], [1.0, 0.0], 0.01, 0.005, rho_all=rho, starts=[coords[0], coords[1][:2]])
    assert err.value.chain_index == 1


def test_force_deflection_rejects_non_finite_direction(ortho_nopreload):
    with pytest.raises(ModelError, match="not finite"):
        force_deflection(ortho_nopreload, [0.0, 0.0], [math.nan, 1.0], 0.01, 0.005)


def test_force_deflection_rejects_unbounded_sample_count(ortho_nopreload):
    # 1e300 / 1e-300 overflows to inf samples
    with pytest.raises(ModelError, match="finite"):
        force_deflection(ortho_nopreload, [0.0, 0.0], [0.0, 1.0], 1e300, 1e-300)


def _count_forward_passes(monkeypatch):
    import kinetostat.chain

    real = kinetostat.chain._end_transform
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kinetostat.chain, "_end_transform", counted)
    return calls


@pytest.mark.parametrize("opts", [SolverOptions(), SolverOptions(max_iterations=3, max_restarts=10)])
def test_one_forward_pass_per_iteration(monkeypatch, opts):
    # one pass per iteration plus one at each (re)start; both passes per
    # iteration (Jacobians, then the residual) used to be separate
    model = linear_preload_model(0.1)
    chain = model.chains[0]
    start = inverse_kinematics_unloaded(model, [0.3, 0.2])[0]
    passes = _count_forward_passes(monkeypatch)
    eq = solve_chain_equilibrium(chain, [0.33, 0.16], start.rho, opts, start=start)
    assert eq.iterations > 2
    assert (eq.restarts > 0) == (opts.max_iterations == 3)
    assert len(passes) == eq.iterations + eq.restarts + 1


def test_one_inverse_and_no_lu_solve_per_iteration(monkeypatch):
    # the inverse that clears the block matrix's condition bound also gives
    # the step, so the matrix is not factored a second time
    model = linear_preload_model(0.1)
    chain = model.chains[0]
    start = inverse_kinematics_unloaded(model, [0.3, 0.2])[0]
    calls = {"inv": 0, "solve": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    eq = solve_chain_equilibrium(chain, [0.33, 0.16], start.rho, SolverOptions(), start=start)
    assert eq.iterations > 2 and eq.restarts == 0
    assert calls == {"inv": eq.iterations, "solve": 0}


@pytest.mark.parametrize(
    "warm, opts",
    [
        (True, SolverOptions()),
        (True, SolverOptions(max_iterations=3, max_restarts=10)),
        (False, SolverOptions()),
        (False, SolverOptions(max_iterations=1, max_restarts=4)),
    ],
)
def test_start_validated_once_per_solve(monkeypatch, warm, opts):
    # the iteration runs on the element-order joint vector, so the start (or
    # the rigid IK seed) is checked against the chain once, not per iteration
    # or restart; the last case restarts until its budget is spent
    model = linear_preload_model(0.1)
    chain = model.chains[0]
    start = inverse_kinematics_unloaded(model, [0.3, 0.2])[0]
    real = ChainState.validate_against
    calls = []

    def counted(self, chain):
        calls.append(1)
        return real(self, chain)

    monkeypatch.setattr(ChainState, "validate_against", counted)
    try:
        eq = solve_chain_equilibrium(chain, [0.33, 0.16], start.rho, opts, start=start if warm else None)
        iterations, restarts = eq.iterations, eq.restarts
    except NonConvergenceError as err:
        iterations, restarts = err.iterations, err.restarts
    assert iterations >= 2
    assert (restarts > 0) == (opts.max_iterations < 50)
    assert len(calls) == 1


def test_vector_start_matches_state_start():
    # an element-order joint vector starts the solve exactly as the ChainState
    # holding the same values; it is copied, and its length is checked
    model = shipped_model()
    chain = model.chains[1]
    state = inverse_kinematics_unloaded(model, [0.3, 0.2])[1]
    vector = chain.element_coordinates(state)
    kept = vector.copy()
    from_state = solve_chain_equilibrium(chain, [0.33, 0.16], state.rho, start=state)
    from_vector = solve_chain_equilibrium(chain, [0.33, 0.16], state.rho, start=vector)
    assert np.array_equal(from_state.F, from_vector.F)
    assert np.array_equal(from_state.regrouped.coords, from_vector.regrouped.coords)
    assert from_state.iterations == from_vector.iterations
    assert np.array_equal(vector, kept)
    assert np.array_equal(from_vector.state.theta, from_vector.regrouped.coords[chain.virtual_elements])
    with pytest.raises(ModelError):
        solve_chain_equilibrium(chain, [0.33, 0.16], state.rho, start=vector[:-1])


def _count_chain_states(monkeypatch):
    real = ChainState.__post_init__
    built = []

    def counted(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(ChainState, "__post_init__", counted)
    return built


def test_sweep_builds_only_the_ik_states(monkeypatch):
    # samples hand element-order vectors on, so a 25-sample sweep builds
    # the rigid IK's chain states at its start pose and nothing more
    model = shipped_model()
    built = _count_chain_states(monkeypatch)
    curve = force_deflection(model, [0.1, -0.2], [0.6, 0.8], 0.096, 0.004)
    assert len(curve.deltas) == 25 and not curve.truncated
    assert len(built) == len(model.chains)


def test_critical_search_builds_no_chain_state(monkeypatch, ortho_spec):
    from kinetostat import solve_inverse_kinetostatic
    from kinetostat.orthoglide import SWEEP_MAX_FACTOR, _critical_point

    model = build_planar_orthoglide(ortho_spec)
    q2 = workspace_points(ortho_spec)[2]
    sol = solve_inverse_kinetostatic(model, q2, 1e-8, ortho_spec.options())
    built = _count_chain_states(monkeypatch)
    starts = [eq.regrouped.coords for eq in sol.equilibria]
    critical = _critical_point(model, q2, DIAG, SWEEP_MAX_FACTOR, ortho_spec.options(), starts)
    assert critical is not None and built == []


def _warm_start_sweep(manipulator, start, direction, max_delta, step):
    """Oracle: the sweep that warm-starts every sample from the one before.

    Returns the summed force vectors per sample, the truncation flag, the
    summed equilibrium iterations and the active masks per sample.
    """
    u = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    warm = inverse_kinematics_unloaded(manipulator, start)
    rhos = [s.rho for s in warm]
    forces, masks = [], []
    iterations = 0
    for i in range(int(round(max_delta / step)) + 1):
        try:
            F_sigma, results = total_wrench(manipulator, np.asarray(start) + i * step * u, rhos, starts=warm)
        except (NonConvergenceError, SingularityError):
            return np.array(forces), True, iterations, masks
        warm = [r.state for r in results]
        iterations += sum(r.iterations for r in results)
        forces.append(F_sigma)
        masks.append(tuple(tuple(r.regrouped.active_mask) for r in results))
    return np.array(forces), False, iterations, masks


def _sweep_pairs():
    # seeded starts and directions inside the workspace, then two sweeps
    # that leave it through the bar's reach (|y| or |x| = L) and truncate
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(6):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        pairs.append((rng.uniform(-0.35, 0.35, 2), [math.cos(angle), math.sin(angle)], 0.2, 0.01))
    pairs += [([0.0, 0.3], [0.0, 1.0], 0.9, 0.05), ([0.1, -0.2], [-1.0, 0.2], 1.5, 0.05)]
    return pairs


@pytest.mark.parametrize("make_model", [shipped_model, stop_limit_model])
def test_stacked_sweep_matches_warm_start_sweep(make_model):
    model = make_model()
    engaged = truncated = 0
    for start, direction, max_delta, step in _sweep_pairs():
        forces, expected_truncated, _, masks = _warm_start_sweep(model, start, direction, max_delta, step)
        curve = force_deflection(model, start, direction, max_delta, step)
        assert len(curve.deltas) == len(forces)
        assert curve.truncated == expected_truncated
        np.testing.assert_allclose(curve.force_magnitude, np.linalg.norm(forces, axis=1), rtol=1e-11, atol=1e-300)
        np.testing.assert_allclose(curve.force_along, forces @ curve.direction, rtol=1e-11, atol=1e-300)
        engaged += len(set(masks)) > 1
        truncated += expected_truncated
    assert truncated == 2
    # the stop-limit springs engage or release inside some of the sweeps
    assert (engaged > 0) == (make_model is stop_limit_model)


@pytest.mark.parametrize("make_model", [shipped_model, stop_limit_model])
def test_stacked_sweep_matches_the_scalar_solve(monkeypatch, make_model):
    # a sample is its cold scalar solve: the stacked curve and the curve whose
    # stacks finish no row, so that the scalar solve takes every sample, agree
    # to the byte, truncation included, also on a budget of two iterations per restart
    model = make_model()
    truncated = []
    for opts in (SolverOptions(), SolverOptions(max_iterations=2)):
        for start, direction, max_delta, step in _sweep_pairs():
            curve = force_deflection(model, start, direction, max_delta, step, opts)
            with monkeypatch.context() as m:
                force_scalar_rows(m)
                oracle = force_deflection(model, start, direction, max_delta, step, opts)
            assert len(curve.deltas) == len(oracle.deltas) > 0 and curve.truncated == oracle.truncated
            for values, expected in ((curve.deltas, oracle.deltas), (curve.force_magnitude, oracle.force_magnitude),
                                     (curve.force_along, oracle.force_along)):
                assert values.tobytes() == expected.tobytes()
            truncated.append(curve.truncated)
    assert sum(truncated[:8]) == sum(truncated[8:]) == 2


@pytest.mark.parametrize("k", [0, 1, 7, 9])
def test_row_left_by_a_stack_gets_the_scalar_solve(monkeypatch, k):
    # one chain's rows of the stack leave row k: that row alone gets the cold
    # scalar solve, once per chain, started from the row's rigid IK that the
    # IK stack holds (so no scalar IK runs), and the whole curve keeps the
    # bytes of the one whose stacks finish every row; in stacks of 8 rows,
    # row 9 is the second row of the second stack
    import kinetostat.equilibrium
    from kinetostat.chain import chain_ik_best_effort

    model, start, direction = stop_limit_model(), [0.1, -0.2], [0.6, 0.8]
    monkeypatch.setattr(kinetostat.equilibrium, "_SWEEP_CHUNK", 8)
    full = force_deflection(model, start, direction, 0.096, 0.004)
    assert len(full.deltas) == 25 and not full.truncated
    real, offsets = kinetostat.equilibrium._equilibrium_stack, {}

    def leaving(chain, targets, x, rho, opts, constants):
        F, x, done = real(chain, targets, x, rho, opts, constants)
        # the legs share one stack, the rows of chain 1 after those of chain 0
        n = len(targets) // len(model.chains)
        first = offsets.get("rows", 0)  # the sweep row of the stack's first row
        offsets["rows"] = first + n
        if first <= k < first + n:
            done[n + k - first] = False
        return F, x, done

    real_solve, solves, iks = kinetostat.equilibrium.solve_chain_equilibrium, [], []

    def recorded(chain, t, rho, opts=None, start=None):
        solves.append((np.asarray(t).tobytes(), None if start is None else np.asarray(start).tobytes()))
        return real_solve(chain, t, rho, opts, start=start)

    def counted_ik(chain, t):
        iks.append(chain.name)
        return chain_ik_best_effort(chain, t)

    monkeypatch.setattr(kinetostat.equilibrium, "_equilibrium_stack", leaving)
    monkeypatch.setattr(kinetostat.equilibrium, "solve_chain_equilibrium", recorded)
    monkeypatch.setattr(kinetostat.equilibrium, "chain_ik_best_effort", counted_ik)
    curve = force_deflection(model, start, direction, 0.096, 0.004)
    assert iks == []
    t = np.asarray(start) + (k * 0.004) * curve.direction
    rigid = [chain.element_coordinates(chain_ik_best_effort(chain, t)[0]).tobytes() for chain in model.chains]
    assert solves == [(t.tobytes(), x) for x in rigid]
    assert len(curve.deltas) == 25 and not curve.truncated
    for values, expected in ((curve.force_magnitude, full.force_magnitude), (curve.force_along, full.force_along)):
        assert values.tobytes() == expected.tobytes()


def test_sweep_chunks_give_the_bytes_of_one_stack(monkeypatch):
    import kinetostat.equilibrium

    model = stop_limit_model()
    real, stacks = kinetostat.equilibrium._ik_stack, []

    def counted(chain, targets, constants):
        stacks.append(len(targets))
        return real(chain, targets, constants)

    # the legs share a structure: one stack of both legs' rows per chunk
    monkeypatch.setattr(kinetostat.equilibrium, "_ik_stack", counted)
    chunked = force_deflection(model, [0.1, -0.2], [0.6, 0.8], 0.149, 0.001)
    assert len(chunked.deltas) == 150 and not chunked.truncated
    chunk = kinetostat.equilibrium._SWEEP_CHUNK
    assert stacks == [2 * min(chunk, 150 - first) for first in range(0, 150, chunk)] and len(stacks) > 1
    stacks.clear()
    monkeypatch.setattr(kinetostat.equilibrium, "_SWEEP_CHUNK", 150)
    whole = force_deflection(model, [0.1, -0.2], [0.6, 0.8], 0.149, 0.001)
    assert stacks == [2 * 150] and not whole.truncated
    for a, b in ((chunked.deltas, whole.deltas), (chunked.force_magnitude, whole.force_magnitude),
                 (chunked.force_along, whole.force_along)):
        assert a.tobytes() == b.tobytes()


def test_starts_seed_the_first_row(monkeypatch):
    # a compensation's equilibria start row 0, whose solve is then theirs bit for bit
    import kinetostat.equilibrium
    from kinetostat import solve_inverse_kinetostatic

    model, start = shipped_model(), [0.3, 0.2]
    sol = solve_inverse_kinetostatic(model, start, 1e-8)
    starts = [eq.regrouped.coords for eq in sol.equilibria]
    real, seeds = kinetostat.equilibrium._equilibrium_stack, []

    def recorded(chain, targets, x, rho, opts, constants):
        n = len(targets) // len(model.chains)  # the legs share one stack, one leg's rows after the other's
        seeds.extend(x[i * n].copy() for i in range(len(model.chains)))
        return real(chain, targets, x, rho, opts, constants)

    monkeypatch.setattr(kinetostat.equilibrium, "_equilibrium_stack", recorded)
    curve = force_deflection(model, start, [0.6, 0.8], 0.02, 0.01, starts=starts)
    assert len(curve.deltas) == 3 and [x.tobytes() for x in seeds] == [x.tobytes() for x in starts]
    F, _ = total_wrench(model, start, sol.rho, starts=starts)
    assert curve.force_magnitude[0] == np.linalg.norm(F) and curve.force_along[0] == float(F @ curve.direction)
    assert curve.force_magnitude[0] < 1e-8


def _both_stop_rules(monkeypatch, run):
    """run() with the contraction exit, then with the step test alone.

    The step test alone is the oracle: with an infinite safety factor the
    contraction bound is inf or NaN (inf * 0) and never passes.
    """
    import kinetostat.equilibrium

    with_exit = run()
    with monkeypatch.context() as m:
        m.setattr(kinetostat.equilibrium, "_CONTRACTION_SAFETY", math.inf)
        return with_exit, run()


def test_contraction_exit_matches_step_test_on_residual_suite(monkeypatch):
    # every fourth pose of criterion 5's suite, solved as it solves them
    # (the cold start is the best-effort rigid IK at the target); these
    # solves stop after two iterations through the step test under both rules
    from kinetostat.chain import chain_ik_best_effort

    rng = np.random.default_rng(2024)
    P = OrthoglideSpec().p
    models = [build_planar_orthoglide(OrthoglideSpec()), linear_preload_model(0.1), stop_limit_model()]
    cases = []
    for model, n in zip(models, (334, 333, 333)):
        for i in range(n):
            base = rng.uniform(-P, P, size=2)
            target = base + rng.uniform(-0.05, 0.05, size=2)
            if i % 4 == 0:
                states = inverse_kinematics_unloaded(model, base)
                for chain, st in zip(model.chains, states):
                    cases.append((chain, target, st.rho, chain_ik_best_effort(chain, target)[0]))

    def run():
        return [solve_chain_equilibrium(chain, t, rho, start=start) for chain, t, rho, start in cases]

    with_exit, oracle = _both_stop_rules(monkeypatch, run)
    for a, b in zip(with_exit, oracle):
        assert a.iterations == b.iterations
        assert np.linalg.norm(a.F - b.F) <= 1e-11 * np.linalg.norm(b.F)


@pytest.mark.parametrize("make_model", [shipped_model, stop_limit_model])
def test_contraction_exit_matches_step_test_on_sweeps(monkeypatch, make_model):
    # the stacked curves, then the scalar solves' wrenches with the stacks finishing no row
    import kinetostat.equilibrium

    model = make_model()
    sweeps = _sweep_pairs() + [([0.1, -0.2], [0.6, 0.8], 0.096, 0.004)]
    for start, direction, max_delta, step in sweeps:
        curve, oracle = _both_stop_rules(monkeypatch, lambda: force_deflection(model, start, direction, max_delta, step))
        assert len(curve.deltas) == len(oracle.deltas) > 0 and curve.truncated == oracle.truncated
        for values, expected in ((curve.force_magnitude, oracle.force_magnitude), (curve.force_along, oracle.force_along)):
            assert np.all(np.abs(values - expected) <= 1e-11 * oracle.force_magnitude)

    real = kinetostat.equilibrium.total_wrench
    forces = []

    def recorded(*args, **kwargs):
        F_sigma, results = real(*args, **kwargs)
        forces.append(F_sigma)
        return F_sigma, results

    monkeypatch.setattr(kinetostat.equilibrium, "total_wrench", recorded)
    force_scalar_rows(monkeypatch)
    for start, direction, max_delta, step in sweeps:

        def run():
            forces.clear()
            curve = force_deflection(model, start, direction, max_delta, step)
            return curve.truncated, np.array(forces)

        (truncated, F), (expected_truncated, F_oracle) = _both_stop_rules(monkeypatch, run)
        assert truncated == expected_truncated and F.shape == F_oracle.shape and len(F) > 0
        assert np.all(np.linalg.norm(F - F_oracle, axis=1) <= 1e-11 * np.linalg.norm(F_oracle, axis=1))


def test_contraction_exit_saves_iterations(monkeypatch):
    # the step test alone runs a third iteration in most warm solves only to
    # confirm the second; a sweep's samples are cold solves, which stop after
    # two iterations either way, so the oracle's warm-started sweep is counted
    model = shipped_model()

    def run():
        forces, truncated, iterations, _ = _warm_start_sweep(model, [0.1, -0.2], [0.6, 0.8], 0.096, 0.004)
        assert len(forces) == 25 and not truncated
        return iterations

    with_exit, oracle = _both_stop_rules(monkeypatch, run)
    assert with_exit <= 0.85 * oracle


@pytest.mark.parametrize("flip", ["last", "alternating"])
def test_contraction_exit_falls_back_to_step_test(monkeypatch, flip):
    # A late active-set flip is too rare on these models to pick one (the
    # seed-0 benchmark solves flip once, in a first iteration), so the flip
    # is injected into the mask the loop compares, which no arithmetic reads.
    # "last": the mask of the iterate the contraction exit would accept
    # differs from its predecessor's. "alternating": every regrouping flips,
    # and with the oscillation limit lowered to 1 the damping runs from the
    # third iteration on. Either way only the step test stops the solve, as
    # it does with no contraction exit.
    import dataclasses

    import kinetostat.equilibrium

    model = shipped_model()
    chain = model.chains[1]
    start = inverse_kinematics_unloaded(model, [0.3, 0.2])[1]
    target = [0.33, 0.16]
    plain = solve_chain_equilibrium(chain, target, start.rho, start=start)
    real = kinetostat.equilibrium.regroup
    calls = []

    def flipped(chain, x):
        reg = real(chain, x)
        calls.append(1)
        n = len(calls) - 1  # 0 regroups the start, n the n-th iterate
        flips = (n == plain.iterations) if flip == "last" else (n % 2 == 1)
        if flips:
            reg = dataclasses.replace(reg, active_mask=~reg.active_mask)
        return reg

    def run():
        calls.clear()
        return solve_chain_equilibrium(chain, target, start.rho, start=start)

    monkeypatch.setattr(kinetostat.equilibrium, "regroup", flipped)
    undamped = run()
    if flip == "alternating":
        monkeypatch.setattr(kinetostat.equilibrium, "_OSCILLATION_LIMIT", 1)
    with_exit, oracle = _both_stop_rules(monkeypatch, run)
    assert with_exit.iterations == oracle.iterations > plain.iterations
    assert np.array_equal(with_exit.F, oracle.F) and np.array_equal(with_exit.state.theta, oracle.state.theta)
    # the halved steps of the damping take more iterations than undamped ones
    assert (oracle.iterations > undamped.iterations) == (flip == "alternating")


def _matrix_with_condition(rng, n, cond):
    # symmetric indefinite like the saddle block matrix, singular values from 1 to 1/cond
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = np.geomspace(1.0, 1.0 / cond, n) * rng.choice([-1.0, 1.0], n)
    return (Q * s) @ Q.T


def test_condition_guard_matches_svd_condition():
    from kinetostat.equilibrium import COND_LIMIT, _solve

    rng = np.random.default_rng(2024)
    cases = [_matrix_with_condition(rng, int(rng.integers(2, 6)), 10.0 ** rng.uniform(8, 16)) for _ in range(400)]
    cases += [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3)), np.array([[1.0, 0.0], [0.0, math.inf]])]
    outcomes = {"passed": 0, "raised": 0}
    for A in cases:
        cond = np.linalg.cond(A)
        expected = not np.isfinite(cond) or cond > COND_LIMIT
        b = rng.normal(size=A.shape[0])
        try:
            x = _solve(A, b, SingularityError, "block")
        except SingularityError as err:
            assert expected
            assert err.condition == float(cond) or (math.isnan(err.condition) and math.isnan(cond))
            outcomes["raised"] += 1
        else:
            assert not expected
            ref = np.linalg.solve(A, b)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            outcomes["passed"] += 1
    assert min(outcomes.values()) > 100
    # the SVD's own failure surfaces unchanged
    nan_block = np.array([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cond(nan_block)
    with pytest.raises(np.linalg.LinAlgError):
        _solve(nan_block, np.ones(2), SingularityError, "block")


def test_condition_guard_raises_the_given_class_or_solves():
    from kinetostat import ControlSingularityError, SpringSofteningError
    from kinetostat.equilibrium import _solve

    rng = np.random.default_rng(7)
    well = _matrix_with_condition(rng, 4, 1e3)
    b = rng.normal(size=(4, 2))
    np.testing.assert_allclose(_solve(well, b, SingularityError, "block"), np.linalg.solve(well, b), rtol=1e-10)
    bad = _matrix_with_condition(rng, 4, 1e14)
    for error in (SpringSofteningError, ControlSingularityError):
        with pytest.raises(error, match=r"^what \(condition ") as raised:
            _solve(bad, b, error, "what")
        assert raised.value.condition == float(np.linalg.cond(bad))


def _random_rows(rng, chain, m):
    """Start joint vectors of m random configurations and targets near their ends."""
    from conftest import random_state

    x = np.array([chain.element_coordinates(random_state(rng, chain)) for _ in range(m)])
    targets = np.array([fk_array(chain, chain.state_of(v)) for v in x]) + rng.uniform(-0.05, 0.05, (m, chain.task_dim))
    return targets, x


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_equilibrium_stack_is_the_scalar_solve_bit_for_bit(dim):
    # every row the lockstep stack converges is the scalar solve's result to
    # the bit; a row it leaves is one the scalar solve damps, restarts or fails
    from conftest import random_planar_chain, random_spatial_chain
    from kinetostat.equilibrium import _equilibrium_stack

    rng = np.random.default_rng(dim)
    tally = {"stacked": 0, "left": 0}
    for _ in range(8):
        chain = random_spatial_chain(rng, n_joints=8) if dim == 6 else random_planar_chain(rng, task_dim=dim, n_joints=5)
        targets, x = _random_rows(rng, chain, 20)
        rho = x[:, chain.actuated_elements]
        with np.errstate(all="ignore"):
            F, coords, done = _equilibrium_stack(chain, targets, x.copy(), rho, SolverOptions())
        for i in range(len(x)):
            try:
                eq = solve_chain_equilibrium(chain, targets[i], rho[i], start=x[i])
            except (ModelError, NonConvergenceError, SingularityError):
                assert not done[i]
                continue
            if done[i]:
                assert eq.F.tobytes() == F[i].tobytes()
                assert eq.regrouped.coords.tobytes() == coords[i].tobytes()
            tally["stacked" if done[i] else "left"] += 1
    assert tally["stacked"] > 20  # not a vacuous check


@pytest.mark.parametrize(
    "patch, value",
    [("_OSCILLATION_LIMIT", -1), ("_COND_BOUND_CLEAR", 0.0)],
    ids=["damping", "svd-branch"],
)
def test_equilibrium_stack_leaves_rows_to_the_scalar_branches(monkeypatch, patch, value):
    # damping on every iteration, or a Frobenius bound that clears nothing:
    # both branches belong to the scalar solve, so no row converges in the stack
    import kinetostat.equilibrium as equilibrium

    chain = shipped_model().chains[0]
    targets, x = _random_rows(np.random.default_rng(0), chain, 10)
    monkeypatch.setattr(equilibrium, patch, value)
    with np.errstate(all="ignore"):
        done = equilibrium._equilibrium_stack(chain, targets, x.copy(), x[:, chain.actuated_elements], SolverOptions())[2]
    assert not done.any()
    for i in range(len(x)):  # the scalar solve still converges
        solve_chain_equilibrium(chain, targets[i], x[i, chain.actuated_elements], start=x[i])


def _assert_each_row_alone(chain, targets, x, rho, opts, stack):
    """Each row of ``stack`` (F, x, done) has the bytes of that row run as a stack of one, which
    retires no row while others still iterate: finished or not, a row's F and x are its own."""
    from kinetostat.equilibrium import _equilibrium_stack

    for i in range(len(targets)):
        with np.errstate(all="ignore"):
            alone = _equilibrium_stack(chain, targets[i : i + 1], x[i : i + 1].copy(), rho[i : i + 1], opts)
        assert [a.tobytes() for a in alone] == [a[i : i + 1].tobytes() for a in stack]


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_equilibrium_stack_rows_it_does_not_finish_keep_their_bytes(dim):
    # the stacks of test_equilibrium_stack_is_the_scalar_solve_bit_for_bit: a row
    # they do not finish comes back with the F and x it stopped at, the bytes
    # it ends on as a stack of its own
    from conftest import random_planar_chain, random_spatial_chain
    from kinetostat.equilibrium import _equilibrium_stack

    rng, unfinished = np.random.default_rng(dim), 0
    for _ in range(8):
        chain = random_spatial_chain(rng, n_joints=8) if dim == 6 else random_planar_chain(rng, task_dim=dim, n_joints=5)
        targets, x = _random_rows(rng, chain, 20)
        rho = x[:, chain.actuated_elements]
        with np.errstate(all="ignore"):
            stack = _equilibrium_stack(chain, targets, x.copy(), rho, SolverOptions())
        unfinished += int((~stack[2]).sum())
        _assert_each_row_alone(chain, targets, x, rho, SolverOptions(), stack)
    assert unfinished > 20  # not a vacuous check


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_equilibrium_stack_of_two_iterations_ends_where_two_of_one_do(dim):
    # x and F after an iteration depend on the x it starts from only, so a row
    # that one iteration does not finish ends a budget of 2 where a second
    # stack of 1 iteration, started from the first one's x, ends it
    from conftest import random_planar_chain, random_spatial_chain
    from kinetostat.equilibrium import _equilibrium_stack

    rng, compared = np.random.default_rng(dim), 0
    one, two = SolverOptions(max_iterations=1), SolverOptions(max_iterations=2)
    for _ in range(4):
        chain = random_spatial_chain(rng, n_joints=8) if dim == 6 else random_planar_chain(rng, task_dim=dim, n_joints=5)
        targets, x0 = _random_rows(rng, chain, 20)
        rho = x0[:, chain.actuated_elements]
        with np.errstate(all="ignore"):
            F1, x1, done1 = _equilibrium_stack(chain, targets, x0.copy(), rho, one)
            F2, x2 = _equilibrium_stack(chain, targets, x1.copy(), rho, one)[:2]
            F, x = _equilibrium_stack(chain, targets, x0.copy(), rho, two)[:2]
        rows = np.flatnonzero(~done1 & np.isfinite(x1).all(axis=1))
        assert (x1[rows] != x0[rows]).any(axis=1).all()  # the first stack wrote the rows it stopped
        assert F[rows].tobytes() == F2[rows].tobytes() and x[rows].tobytes() == x2[rows].tobytes()
        compared += rows.size
    assert compared > 30  # not a vacuous check


@pytest.mark.parametrize("max_iterations", [2, 50])
@pytest.mark.parametrize("model", ["stop-limit", "dim-3"])
def test_equilibrium_stack_rows_that_stop_in_different_rounds(monkeypatch, model, max_iterations):
    # 12 rows, one aimed at 1e200 and one at its start's own pose, which stop
    # in different rounds or at a budget of 2 iterations: a finished row is
    # the scalar solve's bytes, every row is its own stack of 1, and a stack
    # of 0 rows is nothing
    import kinetostat.equilibrium as equilibrium
    from conftest import random_planar_chain

    chain = stop_limit_model().chains[0] if model == "stop-limit" else random_planar_chain(np.random.default_rng(5), 3, 5)
    targets, x = _random_rows(np.random.default_rng(11), chain, 12)
    targets[3] = 1e200
    targets[5] = fk_array(chain, chain.state_of(x[5]))
    rho, opts = x[:, chain.actuated_elements], SolverOptions(max_iterations=max_iterations)
    real, sizes = equilibrium._stack_pass, []

    def counted(chain, coords, *args):
        sizes.append(len(coords))
        return real(chain, coords, *args)

    monkeypatch.setattr(equilibrium, "_stack_pass", counted)
    with np.errstate(all="ignore"):
        stacks = [equilibrium._equilibrium_stack(chain, targets[:m], x[:m].copy(), rho[:m], opts) for m in (12, 0)]
    F, coords, done = stacks[0]
    assert 0 < done.sum() < 12 and len(set(sizes)) > (1 if max_iterations > 2 else 0)
    for i in np.flatnonzero(done):
        eq = solve_chain_equilibrium(chain, targets[i], rho[i], opts, start=x[i])
        assert eq.F.tobytes() == F[i].tobytes() and eq.regrouped.coords.tobytes() == coords[i].tobytes()
    _assert_each_row_alone(chain, targets, x, rho, opts, stacks[0])
    assert [a.shape for a in stacks[1]] == [(0, chain.task_dim), (0, len(chain.elements)), (0,)]
