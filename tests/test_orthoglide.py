import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kinetostat import (
    ForceDeflectionCurve,
    KinetostatError,
    ModelError,
    NonConvergenceError,
    OrthoglideSpec,
    SolverOptions,
    SpringLaw,
    build_planar_orthoglide,
    compliance_grid,
    critical_force,
    directional_stiffness,
    force_deflection,
    inverse_kinematics_unloaded,
    manipulator_stiffness,
    reproduce_table1,
    solve_inverse_kinetostatic,
    total_wrench,
    workspace_points,
)
from kinetostat.orthoglide import KV_FACTORS, REFERENCE_TABLE, SWEEP_MAX_FACTOR, _critical_points
from kinetostat.orthoglide import Table1Cell, Table1Report
from kinetostat.stiffness import _aggregate_stiffness

from conftest import DIAG, compensate_by_steps, forbid_scalar_solves, linear_preload_model, shipped_model, stop_limit_model


def test_spec_validation():
    with pytest.raises(ModelError):
        OrthoglideSpec(L=0.0)
    with pytest.raises(ModelError):
        OrthoglideSpec(p_factor=0.8)  # beyond 1/sqrt(2)


def test_workspace_points_layout():
    spec = OrthoglideSpec(L=2.0, p_factor=0.45)
    q0, q1, q2 = workspace_points(spec)
    np.testing.assert_allclose(q0.as_array(), [0.0, 0.0])
    np.testing.assert_allclose(q2.as_array(), [0.9, 0.9])
    np.testing.assert_allclose(q1.as_array(), -q2.as_array())


def test_build_geometry_angles(ortho_spec, ortho_nopreload):
    # closed-form circle intersection: the preloaded angle is asin(p) at the
    # corners, positive toward (+p, +p), negative toward (-p, -p)
    q0, q1, q2 = workspace_points(ortho_spec)
    expected = math.asin(ortho_spec.p)
    for s in inverse_kinematics_unloaded(ortho_nopreload, q0):
        assert abs(s.vartheta[0]) < 1e-10
    for s in inverse_kinematics_unloaded(ortho_nopreload, q2):
        assert s.vartheta[0] == pytest.approx(expected, rel=1e-9)
    for s in inverse_kinematics_unloaded(ortho_nopreload, q1):
        assert s.vartheta[0] == pytest.approx(-expected, rel=1e-9)
    assert math.degrees(expected) == pytest.approx(26.74, abs=0.01)


def test_critical_force_monotone_none():
    d = np.linspace(0.0, 1.0, 50)
    curve = ForceDeflectionCurve(
        deltas=d, force_magnitude=2.0 * d, force_along=2.0 * d, direction=np.array([1.0, 0.0])
    )
    assert critical_force(curve) is None


def test_critical_force_quadratic_vertex_recovered():
    d = np.linspace(0.0, 1.0, 101)
    f = 1.0 - (d - 0.3) ** 2
    curve = ForceDeflectionCurve(
        deltas=d, force_magnitude=np.abs(f), force_along=f, direction=np.array([1.0, 0.0])
    )
    crit = critical_force(curve)
    assert crit is not None
    assert crit[0] == pytest.approx(0.3, abs=1e-9)
    assert crit[1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("scale", [1e-228, 1e200])
def test_critical_force_of_any_finite_step(scale):
    # the squares of deltas this small or large leave the float range; the
    # vertex squares no delta, where a least-squares fit in these units used
    # to fail its SVD (exit 1 from sweep) or overflow
    d = np.arange(0.0, 7.0)
    f = 1.0 - (d - 2.4) ** 2
    curve = ForceDeflectionCurve(
        deltas=scale * d, force_magnitude=np.abs(f), force_along=f, direction=np.array([1.0, 0.0])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crit = critical_force(curve)
    assert crit[0] == pytest.approx(2.4 * scale, rel=1e-12)
    assert crit[1] == pytest.approx(1.0, rel=1e-12)


def test_critical_force_of_a_plateau_stays_within_its_samples():
    # a least-squares quadratic through three nearly equal samples has a
    # curvature made of rounding error: it put this peak at delta = -2.63,
    # before the sweep starts, with F = 1.0000000000000007, above every sample
    f = np.array([1.0, 1.0, 1.0 - 2.0**-52, 0.0])
    curve = ForceDeflectionCurve(deltas=np.arange(4.0), force_magnitude=f, force_along=f, direction=np.array([1.0, 0.0]))
    assert critical_force(curve) == (0.5, 1.0)


def test_critical_force_is_the_exact_vertex():
    # f = 3 - 2 (delta - 1.125)^2 in steps of 0.5: every sample and the vertex are exact in binary
    d = np.arange(6) * 0.5
    f = 3.0 - 2.0 * (d - 1.125) ** 2
    curve = ForceDeflectionCurve(deltas=d, force_magnitude=np.abs(f), force_along=f, direction=np.array([1.0, 0.0]))
    assert critical_force(curve) == (1.125, 3.0)


@pytest.mark.filterwarnings("error")
def test_critical_force_near_the_float_range():
    # the differences of these samples leave the float range: the vertex is
    # that of the samples divided by 16, an exact scaling, and no warning
    f = np.array([1e308, 1.5e308, -1.5e308])
    curve = ForceDeflectionCurve(deltas=np.arange(3.0), force_magnitude=np.abs(f), force_along=f, direction=DIAG)
    delta, force = critical_force(curve)
    scaled = critical_force(replace(curve, force_along=f / 16.0))
    assert (delta, force) == (scaled[0], 16.0 * scaled[1])
    assert 1.5e308 < force < math.inf
    # 2**1022 (3 - 8 (delta - 1.125)^2): exact samples whose second difference is -2**1024
    d = 0.5 * np.arange(1.0, 5.0)
    f = 2.0**1022 * (3.0 - 8.0 * (d - 1.125) ** 2)
    curve = ForceDeflectionCurve(deltas=d, force_magnitude=np.abs(f), force_along=f, direction=np.array([1.0, 0.0]))
    assert critical_force(curve) == (1.125, 3.0 * 2.0**1022)


def test_critical_force_needs_three_samples():
    curve = ForceDeflectionCurve(
        deltas=np.array([0.0, 1.0]),
        force_magnitude=np.array([0.0, 1.0]),
        force_along=np.array([0.0, 1.0]),
        direction=np.array([1.0, 0.0]),
    )
    assert critical_force(curve) is None


@pytest.mark.parametrize("kv", [0.0, 0.05])
def test_critical_point_matches_sampled_sweep(ortho_spec, kv):
    # the 301-sample sweep with its quadratic peak fit is the reference, its
    # row 0 seeded by the rigid IK rather than the compensation; F is the
    # 31-sample peak fit, 4.0e-6 relative from the reference at kv = 0
    model = linear_preload_model(kv)
    q2 = workspace_points(ortho_spec)[2]
    opts = ortho_spec.options()
    sol = solve_inverse_kinetostatic(model, q2, 1e-8, opts)
    curve = force_deflection(model, q2, DIAG, 0.3, 0.001, opts, rho_all=sol.rho)
    expected = critical_force(curve)
    found = _critical_points([model], q2, DIAG, 0.3, opts, [[eq.regrouped.coords for eq in sol.equilibria]])[0]
    assert (found is None) == (expected is None)
    assert (expected is None) == (kv > 0.0)
    if expected is not None:
        assert found[0] == pytest.approx(expected[0], abs=1e-4)
        assert found[1] == pytest.approx(expected[1], rel=1e-5)


@pytest.mark.parametrize("p_factor", [0.40, 0.45, 0.50])
@pytest.mark.parametrize(
    "spring",
    [SpringLaw(kv, 0.0, "linear") for kv in KV_FACTORS] + [SpringLaw(0.5, math.pi / 12.0, "positive_part")],
    ids=[f"kv={kv:g}" for kv in KV_FACTORS] + ["stop-limit"],
)
def test_critical_point_is_the_compensated_sweep_peak(p_factor, spring):
    # table 1's critical point is the peak of `sweep --compensate` from Q2 in
    # steps of 0.01 L; it lies within 1e-4 L of the 301-sample sweep's peak,
    # and u^T K_sigma u changes sign across it within one step. Only the two
    # weakest linear preloads buckle within 0.3 L
    spec = OrthoglideSpec(p_factor=p_factor, spring=spring)
    model = build_planar_orthoglide(spec)
    q2 = workspace_points(spec)[2]
    opts = spec.options()
    sol = solve_inverse_kinetostatic(model, q2, 1e-8, opts)
    starts = [eq.regrouped.coords for eq in sol.equilibria]
    found = _critical_points([model], q2, DIAG, 0.3, opts, [starts])[0]
    assert found == critical_force(force_deflection(model, q2, DIAG, 0.3, 0.01, opts, rho_all=sol.rho, starts=starts))
    assert (found is None) == (spring.branch != "linear" or spring.k >= 0.05)
    if found is not None:
        expected = critical_force(force_deflection(model, q2, DIAG, 0.3, 0.001, opts, rho_all=sol.rho, starts=starts))
        assert found[0] == pytest.approx(expected[0], abs=1e-4)
        assert found[1] == pytest.approx(expected[1], rel=1e-5)
        for offset, sign in ((-0.01, 1.0), (0.01, -1.0)):
            K = manipulator_stiffness(model, q2.as_array() + (found[0] + offset) * DIAG, sol.rho).K_sigma
            assert sign * directional_stiffness(K, DIAG) > 0.0


def test_critical_point_lost_branch_raises(ortho_spec):
    # one iteration cannot converge the sample at 0.01 L from its rigid IK:
    # the sweep ends before any peak, and the search raises that sample's
    # error, chain included, rather than report a monotone curve
    model = linear_preload_model(0.0)
    q2 = workspace_points(ortho_spec)[2]
    sol = solve_inverse_kinetostatic(model, q2, 1e-8, ortho_spec.options())
    starved = SolverOptions(max_iterations=1, max_restarts=0)
    with pytest.raises(NonConvergenceError, match=r"did not converge .*\(critical-point search lost the branch "
                                                  r"at delta = 0\.01\)$") as exc:
        _critical_points([model], q2, DIAG, 0.3, starved, [[eq.regrouped.coords for eq in sol.equilibria]])
    assert exc.value.chain_index == 0


def test_critical_point_raises_the_error_its_curve_keeps(monkeypatch, ortho_spec):
    # the lost branch above: the truncated curve carries chain 0's error, and
    # the search raises that error, with no scalar solve or rigid IK
    import kinetostat.chain
    import kinetostat.equilibrium
    import kinetostat.orthoglide as orthoglide

    model = linear_preload_model(0.0)
    q2 = workspace_points(ortho_spec)[2]
    sol = solve_inverse_kinetostatic(model, q2, 1e-8, ortho_spec.options())
    starved = SolverOptions(max_iterations=1, max_restarts=0)
    calls, sweeps = [], []

    def counted(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return call

    ik, solve = counted(kinetostat.chain.chain_ik_best_effort), counted(kinetostat.equilibrium.solve_chain_equilibrium)
    for module in (kinetostat.chain, kinetostat.equilibrium):
        monkeypatch.setattr(module, "chain_ik_best_effort", ik)
    monkeypatch.setattr(kinetostat.equilibrium, "solve_chain_equilibrium", solve)

    def recorded(*args):
        sweeps.append((args, kinetostat.equilibrium._sweep(*args)))
        return sweeps[-1][-1]

    monkeypatch.setattr(orthoglide, "_sweep", recorded)
    with pytest.raises(NonConvergenceError) as exc:
        _critical_points([model], q2, DIAG, 0.3, starved, [[eq.regrouped.coords for eq in sol.equilibria]])
    [(args, [curve])] = sweeps
    assert curve.truncated and curve.error is exc.value and len(curve.deltas) == 1
    searched = calls.copy()
    calls.clear()
    [alone] = kinetostat.equilibrium._sweep(*args)
    assert calls == searched == []  # the failed sample too runs in the stacks
    assert alone.truncated and isinstance(alone.error, NonConvergenceError) and alone.error.chain_index == 0
    assert alone.error.__traceback__ is None  # the curve holds none of the solver's frames


@pytest.fixture(scope="module")
def maps():
    spec = OrthoglideSpec()
    plain = compliance_grid(build_planar_orthoglide(replace(spec, spring=SpringLaw(0.0))), 3)
    stop = compliance_grid(
        build_planar_orthoglide(replace(spec, spring=SpringLaw(0.5, math.pi / 12.0, "positive_part"))), 3
    )
    return plain, stop


def test_compliance_map_centre_cell(maps):
    plain, _ = maps
    assert plain.ok.all()
    centre = plain.c_max[1, 1]
    assert centre == pytest.approx(1.0, abs=1e-6)


def test_compliance_map_xy_symmetry(maps):
    plain, stop = maps
    for grid in (plain, stop):
        np.testing.assert_allclose(grid.c_max, grid.c_max.T, atol=1e-7)
        np.testing.assert_allclose(grid.c_min, grid.c_min.T, atol=1e-7)


def test_stop_limit_map_only_changes_engaged_corner(maps):
    plain, stop = maps
    # grid index (0,0) is the (-p,-p) corner, (2,2) the (+p,+p) corner
    assert stop.c_max[2, 2] <= plain.c_max[2, 2] / 2.0
    assert stop.c_max[0, 0] == pytest.approx(plain.c_max[0, 0], rel=1e-2)
    assert stop.c_max[1, 1] == pytest.approx(plain.c_max[1, 1], rel=1e-2)


def test_indefinite_cell_flagged_failed(monkeypatch, ortho_nopreload):
    # a cell whose stiffness has a negative eigenvalue has no compliance; the
    # grid's chain stiffnesses come as one stack per structure group, here
    # both legs' rows of all four cells
    import kinetostat.orthoglide as orthoglide

    real = orthoglide._chain_responses
    calls = []

    def first_cell_indefinite(chain, coords, F, sensitivity, constants):
        K, errors = real(chain, coords, F, sensitivity, constants)
        calls.append((chain.name, len(K)))
        K[0] = K[len(K) // 2] = np.diag([0.5, -0.5])  # each chain's half of diag(1, -1)
        return K, errors

    monkeypatch.setattr(orthoglide, "_chain_responses", first_cell_indefinite)
    grid = compliance_grid(ortho_nopreload, 2)
    assert calls == [("x-leg", 2 * 4)]
    assert not grid.ok[0, 0]
    assert grid.reasons == {(0, 0): "indefinite stiffness: smallest eigenvalue -1.000e+00"}
    assert np.isnan(grid.c_min[0, 0]) and np.isnan(grid.c_max[0, 0])
    assert grid.ok.sum() == 3
    assert np.all(grid.c_min[grid.ok] > 0.0)


def test_compliance_grid_rejects_non_finite_tolerance(ortho_nopreload):
    with pytest.raises(ModelError, match="finite"):
        compliance_grid(ortho_nopreload, 2, eps_f=float("nan"))


@pytest.mark.parametrize("eps_f", [0.0, -1e-8, math.inf])
def test_compliance_grid_checks_its_tolerance_before_any_cell(monkeypatch, ortho_nopreload, eps_f):
    # inside a cell the error would only flag the cell failed
    import kinetostat.orthoglide as orthoglide

    monkeypatch.setattr(orthoglide, "_fused", None)  # no stack runs
    with pytest.raises(ModelError, match=r"^wrench tolerance eps_f must be positive and finite$"):
        compliance_grid(ortho_nopreload, 2, eps_f=eps_f)


def test_grid_of_redundant_actuators_takes_the_least_squares_loop(monkeypatch):
    # a second x-leg makes the sensitivity 2 x 3: the stacks take each cell's
    # least-squares step, with no scalar solve, bit for bit the per-cell loop
    from kinetostat import ManipulatorModel

    x_leg, y_leg = shipped_model().chains
    model = ManipulatorModel(task_dim=2, chains=[x_leg, y_leg, x_leg], workspace=shipped_model().workspace)
    with monkeypatch.context() as m:
        forbid_scalar_solves(m)
        grid = compliance_grid(model, 3)
    c_max, c_min, ok, reasons = _per_cell_grid(model, 3)
    assert grid.c_max.tobytes() == c_max.tobytes()
    assert grid.c_min.tobytes() == c_min.tobytes()
    assert grid.ok.tobytes() == ok.tobytes() and ok.all()
    assert grid.reasons == reasons == {}


def _per_cell_grid(manipulator, grid_n, eps_f=1e-8, opts=None):
    """The compliance grid as one compensation per cell, each solving its own
    rigid IK, by the scalar Newton loop (``conftest.compensate_by_steps``):
    the grid's form before the stacks, kept as its oracle."""
    lo, hi = manipulator.workspace
    xs, ys = np.linspace(lo[0], hi[0], grid_n), np.linspace(lo[1], hi[1], grid_n)
    c_max, c_min = np.full((grid_n, grid_n), np.nan), np.full((grid_n, grid_n), np.nan)
    ok = np.zeros((grid_n, grid_n), dtype=bool)
    reasons = {}
    for ix in range(grid_n):
        for iy in range(grid_n):
            t = np.zeros(manipulator.task_dim)
            t[0], t[1] = xs[ix], ys[iy]
            try:
                sol = compensate_by_steps(manipulator, t, eps_f, opts)
                res = _aggregate_stiffness(manipulator, sol.equilibria)
            except KinetostatError as err:
                reasons[ix, iy] = err.describe()
                continue
            if res.indefinite:
                reasons[ix, iy] = f"indefinite stiffness: smallest eigenvalue {res.eigenvalues.min():.3e}"
                continue
            c = 1.0 / res.eigenvalues
            c_max[ix, iy], c_min[ix, iy], ok[ix, iy] = c.max(), c.min(), True
    return c_max, c_min, ok, reasons


def _scaled_box(model, scale):
    lo, hi = model.workspace
    return replace(model, workspace=(tuple(scale * v for v in lo), tuple(scale * v for v in hi)))


def _random_arm(seed, dim):
    """A manipulator of one random chain with dim actuators and dim springs,
    one of them a linear preload off its rest (so every cell takes a Newton
    step); its end sits at the origin, level, at the chain's IK seed."""
    from kinetostat import ChainModel, JointModel, ManipulatorModel, Transform, geometry
    from kinetostat.chain import _end_transform

    rng = np.random.default_rng(seed)
    kinds = ["actuated"] * dim + ["virtual_elastic"] * (dim - 1) + ["preloaded_passive"]
    rng.shuffle(kinds)
    elements = []
    for kind in kinds:
        motion = str(rng.choice(["rotational", "translational"]))
        if dim == 3:  # revolutes about z, prismatics in the plane
            v = rng.normal(size=2)
            axis = (0.0, 0.0, 1.0) if motion == "rotational" else (*(v / np.linalg.norm(v)), 0.0)
            link = Transform((*rng.uniform(-0.5, 0.5, 2), 0.0), (0.0, 0.0, rng.uniform(-1.0, 1.0)))
        else:
            v = rng.normal(size=3)
            axis = tuple(v / np.linalg.norm(v))
            link = Transform(tuple(rng.uniform(-0.5, 0.5, 3)), tuple(rng.uniform(-0.3, 0.3, 3)))
        spring = SpringLaw(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.3)) if kind == "preloaded_passive" else None
        stiffness = rng.uniform(0.5, 3.0) if kind == "virtual_elastic" else None
        elements.append((link, JointModel(kind=kind, motion=motion, axis=axis, spring=spring, stiffness=stiffness)))
    chain = ChainModel(task_dim=dim, base_pose=Transform(), elements=elements, tool_transform=Transform())
    seed_coords = rng.uniform(-0.3, 0.3, chain.rigid_elements.size)
    coords = np.zeros(len(elements))
    coords[chain.rigid_elements] = seed_coords
    T = _end_transform(chain, coords)[0]
    R = T[:3, :3].T  # the tool frame undoes the end's pose at the seed
    tool = Transform(tuple(-R @ T[:3, 3]), geometry.rpy_from_matrix(R))
    chain = replace(chain, tool_transform=tool, ik_seed=seed_coords, name=f"arm-{seed}")
    return ManipulatorModel(task_dim=dim, chains=[chain], workspace=((-0.05, -0.05), (0.05, 0.05)))


@pytest.mark.parametrize(
    "build, grid_n, opts, patch, halves",
    [
        (shipped_model, 7, None, None, False),
        (stop_limit_model, 7, None, None, False),
        (lambda: _scaled_box(shipped_model(), 1.6), 10, None, None, False),
        # random chains, each with cells that halve a Newton step or with none that do
        (lambda: _random_arm(0, 3), 4, None, None, False),
        (lambda: _random_arm(1, 3), 4, None, None, True),
        (lambda: _random_arm(3, 6), 4, None, None, False),
        (lambda: _random_arm(7, 6), 4, None, None, True),
        # the iteration budget, damping, the SVD branch
        (shipped_model, 5, SolverOptions(max_iterations=1), None, False),
        (stop_limit_model, 5, SolverOptions(max_iterations=1), None, False),
        (shipped_model, 5, None, ("_OSCILLATION_LIMIT", -1), False),
        (shipped_model, 5, None, ("_COND_BOUND_CLEAR", 0.0), False),
        (shipped_model, 7, None, ("_COND_BOUND_CLEAR", 12.0), False),
    ],
    ids=[
        "shipped", "stop-limit", "box-1.6", "dim3-0", "dim3-1", "dim6-3", "dim6-7",
        "budget-shipped", "budget-stop-limit", "damping", "svd-branch", "svd-branch-some",
    ],
)
def test_grid_bitwise_equal_to_per_cell_compensations(monkeypatch, build, grid_n, opts, patch, halves):
    # every cell runs in the stacks, with no scalar solve, and is its per-cell
    # compensation's to the bit; a grid of one stack whose line search halves
    # some step runs more wrench rounds than one per Newton round and one more
    import kinetostat.control as control
    import kinetostat.equilibrium

    model = build()
    if patch is not None:
        monkeypatch.setattr(kinetostat.equilibrium, *patch)
    rounds = {"_equilibrium_stack": 0, "_chain_responses": 0}

    def counted(name):
        real = getattr(control, name)

        def call(*args, **kwargs):
            rounds[name] += 1
            return real(*args, **kwargs)

        return call

    with monkeypatch.context() as m:
        forbid_scalar_solves(m)
        for name in rounds:
            m.setattr(control, name, counted(name))
        grid = compliance_grid(model, grid_n, opts)
    assert (rounds["_equilibrium_stack"] > rounds["_chain_responses"] + 1) == halves
    c_max, c_min, ok, reasons = _per_cell_grid(model, grid_n, opts=opts)
    assert grid.c_max.tobytes() == c_max.tobytes()
    assert grid.c_min.tobytes() == c_min.tobytes()
    assert grid.ok.tobytes() == ok.tobytes()
    # every failed cell names its reason, and only failed cells do, in cell order
    assert set(grid.reasons) == {tuple(cell) for cell in np.argwhere(~ok).tolist()}
    assert list(grid.reasons.items()) == list(reasons.items())


def test_batch_solves_run_without_a_scalar_solve(monkeypatch):
    # with every scalar solver made to raise, the compliance maps, table 1 and
    # the force-deflection sweeps of the bitwise tests still run to their end,
    # also where a row restarts, halves a step or fails for want of iterations
    starved = SolverOptions(max_iterations=1)
    forbid_scalar_solves(monkeypatch)
    for build, grid_n, opts in ((shipped_model, 7, None), (stop_limit_model, 5, starved), (lambda: _random_arm(7, 6), 4, None)):
        grid = compliance_grid(build(), grid_n, opts)
        assert grid.ok.any() and set(grid.reasons) == {tuple(cell) for cell in np.argwhere(~grid.ok).tolist()}
    assert len(reproduce_table1(OrthoglideSpec(p_factor=0.3)).cells) == 3 * len(KV_FACTORS)
    with pytest.raises(NonConvergenceError, match=r"critical-point search lost the branch"):
        reproduce_table1(OrthoglideSpec(), starved)
    for model in (shipped_model(), stop_limit_model()):
        for opts in (None, starved):
            curve = force_deflection(model, [0.1, -0.2], [0.6, 0.8], 0.096, 0.004, opts)
            assert (len(curve.deltas) < 25) == curve.truncated == (opts is starved)


def test_grid_tail_matches_the_per_cell_path(monkeypatch):
    # a box where the border cells lie out of reach: the first reached cell is
    # made indefinite in the stacked stiffness, and the other reached cells
    # keep their per-cell bytes
    import kinetostat.orthoglide as orthoglide

    model, grid_n = _scaled_box(shipped_model(), 2.4), 5
    c_max, c_min, ok, reasons = _per_cell_grid(model, grid_n)
    reached = [cell for cell in np.ndindex(grid_n, grid_n) if cell not in reasons]
    assert reasons and len(reached) > 2
    assert all(reason.startswith("model error: pose unreachable for chain ") for reason in reasons.values())
    indefinite = "indefinite stiffness: smallest eigenvalue -1.000e+00"
    c_max[reached[0]] = c_min[reached[0]] = np.nan
    ok[reached[0]] = False
    reasons = {cell: reasons.get(cell, indefinite) for cell in np.ndindex(grid_n, grid_n) if cell in reasons or cell == reached[0]}
    real_responses = orthoglide._chain_responses

    def first_finished_indefinite(chain, coords, F, sensitivity, constants):
        K, errors = real_responses(chain, coords, F, sensitivity, constants)
        K[0] = K[len(K) // 2] = np.diag([0.5, -0.5])  # each leg's half of diag(1, -1), the legs in one stack
        return K, errors

    monkeypatch.setattr(orthoglide, "_chain_responses", first_finished_indefinite)
    grid = compliance_grid(model, grid_n)
    assert grid.c_max.tobytes() == c_max.tobytes()
    assert grid.c_min.tobytes() == c_min.tobytes()
    assert grid.ok.tobytes() == ok.tobytes()
    assert list(grid.reasons.items()) == list(reasons.items())


def test_grid_names_the_reason_of_a_failed_cell():
    # on a box three times the shipped one, the corners lie out of reach
    grid = compliance_grid(_scaled_box(shipped_model(), 3.0), 3)
    assert not grid.ok[0, 0]
    assert grid.reasons[0, 0].startswith("model error: pose unreachable for chain 'x-leg', closest distance ")
    assert float(grid.reasons[0, 0].rsplit(" ", 1)[1]) > 1e-10


def _split_grid_groups(monkeypatch, model):
    """Stacks of 7 rows (3 cells) of a 5 x 5 grid are the whole grid's cells; returns
    the number of active-mask groups of every stacked block system."""
    import kinetostat.orthoglide as orthoglide
    from kinetostat.chain import ChainModel

    whole = compliance_grid(model, 5)
    monkeypatch.setattr(orthoglide, "_STACK_ROWS", 7)
    groups_seen = []
    real = ChainModel._by_mask

    def counted(chain, masks):
        groups = real(chain, masks)
        groups_seen.append(len(groups))
        return groups

    monkeypatch.setattr(ChainModel, "_by_mask", counted)
    split = compliance_grid(model, 5)
    for name in ("c_max", "c_min", "ok"):
        assert getattr(split, name).tobytes() == getattr(whole, name).tobytes()
    assert split.reasons == whole.reasons
    return groups_seen


def test_grid_split_into_several_stacks_is_the_same_grid(monkeypatch):
    # 25 cells in stacks of 7 rows, that is 3 cells: the last stack is short, and no cell moves;
    # some stacks mix cells whose preloads engage with cells where they idle
    assert max(_split_grid_groups(monkeypatch, stop_limit_model())) > 1


def test_grid_split_on_the_linear_preload_model_is_the_same_grid(monkeypatch):
    # every cell of the shipped model takes a Newton step; its preload never idles
    assert max(_split_grid_groups(monkeypatch, shipped_model())) == 1


def test_grid_stacks_hold_at_most_the_cap_in_rows(monkeypatch):
    # _STACK_ROWS counts the rows of a stack across the legs, which share one:
    # a cap of 8 rows runs a 5 x 5 grid 4 cells a stack, with the same bytes;
    # at the shipped cap a 45 x 45 grid is one stack and a 46 x 46 grid is not
    import kinetostat.orthoglide as orthoglide

    model, cap = shipped_model(), orthoglide._STACK_ROWS
    whole = compliance_grid(model, 5)
    real, rows = orthoglide._ik_stack, []

    def counted(chain, targets, constants):
        rows.append(len(targets))
        return real(chain, targets, constants)

    monkeypatch.setattr(orthoglide, "_ik_stack", counted)
    monkeypatch.setattr(orthoglide, "_STACK_ROWS", 8)
    split = compliance_grid(model, 5)
    assert rows == [8] * 6 + [2]
    for name in ("c_max", "c_min", "ok"):
        assert getattr(split, name).tobytes() == getattr(whole, name).tobytes()
    assert split.reasons == whole.reasons

    class FirstStack(Exception):
        pass

    def first_only(chain, targets, constants):
        rows.append(len(targets))
        raise FirstStack

    monkeypatch.setattr(orthoglide, "_STACK_ROWS", cap)
    monkeypatch.setattr(orthoglide, "_ik_stack", first_only)
    for grid_n, expected in ((45, 2 * 45 * 45), (46, cap)):
        rows.clear()
        with pytest.raises(FirstStack):
            compliance_grid(model, grid_n)
        assert rows == [expected]


def test_grid_solves_rigid_ik_as_one_stack_per_structure_group(monkeypatch):
    # the legs share a structure: one IK stack of both legs' rows, each leg
    # with exactly the grid's cells, in cell order
    import kinetostat.chain
    import kinetostat.orthoglide as orthoglide

    real_ik, real_stack = kinetostat.chain.chain_ik_best_effort, orthoglide._ik_stack
    calls, stacks = [], []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return real_ik(*args, **kwargs)

    def counted_stack(chain, targets, constants):
        stacks.append((chain.name, targets.copy()))
        return real_stack(chain, targets, constants)

    monkeypatch.setattr(kinetostat.chain, "chain_ik_best_effort", counted)
    monkeypatch.setattr(orthoglide, "_ik_stack", counted_stack)
    grid = compliance_grid(shipped_model(), 10)
    assert grid.ok.all()
    assert calls == []
    cells = np.array([[x, y] for x in grid.xs for y in grid.ys])
    assert [(name, targets.tobytes()) for name, targets in stacks] == [("x-leg", np.concatenate([cells, cells]).tobytes())]


@pytest.fixture(scope="module")
def table1():
    return reproduce_table1(OrthoglideSpec())


def test_table1_centre_exact(table1):
    for kv in table1.kv_factors:
        cell = table1.cells[("Q0", kv)]
        assert cell.rho == pytest.approx(1.0, abs=1e-9)
        assert cell.stiffness == pytest.approx(1.0 + kv, abs=1e-6)


def test_table1_reference_deviations_reported(table1):
    cell = table1.cells[("Q2", 0.1)]
    assert cell.rho_ref == 1.453
    assert abs(cell.rho_deviation) < 0.02
    assert cell.stiffness_ref == 0.55
    assert abs(cell.stiffness_deviation) < 0.05


def test_table1_report_serializes(table1):
    tree = table1.to_json_dict()
    assert set(tree["points"].keys()) == {"Q0", "Q1", "Q2"}
    text = table1.to_text()
    assert "Q2" in text and "F_cr" in text


def test_table1_critical_search_reuses_compensation_equilibria(monkeypatch, table1):
    # the cells' rigid IK is one stack of Q0, Q1 and Q2 for both legs, and the
    # critical sweeps' one stack of the 31 samples for both legs: every kv
    # shares both; the sweep at Q2 starts from the equilibria of Q2's
    # compensation, and a cold solve at delta = 0 gives the same equilibria,
    # so the same report
    import kinetostat.chain
    import kinetostat.equilibrium
    import kinetostat.orthoglide as orthoglide

    real_ik, real_stack = kinetostat.chain.chain_ik_best_effort, orthoglide._ik_stack
    calls, stacks = [], []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return real_ik(*args, **kwargs)

    def counted_stack(chain, targets, constants):
        stacks.append(targets.copy())
        return real_stack(chain, targets, constants)

    for module in (kinetostat.chain, kinetostat.equilibrium):
        monkeypatch.setattr(module, "chain_ik_best_effort", counted)
    for module in (orthoglide, kinetostat.equilibrium):
        monkeypatch.setattr(module, "_ik_stack", counted_stack)
    report = reproduce_table1(OrthoglideSpec())
    points = np.array([pose.as_array() for pose in workspace_points(OrthoglideSpec())])
    sweep = points[2] + (np.arange(31) * 0.01)[:, None] * (DIAG / np.linalg.norm(DIAG))
    assert calls == []
    assert [targets.tobytes() for targets in stacks] == [np.concatenate([t, t]).tobytes() for t in (points, sweep)]

    real_search = orthoglide._critical_points

    def cold_start(models, start, u, max_delta, opts, starts):
        cold = []
        for model, xs in zip(models, starts):
            rho = [x[chain.actuated_elements] for chain, x in zip(model.chains, xs)]
            cold.append([eq.regrouped.coords for eq in total_wrench(model, start, rho, opts)[1]])
        return real_search(models, start, u, max_delta, opts, cold)

    monkeypatch.setattr(orthoglide, "_critical_points", cold_start)
    cold_report = reproduce_table1(OrthoglideSpec())
    # the cold start's rigid IK per chain and kv
    assert len(calls) == 2 * len(KV_FACTORS)
    assert json.dumps(report.to_json_dict()) == json.dumps(cold_report.to_json_dict())
    assert report.to_text() == cold_report.to_text() == table1.to_text()


def _per_cell_table1(spec, opts=None):
    """Table 1 as one compensation per cell, each solving its own rigid IK by
    the scalar Newton loop (``conftest.compensate_by_steps``), and the
    critical sweep from Q2's equilibria: the report's form before the
    stacks, kept as its oracle."""
    opts = opts or spec.options()
    points = dict(zip(("Q0", "Q1", "Q2"), workspace_points(spec)))
    directions = {"Q0": DIAG, "Q1": -DIAG, "Q2": DIAG}
    cells, critical = {}, {}
    for kv in KV_FACTORS:
        model = build_planar_orthoglide(replace(spec, spring=SpringLaw(kv * spec.K_theta * spec.L**2, 0.0, "linear")))
        for point, pose in points.items():
            sol = compensate_by_steps(model, pose, 1e-8 * spec.K_theta * spec.L, opts)
            K = _aggregate_stiffness(model, sol.equilibria).K_sigma
            rho, refs = tuple(float(r[0]) for r in sol.rho), REFERENCE_TABLE[point]
            cells[point, kv] = Table1Cell(
                point=point,
                kv=kv,
                rho=float(np.mean(rho)),
                rho_per_chain=rho,
                rho_ref=refs["rho"].get(kv),
                stiffness=directional_stiffness(K, directions[point]),
                stiffness_ref=refs["stiffness"].get(kv),
                outer_iterations=sol.outer_iterations,
                residual_wrench=sol.residual_wrench,
            )
        starts = [eq.regrouped.coords for eq in sol.equilibria]  # Q2's, the last point
        critical[kv] = _critical_points([model], points["Q2"], DIAG, SWEEP_MAX_FACTOR * spec.L, opts, [starts])[0]
    critical_ref = {kv: REFERENCE_TABLE["Q2"]["critical_force"][kv] for kv in KV_FACTORS}
    return Table1Report(spec.p_factor, KV_FACTORS, cells, critical, critical_ref)


@pytest.mark.parametrize(
    "spec, opts",
    [
        (OrthoglideSpec(), None),
        (OrthoglideSpec(), SolverOptions(pose_tol=1e-9, max_iterations=2)),
        (OrthoglideSpec(p_factor=0.3), None),
        (OrthoglideSpec(), SolverOptions(pose_tol=1e-7, rng_seed=3)),
    ],
    ids=["defaults-stacks", "max-iter-2-stacks", "p-factor-0.3-stacks", "seed-3-tol-1e-7-stacks"],
)
def test_table1_bitwise_equal_to_per_cell_compensations(monkeypatch, spec, opts):
    # the report runs in stacks, with no scalar solve
    expected = _per_cell_table1(spec, opts)
    with monkeypatch.context() as m:
        forbid_scalar_solves(m)
        report = reproduce_table1(spec, opts)
    assert json.dumps(report.to_json_dict()) == json.dumps(expected.to_json_dict())
    assert report.to_text() == expected.to_text()


def test_table1_raises_the_first_error_of_the_per_cell_path(monkeypatch, capsys):
    # one iteration loses kv 0's critical sweep at its first step past Q2
    from kinetostat.cli import main

    starved = SolverOptions(max_iterations=1)
    with pytest.raises(NonConvergenceError) as per_cell:
        _per_cell_table1(OrthoglideSpec(), starved)
    with monkeypatch.context() as m, pytest.raises(NonConvergenceError) as stacked:
        forbid_scalar_solves(m)
        reproduce_table1(OrthoglideSpec(), starved)
    assert str(stacked.value) == str(per_cell.value)
    assert stacked.value.chain_index == per_cell.value.chain_index == 0
    assert main(["bench", "orthoglide", "--max-iter", "1"]) == 4
    assert capsys.readouterr().err == per_cell.value.describe() + "\n"


def _failing_points(monkeypatch, rows):
    """Make ``_compensate_stack`` fail the given rows of table 1's (kv, point) stack; returns the rows it failed."""
    import kinetostat.orthoglide as orthoglide

    real, failed = orthoglide._compensate_stack, []

    def failing(chains, targets, *args):
        coords, F, stats, errors, *counts = real(chains, targets, *args)
        for row in rows:
            errors[row] = NonConvergenceError(f"no compensation at {targets[row].tolist()}", residual=1.0)
            failed.append(targets[row].tolist())
        return coords, F, stats, errors, *counts

    monkeypatch.setattr(orthoglide, "_compensate_stack", failing)
    return failed


def test_table1_raises_the_error_of_the_first_failed_point(monkeypatch):
    # Q1 and Q2 of the second kv failing: the report raises Q1's error, the
    # first in (kv, point) order
    _failing_points(monkeypatch, [5, 4])
    with pytest.raises(NonConvergenceError, match=r"^no compensation at \[-0\.45, -0\.45\]$"):
        reproduce_table1(OrthoglideSpec())


def test_table1_raises_a_lost_branch_before_a_later_kvs_failed_point(monkeypatch):
    # one iteration loses kv 0's critical sweep, and every point of the later
    # kvs is made to fail: a loop over kv meets the lost branch first, and the
    # report raises that error, not the point's
    starved = SolverOptions(max_iterations=1)
    with pytest.raises(NonConvergenceError) as per_cell:
        _per_cell_table1(OrthoglideSpec(), starved)
    failed = _failing_points(monkeypatch, range(3, 3 * len(KV_FACTORS)))
    with pytest.raises(NonConvergenceError, match=r"\(critical-point search lost the branch at delta = 0\.01\)$") as stacked:
        reproduce_table1(OrthoglideSpec(), starved)
    assert str(stacked.value) == str(per_cell.value)
    assert stacked.value.chain_index == per_cell.value.chain_index == 0
    assert len(failed) == 3 * (len(KV_FACTORS) - 1)
