import math
from importlib import resources

import numpy as np
import pytest

from kinetostat import (
    ChainModel,
    JointModel,
    ManipulatorModel,
    OrthoglideSpec,
    SolverOptions,
    SpringLaw,
    Transform,
    build_planar_orthoglide,
    parse_model,
)

DIAG = np.array([1.0, 1.0]) / math.sqrt(2.0)


@pytest.fixture
def opts():
    return SolverOptions()


@pytest.fixture
def ortho_spec():
    return OrthoglideSpec()


@pytest.fixture
def ortho_nopreload():
    return build_planar_orthoglide(OrthoglideSpec())


def shipped_model():
    """The packaged planar orthoglide with its linear preload (kv = 0.1)."""
    return parse_model(resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text())


def count_iterations(monkeypatch):
    """Record the iterations of every chain equilibrium solved from now on."""
    import kinetostat.equilibrium

    real = kinetostat.equilibrium.solve_chain_equilibrium
    iterations = []

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(kinetostat.equilibrium, "solve_chain_equilibrium", counted)
    return iterations


def sweep_by_samples(manipulator, start, direction, max_delta, step, opts=None, rho_all=None, starts=None):
    """``force_deflection`` as one cold ``total_wrench`` per sample, the first started from ``starts``
    when given: the definition of a sample that the stacked sweep reproduces, kept as its oracle."""
    from kinetostat import NonConvergenceError, SingularityError, inverse_kinematics_unloaded, total_wrench
    from kinetostat.equilibrium import ForceDeflectionCurve, _scaled_norms

    target, u = manipulator.pose_array(start), np.asarray(direction, dtype=float)
    s, norm = _scaled_norms(u[None])
    u = u / s / norm
    if rho_all is None:
        warm = starts if starts is not None else inverse_kinematics_unloaded(manipulator, target)
        rho_all = [x[c.actuated_elements] if isinstance(x, np.ndarray) else x.rho for c, x in zip(manipulator.chains, warm)]
    forces, error = [], None
    for i in range(int(round(max_delta / step)) + 1):
        try:
            F, _ = total_wrench(manipulator, target + (i * step) * u, rho_all, opts, starts=None if i else starts)
        except (NonConvergenceError, SingularityError) as err:
            error = err
            break
        forces.append(F)
    F = np.array(forces).reshape(len(forces), manipulator.task_dim)
    s, norms = _scaled_norms(F)
    return ForceDeflectionCurve(np.arange(len(F)) * step, s * norms, (F[:, None] @ u[:, None])[:, 0, 0], u, error)


def forbid_scalar_solves(monkeypatch, rigid_ik=True):
    """Make every scalar solver raise: the chain equilibrium (and so ``total_wrench``), the
    compensation, and the rigid IK unless ``rigid_ik`` is False, which lets a single-pose
    command solve its rigid IK and nothing else alone. Code that runs wholly in the stacks
    does not notice."""
    import kinetostat.chain
    import kinetostat.control
    import kinetostat.equilibrium

    def forbidden(*args, **kwargs):
        raise AssertionError("a scalar solve ran")

    names = [(kinetostat.equilibrium, "solve_chain_equilibrium"), (kinetostat.control, "solve_inverse_kinetostatic")]
    if rigid_ik:
        names += [(kinetostat.equilibrium, "chain_ik_best_effort"), (kinetostat.chain, "chain_ik_best_effort")]
    for module, name in names:
        monkeypatch.setattr(module, name, forbidden)


def inject_errors(monkeypatch, name, where, error):
    """Wrap the stack kernel ``name`` (``_ik_stack``, ``_equilibrium_stack`` or ``_chain_responses``) in every
    ``kinetostat`` module that binds it: each call also fails its first row, its last row or every row
    (``where``), with NaN in that row of its first output and ``error(message)`` as that row's error. Returns
    the list of rows failed so far, one entry a row."""
    import kinetostat.chain
    import kinetostat.control
    import kinetostat.equilibrium
    import kinetostat.orthoglide
    import kinetostat.stiffness

    modules = (kinetostat.chain, kinetostat.equilibrium, kinetostat.stiffness, kinetostat.control, kinetostat.orthoglide)
    home = {"_ik_stack": kinetostat.chain, "_equilibrium_stack": kinetostat.equilibrium}.get(name, kinetostat.stiffness)
    real, failed = getattr(home, name), []

    def failing(chain, rows, *args):
        out, m = real(chain, rows, *args), len(rows)
        for row in {"first": [0], "last": [m - 1], "every": range(m)}[where] if m else []:
            out[0][row] = np.nan
            out[-1][row] = error(f"injected into row {row} of chain {chain.name!r}")
            failed.append(row)
        return out

    for module in modules:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, failing)
    return failed


def compensate_by_steps(manipulator, t, eps_f, opts=None, f_ext=None):
    """``solve_inverse_kinetostatic`` as its Newton loop over ``total_wrench`` and ``sensitivity_matrix``: the
    definition of the compensation that the stacked loop reproduces, kept as its oracle."""
    from kinetostat import ControlSingularityError, KinetostaticSolution, NonConvergenceError
    from kinetostat import inverse_kinematics_unloaded, sensitivity_matrix, total_wrench
    from kinetostat.control import _MAX_HALVINGS, _MAX_OUTER
    from kinetostat.equilibrium import _solve, split_rho

    target = manipulator.pose_array(t)
    F_target = np.zeros(manipulator.task_dim) if f_ext is None else np.asarray(f_ext, dtype=float)
    seeds = inverse_kinematics_unloaded(manipulator, target)
    rho = np.concatenate([s.rho for s in seeds])
    F, equilibria = total_wrench(manipulator, target, rho, opts, starts=seeds)
    err = F - F_target
    err_norm = float(np.linalg.norm(err))
    history, full_rank = [err_norm], True
    for _ in range(_MAX_OUTER):
        if err_norm < eps_f:
            break
        S = sensitivity_matrix(manipulator, target, rho, opts, starts=seeds)
        if S.shape[0] == S.shape[1]:
            step = _solve(S, err, ControlSingularityError, "force/actuator sensitivity is singular")
        else:
            step, _, rank, _ = np.linalg.lstsq(S, err, rcond=None)
            full_rank = rank == min(S.shape)
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            rho_try = rho - lam * step
            F_try, eqs_try = total_wrench(manipulator, target, rho_try, opts, starts=seeds)
            err_try = F_try - F_target
            try_norm = float(np.linalg.norm(err_try))
            if try_norm < err_norm:
                rho, err, err_norm, equilibria = rho_try, err_try, try_norm, eqs_try
                break
            lam *= 0.5
        else:  # no halving lowered the residual
            break
        history.append(err_norm)
    if err_norm < eps_f:
        return KinetostaticSolution(split_rho(manipulator, rho), err_norm, len(history) - 1, full_rank, history, equilibria)
    raise NonConvergenceError(
        f"kinetostatic compensation stalled at |F| = {err_norm:.3e} (eps_f = {eps_f:.3e})",
        residual=err_norm,
        iterations=len(history) - 1,
    )


def linear_preload_model(kv):
    return build_planar_orthoglide(OrthoglideSpec(spring=SpringLaw(kv, 0.0, "linear")))


def stop_limit_model(k=0.5, offset=math.pi / 12.0):
    return build_planar_orthoglide(OrthoglideSpec(spring=SpringLaw(k, offset, "positive_part")))


def off_base_actuator_model(spring=SpringLaw(0.1, 0.0, "linear"), base_spring=None):
    """Two planar legs whose drive sits behind a revolute spring at the base:
    base spring, actuated slider, drive spring, preloaded revolute, bar of
    unit length. The base spring turns the drive axis, so the wrench
    depends on rho through the mixed load Hessian as well. It is a virtual
    spring of stiffness 5, or a preloaded joint with ``base_spring``, which
    leaves a passive coordinate before the actuator while it is idle."""
    if base_spring is None:
        base = JointModel(kind="virtual_elastic", motion="rotational", axis=(0.0, 0.0, 1.0), stiffness=5.0)
    else:
        base = JointModel(kind="preloaded_passive", motion="rotational", axis=(0.0, 0.0, 1.0), spring=base_spring)

    def leg(name, drive_axis, revolute_axis, bar):
        return ChainModel(
            task_dim=2,
            base_pose=Transform.identity(),
            elements=[
                (Transform.identity(), base),
                (Transform.identity(), JointModel(kind="actuated", motion="translational", axis=drive_axis)),
                (
                    Transform.identity(),
                    JointModel(kind="virtual_elastic", motion="translational", axis=drive_axis, stiffness=1.0),
                ),
                (
                    Transform.identity(),
                    JointModel(
                        kind="preloaded_passive",
                        motion="rotational",
                        axis=revolute_axis,
                        spring=spring,
                    ),
                ),
            ],
            tool_transform=Transform(translation=bar),
            ik_seed=np.array([1.0, 0.0] if base_spring is None else [1.0, 0.0, 0.0]),
            name=name,
        )

    chains = [
        leg("x-leg", (1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)),
        leg("y-leg", (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, 0.0)),
    ]
    return ManipulatorModel(task_dim=2, chains=chains, name="off-base-actuator")


def _unit(v):
    v = np.asarray(v, dtype=float)
    return tuple(v / np.linalg.norm(v))


def random_planar_chain(rng, task_dim=2, n_joints=4):
    """Random planar chain: z-axis revolutes and in-plane prismatics."""
    elements = []
    kinds = ["virtual_elastic"]  # guarantee compliance
    kinds += list(rng.choice(["perfect_passive", "virtual_elastic", "preloaded_passive", "actuated"], size=n_joints - 1))
    rng.shuffle(kinds)
    for kind in kinds:
        motion = str(rng.choice(["rotational", "translational"]))
        if motion == "rotational":
            axis = (0.0, 0.0, 1.0 if rng.uniform() < 0.5 else -1.0)
        else:
            axis = _unit([rng.normal(), rng.normal(), 0.0])
        spring = None
        stiffness = None
        if kind == "preloaded_passive":
            spring = SpringLaw(
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(-0.3, 0.3)),
                str(rng.choice(["linear", "positive_part", "negative_part"])),
            )
        elif kind == "virtual_elastic":
            stiffness = float(rng.uniform(0.5, 3.0))
        link = Transform(
            translation=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), 0.0),
            rpy=(0.0, 0.0, float(rng.uniform(-1.0, 1.0))),
        )
        elements.append((link, JointModel(kind=kind, motion=motion, axis=axis, spring=spring, stiffness=stiffness)))
    tool = Transform(translation=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), 0.0))
    return ChainModel(
        task_dim=task_dim,
        base_pose=Transform(translation=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), 0.0)),
        elements=elements,
        tool_transform=tool,
    )


def random_spatial_chain(rng, n_joints=5):
    """Random spatial chain with general axes, kept away from gimbal lock."""
    elements = []
    kinds = ["virtual_elastic"]
    kinds += list(rng.choice(["perfect_passive", "virtual_elastic", "actuated"], size=n_joints - 1))
    for kind in kinds:
        motion = str(rng.choice(["rotational", "translational"]))
        axis = _unit(rng.normal(size=3))
        stiffness = float(rng.uniform(0.5, 3.0)) if kind == "virtual_elastic" else None
        link = Transform(
            translation=tuple(rng.uniform(-0.5, 0.5, size=3)),
            rpy=tuple(rng.uniform(-0.3, 0.3, size=3)),
        )
        elements.append((link, JointModel(kind=kind, motion=motion, axis=axis, stiffness=stiffness)))
    return ChainModel(
        task_dim=6,
        base_pose=Transform(translation=tuple(rng.uniform(-0.5, 0.5, size=3))),
        elements=elements,
        tool_transform=Transform(translation=tuple(rng.uniform(-0.5, 0.5, size=3))),
    )


def random_state(rng, chain, scale=0.4):
    from kinetostat import ChainState

    return ChainState(
        rho=rng.uniform(-scale, scale, chain.n_actuated),
        q=rng.uniform(-scale, scale, chain.n_perfect),
        vartheta=rng.uniform(-scale, scale, chain.n_preloaded),
        theta=rng.uniform(-scale, scale, chain.n_virtual),
    )


def two_prismatic_toy(k1=1.3, k2=0.7):
    """Exactly linear chain: two orthogonal prismatic springs, no passives."""
    chain = ChainModel(
        task_dim=2,
        base_pose=Transform.identity(),
        elements=[
            (Transform.identity(), JointModel(kind="actuated", motion="translational", axis=(1.0, 0.0, 0.0))),
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=k1)),
            (Transform.identity(), JointModel(kind="virtual_elastic", motion="translational", axis=(0.0, 1.0, 0.0), stiffness=k2)),
        ],
        tool_transform=Transform.identity(),
        name="toy",
    )
    return ManipulatorModel(task_dim=2, chains=[chain], name="toy")


def scalar_columns(chain, coords):
    """Task Jacobian columns of every chain element at a joint vector from the scalar forward pass, the
    one the scalar equilibrium solve and rigid IK read."""
    from kinetostat.chain import _columns, _end_transform, _task_pose, _twists

    T, frames = _end_transform(chain, coords)
    return _columns(chain, T, _task_pose(T, chain.task_dim), _twists(chain, T, frames))


def gradient_differences(chain, coords, F):
    """d(J^T F)/dx over every chain element by central differences of the
    analytic J^T F, step 1e-6 * max(1, |x|): the load Hessian's form before
    the closed one, kept as its oracle. Column j differentiates along
    element j."""
    F = np.asarray(F, dtype=float)
    H = np.zeros((coords.size, coords.size))
    for j in range(coords.size):
        h = 1e-6 * max(1.0, abs(coords[j]))
        cp = coords.copy()
        cm = coords.copy()
        cp[j] += h
        cm[j] -= h
        gp = scalar_columns(chain, cp).T @ F
        gm = scalar_columns(chain, cm).T @ F
        H[:, j] = (gp - gm) / (2.0 * h)
    return H
