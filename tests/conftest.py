import inspect
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
    """Wrap the stack kernel ``name`` (``_ik_stack``, ``_equilibrium_stack``, ``_loaded_derivatives``,
    ``_chain_responses`` or ``_solve_stack``) in every ``kinetostat`` module that binds it: each call also fails
    its first row, its last row or every row (``where``), with NaN in that row of its first output and
    ``error(message)`` as that row's error (``_solve_stack`` returns only the solution and writes its errors
    into the dict it is given). Returns the list of rows failed so far, one entry a row."""
    import kinetostat.chain
    import kinetostat.control
    import kinetostat.equilibrium
    import kinetostat.orthoglide
    import kinetostat.stiffness

    modules = (kinetostat.chain, kinetostat.equilibrium, kinetostat.stiffness, kinetostat.control, kinetostat.orthoglide)
    home = {"_ik_stack": kinetostat.chain, "_loaded_derivatives": kinetostat.chain, "_chain_responses": kinetostat.stiffness}
    real, failed = getattr(home.get(name, kinetostat.equilibrium), name), []

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        if name == "_solve_stack":  # (A, b, error, what, errors), the last one maybe by keyword
            given = inspect.signature(real).bind(*args, **kwargs).arguments
            m, first, errors, label = len(given["A"]), out, given["errors"], given["what"]
        else:  # (chain, rows, ...), returning (first, ..., errors by row)
            m, first, errors, label = len(args[1]), out[0], out[-1], f"chain {args[0].name!r}"
        for row in {"first": [0], "last": [m - 1], "every": range(m)}[where] if m else []:
            first[row] = np.nan
            errors[row] = error(f"injected into row {row} of {label}")
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


def load_hessian_by_pairs(chain, coords, F):
    """The load Hessians (M, n, n) of ``chain._loaded_derivatives`` at stacked joint vectors (M, n_elements)
    under wrenches (M, d), built as a Python loop over the element pairs a <= b: the kernel's form before the
    broadcast, kept as its oracle."""
    from kinetostat.chain import _euler_stack, _map_rates, _row_constants, _stack_columns, _stack_pass

    constants = _row_constants([chain], [len(coords)])
    pose, T, frames = _stack_pass(chain, coords, constants)
    cols, twists = _stack_columns(chain, T, frames, constants, True)
    dim, E_inv = chain.task_dim, None
    if dim == 6:
        E_inv = _euler_stack(pose)[0]
        cols = _map_rates(cols, E_inv)
    twists = list(zip(*(t.T for t in twists)))  # per element six (M,) arrays
    n = len(twists)
    f = F.T
    f0, f1 = f[0], f[1]
    f2 = f[2] if dim == 6 else 0.0
    if dim == 3:
        c0, c1, c2 = T[:, :3, 0].T
        inv_s = 1.0 / (c0 * c0 + c1 * c1)
        dc = [(o1 * c2 - o2 * c1, o2 * c0 - o0 * c2, o0 * c1 - o1 * c0) for o0, o1, o2, *_ in twists]
        yaw = cols[:, 2, :].T
        mu = [(c0 * d0 + c1 * d1) * inv_s for d0, d1, _ in dc]
    elif dim == 6:
        G = (E_inv.swapaxes(-1, -2) @ F[:, 3:, None])[..., 0].T
        cy, sy = np.cos(pose[:, 4]), np.sin(pose[:, 4])
        cz, sz = np.cos(pose[:, 5]), np.sin(pose[:, 5])
        rates = cols[:, 3:, :].T
    H = [[0.0] * n for _ in range(n)]
    for b in range(n):
        v0, v1, v2 = twists[b][3:]
        for a in range(b + 1):
            o0, o1, o2 = twists[a][:3]
            h = f0 * (o1 * v2 - o2 * v1) + f1 * (o2 * v0 - o0 * v2) + f2 * (o0 * v1 - o1 * v0)
            if dim == 3:
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
    return np.transpose(H)
