import math

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


def gradient_differences(chain, coords, F):
    """d(J^T F)/dx over every chain element by central differences of the
    analytic J^T F, step 1e-6 * max(1, |x|): the load Hessian's form before
    the closed one, kept as its oracle. Column j differentiates along
    element j."""
    from kinetostat.chain import _geometry_and_columns

    F = np.asarray(F, dtype=float)
    H = np.zeros((coords.size, coords.size))
    for j in range(coords.size):
        h = 1e-6 * max(1.0, abs(coords[j]))
        cp = coords.copy()
        cm = coords.copy()
        cp[j] += h
        cm[j] -= h
        gp = _geometry_and_columns(chain, cp)[1].T @ F
        gm = _geometry_and_columns(chain, cm)[1].T @ F
        H[:, j] = (gp - gm) / (2.0 * h)
    return H
