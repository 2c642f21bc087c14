import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kinetostat import (
    ChainState,
    ModelError,
    OrthoglideSpec,
    SpringLaw,
    build_planar_orthoglide,
    inverse_kinematics_unloaded,
    partition,
    workspace_points,
)

from conftest import random_planar_chain, random_state

values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
stiffnesses = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def spring_torque(law: SpringLaw, vartheta: float) -> float:
    """Oracle: the preload law's generalized torque k * h(vartheta - offset)."""
    d = vartheta - law.preload_offset
    if law.branch == "positive_part":
        d = max(d, 0.0)
    elif law.branch == "negative_part":
        d = min(d, 0.0)
    return law.k * d


def spring_energy(law: SpringLaw, vartheta: float) -> float:
    """Oracle: stored elastic energy, piecewise quadratic; the torque is its derivative."""
    d = vartheta - law.preload_offset
    if law.branch == "positive_part":
        d = max(d, 0.0)
    elif law.branch == "negative_part":
        d = min(d, 0.0)
    return 0.5 * law.k * d * d


def test_torque_one_sided_inactive():
    law = SpringLaw(3.0, math.pi / 12.0, "positive_part")
    assert spring_torque(law, math.pi / 12.0 - 0.1) == 0.0


def test_torque_linear():
    assert spring_torque(SpringLaw(2.0, 0.5, "linear"), 1.5) == pytest.approx(2.0)


@given(stiffnesses, values, values)
def test_positive_plus_negative_part_is_linear(k, offset, x):
    plus = spring_torque(SpringLaw(k, offset, "positive_part"), x)
    minus = spring_torque(SpringLaw(k, offset, "negative_part"), x)
    full = spring_torque(SpringLaw(k, offset, "linear"), x)
    assert math.isclose(plus + minus, full, rel_tol=1e-12, abs_tol=1e-12)


@given(stiffnesses, values)
def test_torque_continuous_at_offset(k, offset):
    for branch in ("linear", "positive_part", "negative_part"):
        law = SpringLaw(k, offset, branch)
        eps = 1e-9
        left = spring_torque(law, offset - eps)
        right = spring_torque(law, offset + eps)
        assert abs(left) <= k * eps + 1e-15
        assert abs(right) <= k * eps + 1e-15


@given(stiffnesses, values, values, st.sampled_from(["linear", "positive_part", "negative_part"]))
def test_torque_is_energy_derivative(k, offset, x, branch):
    law = SpringLaw(k, offset, branch)
    h = 1e-6 * max(1.0, abs(x))
    fd = (spring_energy(law, x + h) - spring_energy(law, x - h)) / (2.0 * h)
    scale = max(1.0, k * (abs(x) + abs(offset)))
    tol = 1e-8 * scale
    if x - h <= offset <= x + h:
        tol += 0.5 * k * h  # stencil straddles the curvature kink of a one-sided law
    assert abs(fd - spring_torque(law, x)) <= tol


def test_spring_law_rejects_negative_stiffness():
    with pytest.raises(ModelError):
        SpringLaw(-1.0)
    with pytest.raises(ModelError):
        SpringLaw(1.0, 0.0, "sideways")


@pytest.mark.parametrize("k, offset", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)])
def test_spring_law_rejects_non_finite_constants(k, offset):
    with pytest.raises(ModelError, match="finite"):
        SpringLaw(k, offset)


# -- partition ----------------------------------------------------------------


def _preloaded_orthoglide(law):
    return build_planar_orthoglide(OrthoglideSpec(spring=law))


def test_partition_all_linear_springs_active():
    model = _preloaded_orthoglide(SpringLaw(0.2, 0.0, "linear"))
    chain = model.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.37], theta=[0.0])
    reg = partition(chain, state)
    assert reg.active_mask.tolist() == [True]
    assert len(reg.theta_tilde) == 2  # virtual spring plus engaged preload
    assert len(reg.q_tilde) == 0


def test_partition_one_sided_disengaged():
    model = _preloaded_orthoglide(SpringLaw(0.2, 0.3, "positive_part"))
    chain = model.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.1], theta=[0.0])
    reg = partition(chain, state)
    assert reg.active_mask.tolist() == [False]
    assert reg.q_tilde.tolist() == [0.1]
    assert reg.theta_tilde.tolist() == [0.0]


def test_partition_zero_stiffness_never_active():
    model = _preloaded_orthoglide(SpringLaw(0.0, 0.0, "linear"))
    chain = model.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.4], theta=[0.0])
    reg = partition(chain, state)
    assert reg.active_mask.tolist() == [False]
    assert np.all(reg.k_tilde > 0.0)


def test_partition_boundary_counts_as_inactive():
    model = _preloaded_orthoglide(SpringLaw(0.5, 0.25, "positive_part"))
    chain = model.chains[0]
    state = ChainState(rho=[1.0], q=[], vartheta=[0.25], theta=[0.0])
    assert partition(chain, state).active_mask.tolist() == [False]


def test_partition_stop_limit_activity_at_bench_points():
    # the pi/12 stop engages only toward the (+p, +p) corner
    spec = OrthoglideSpec(spring=SpringLaw(0.5, math.pi / 12.0, "positive_part"))
    model = build_planar_orthoglide(spec)
    q0, q1, q2 = workspace_points(spec)
    for pose, expected in ((q0, False), (q1, False), (q2, True)):
        for chain, state in zip(model.chains, inverse_kinematics_unloaded(model, pose)):
            assert partition(chain, state).active_mask.tolist() == [expected]


def test_partition_idempotent_and_consistent():
    rng = np.random.default_rng(12)
    for _ in range(50):
        chain = random_planar_chain(rng, n_joints=5)
        state = random_state(rng, chain)
        reg = partition(chain, state)
        again = partition(chain, chain.state_of(reg.coords))
        assert np.array_equal(reg.active_mask, again.active_mask)
        np.testing.assert_array_equal(reg.q_tilde, again.q_tilde)
        np.testing.assert_array_equal(reg.theta_tilde, again.theta_tilde)
        # torque consistency: passive side carries none, spring side is linear
        for value, element in zip(reg.q_tilde, reg.q_elements):
            joint = chain.joint_at(element)
            if joint.kind == "preloaded_passive":
                assert spring_torque(joint.spring, value) == 0.0
        for value, rest, k, element in zip(
            reg.theta_tilde, reg.theta_tilde_0, reg.k_tilde, reg.theta_elements
        ):
            joint = chain.joint_at(element)
            if joint.kind == "preloaded_passive":
                assert spring_torque(joint.spring, value) == pytest.approx(k * (value - rest))
        assert np.all(reg.k_tilde > 0.0)
        # virtual springs rest exactly at zero
        for rest, element in zip(reg.theta_tilde_0, reg.theta_elements):
            if chain.joint_at(element).kind == "virtual_elastic":
                assert rest == 0.0


def test_engaged_rows_is_engaged_on_every_branch():
    # the stacked masks apply SpringLaw.engaged column by column, each row
    # with its own spring constants, edge values included
    from kinetostat.springs import BRANCHES, _engaged_rows

    springs = [SpringLaw(k, offset, branch) for branch in BRANCHES for k in (0.0, -0.0, 0.5) for offset in (0.0, -0.0, 0.3, -0.2)]
    edges = [0.0, -0.0, 0.3, -0.2, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 0.3 + 1e-16, 0.3 - 1e-16]
    rng = np.random.default_rng(0)
    values = np.array([edges + list(rng.uniform(-1.0, 1.0, 5)) for _ in springs]).T
    # row i of column j takes the constants of spring j shifted by i within its branch
    per_row = [[springs[(j // 12) * 12 + (j + i) % 12] for j in range(len(springs))] for i in range(len(values))]
    k, offset = (np.array([[getattr(s, name) for s in row] for row in per_row]) for name in ("k", "preload_offset"))
    mask = _engaged_rows([s.branch for s in springs], k, offset, values)
    assert mask.dtype == bool and mask.shape == values.shape
    expected = [[spring.engaged(v) for spring, v in zip(row_springs, row)] for row_springs, row in zip(per_row, values.tolist())]
    assert mask.tolist() == expected
    assert _engaged_rows([], np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((3, 0))).shape == (3, 0)
