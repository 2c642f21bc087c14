"""Planar two-slider benchmark manipulator and its regression report.

The mechanism has two orthogonal prismatic drives (along x and y), each in
series with an elastic translation of stiffness K_theta that models the
drive compliance, a preloaded revolute at the slider, and a rigid bar of
length L pinned to the shared point platform. Task dimension is 2. Each
preloaded angle is zero when its bar points back along its drive axis,
i.e. at the workspace centre, and grows toward the (+p, +p) corner.

The benchmark reproduces the published stiffness table for this mechanism
(actuator compensation, directional stiffness, critical forces), the
force-deflection sweeps, and the workspace compliance maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import ChainModel, JointModel, ManipulatorModel, PoseVector, Transform
from .chain import _each_chain, _fused, _ik_stack, _reaches, _stack_state
from .control import _compensate, _compensate_stack
from .equilibrium import ForceDeflectionCurve, SolverOptions, force_deflection
from .errors import KinetostatError, ModelError
from .springs import SpringLaw
from .stiffness import _aggregate_stiffness, _chain_responses, directional_stiffness

# Published reference values for this mechanism, in units of K_theta and L.
# Keyed by preload factor kv, where the joint spring stiffness is
# kv * K_theta * L^2. The reference workspace factor is ~0.45 (the published
# actuator values are consistent with ~0.454, hence percent-level deviations
# are expected at the default p_factor, and the report prints them).
KV_FACTORS = (0.0, 0.01, 0.05, 0.1)
REFERENCE_TABLE = {
    "Q0": {
        "rho": {0.0: 1.0, 0.01: 1.0, 0.05: 1.0, 0.1: 1.0},
        "stiffness": {0.0: 1.0, 0.01: 1.01, 0.05: 1.05, 0.1: 1.10},
    },
    "Q1": {
        "rho": {0.0: 0.437, 0.01: 0.433, 0.05: 0.419, 0.1: 0.402},
        "stiffness": {0.0: 2.276, 0.01: 2.286, 0.05: 2.329, 0.1: 2.382},
    },
    "Q2": {
        "rho": {0.0: 1.345, 0.01: 1.356, 0.05: 1.399, 0.1: 1.453},
        "stiffness": {0.0: 0.24, 0.01: 0.27, 0.05: 0.39, 0.1: 0.55},
        "critical_force": {0.0: 0.020, 0.01: 0.027, 0.05: None, 0.1: None},
    },
}

# 0.3 L reaches past the weakest preload's stationary point (~0.21 L); table
# 1's critical-force sweep samples it every 0.01 L
SWEEP_MAX_FACTOR = 0.3
SWEEP_STEP_FACTOR = 0.01


@dataclass(frozen=True)
class OrthoglideSpec:
    """Benchmark parameters: leg length, drive stiffness, joint preload."""

    L: float = 1.0
    K_theta: float = 1.0
    spring: SpringLaw = field(default_factory=lambda: SpringLaw(0.0))
    p_factor: float = 0.45

    def __post_init__(self):
        if self.L <= 0 or self.K_theta <= 0:
            raise ModelError("leg length and drive stiffness must be positive")
        if not 0.0 < self.p_factor < 1.0 / math.sqrt(2.0):
            raise ModelError("p_factor must lie in (0, 1/sqrt(2))")

    @property
    def p(self) -> float:
        return self.p_factor * self.L

    def options(self) -> SolverOptions:
        return SolverOptions(pose_tol=1e-9 * self.L)


def build_planar_orthoglide(spec: OrthoglideSpec) -> ManipulatorModel:
    """Two-chain planar model; the platform pin of each bar is kinematically
    immaterial for a point platform and carries no coordinate."""
    x_axis = (1.0, 0.0, 0.0)
    y_axis = (0.0, 1.0, 0.0)

    def leg(name, drive_axis, revolute_axis, bar):
        return ChainModel(
            task_dim=2,
            base_pose=Transform.identity(),
            elements=[
                (Transform.identity(), JointModel(kind="actuated", motion="translational", axis=drive_axis)),
                (
                    Transform.identity(),
                    JointModel(
                        kind="virtual_elastic",
                        motion="translational",
                        axis=drive_axis,
                        stiffness=spec.K_theta,
                    ),
                ),
                (
                    Transform.identity(),
                    JointModel(
                        kind="preloaded_passive",
                        motion="rotational",
                        axis=revolute_axis,
                        spring=spec.spring,
                    ),
                ),
            ],
            tool_transform=Transform(translation=bar),
            ik_seed=np.array([spec.L, 0.0]),
            name=name,
        )

    chains = [
        leg("x-leg", x_axis, (0.0, 0.0, -1.0), (-spec.L, 0.0, 0.0)),
        leg("y-leg", y_axis, (0.0, 0.0, 1.0), (0.0, -spec.L, 0.0)),
    ]
    p = spec.p
    return ManipulatorModel(
        task_dim=2,
        chains=chains,
        units={"length": "L", "force": "K_theta*L"},
        workspace=((-p, -p), (p, p)),
        name="planar-orthoglide",
    )


def workspace_points(spec: OrthoglideSpec):
    """(Q0, Q1, Q2): centre and the two workspace square corners."""
    p = spec.p
    return (
        PoseVector.from_array([0.0, 0.0], 2),
        PoseVector.from_array([-p, -p], 2),
        PoseVector.from_array([p, p], 2),
    )


def critical_force(curve: ForceDeflectionCurve):
    """First interior maximum of the along-direction force, or None.

    Detected through the sign change of the discrete derivative and refined
    to the vertex of the parabola through the three equally spaced samples
    around the peak, which lies within half a step of the middle one.
    """
    f = curve.force_along
    d = curve.deltas
    for i in range(1, len(f) - 1):
        f0, f1, f2 = f[i - 1 : i + 2]
        if f1 >= f0 and f1 > f2:
            s = 16.0 if max(abs(f0), abs(f1), abs(f2)) > 2.0**1020 else 1.0  # exact: 8 max|f| stays finite
            f0, f1, f2 = f0 / s, f1 / s, f2 / s
            r = (f0 - f2) / (2.0 * ((f0 - f1) + (f2 - f1)))  # the vertex's offset in steps, |r| <= 1/2
            return float(d[i] + r * (d[i + 1] - d[i])), s * float(f1 - r * (f0 - f2) / 4.0)
    return None


def _critical_point(model, start, u, max_delta, opts, starts):
    """``critical_force`` of the sweep from ``start`` along u, or None.

    The sweep is the ``force_deflection`` of ``sweep --compensate``: its
    actuators and first sample come from ``starts``, the joint vectors of
    the chain equilibria at ``start`` (a compensation's), and it samples
    [0, max_delta] in SWEEP_MAX_FACTOR / SWEEP_STEP_FACTOR steps.
    A curve cut short before any peak may still have one further on: the
    error of the sample that ended it, which the curve keeps, is re-raised
    with the delta it was reached at, so a lost branch is never mistaken
    for a monotone curve.
    """
    step = max_delta / round(SWEEP_MAX_FACTOR / SWEEP_STEP_FACTOR)
    curve = force_deflection(model, start, u, max_delta, step, opts, starts=starts)
    found = critical_force(curve)
    if found is None and curve.truncated:
        err = curve.error
        err.args = (f"{err} (critical-point search lost the branch at delta = {len(curve.deltas) * step:.6g})",)
        raise err
    return found


@dataclass
class ComplianceMap:
    """Workspace lattice of aggregated stiffness and compliance extremes.

    ``reasons`` names why each failed cell (ix, iy) failed: its error's
    ``describe()`` line, or the smallest eigenvalue of an indefinite stiffness.
    """

    xs: np.ndarray
    ys: np.ndarray
    c_max: np.ndarray
    c_min: np.ndarray
    ok: np.ndarray
    reasons: dict[tuple[int, int], str] = field(default_factory=dict)


# rows per stack, across the chains of a structure group: caps the IK and compensation temporaries on
# large grids (a heap peak of ~2 kB a row on the shipped model, whose two legs run as one stack)
_STACK_ROWS = 4096


def _compensate_rows(manipulator, targets, stacks, eps_f, opts):
    """The compensation of targets (N, d) at zero wrench and K_sigma at its equilibria, from ``stacks``, per
    chain the ``_ik_stack`` of the targets: ``_compensate_stack`` of the rows that every chain's rigid IK
    reached and the chain stiffnesses of the rows it finishes as stacks (``_chain_responses``), then, in row
    order, ``control._compensate`` of every other row from its rigid IK state. Returns per chain the
    equilibria's joint vectors, per row K_sigma, its eigenvalues, the outer iterations and |F|, and by row
    the KinetostatError of a row that failed, NaN in its arrays."""
    chains, n, d = manipulator.chains, len(targets), manipulator.task_dim
    # the rows whose every chain met its target; the others raise their IK's error below
    rows = np.flatnonzero(np.all([_reaches(dist) & ~np.isin(np.arange(n), list(e)) for _, dist, e in stacks], 0))
    coords, K = [np.full(c.shape, np.nan) for c, _, _ in stacks], np.full((n, d, d), np.nan)
    eigenvalues, outer, residual, errors = np.full((n, d), np.nan), np.zeros(n, dtype=int), np.full(n, np.nan), {}
    with np.errstate(all="ignore"):  # a row gone non-finite leaves for the scalar solve, which warns as it does
        x, F, done, outer[rows], residual[rows] = _compensate_stack(
            manipulator, targets[rows], [c[rows] for c, _, _ in stacks], eps_f, opts
        )
        K[rows[done]] = np.sum(_fused(chains, _chain_responses, [[a[done] for a in x], [f[done] for f in F]], False), 0)
    for full, a in zip(coords, x):
        full[rows] = a
    clear = np.isfinite(K).all(axis=(1, 2))
    eigenvalues[clear] = np.linalg.eigvalsh(K[clear])
    for row in np.flatnonzero(~clear).tolist():
        try:
            seeds = _each_chain(manipulator, _stack_state, stacks, [row] * len(chains))
            sol = _compensate(manipulator, targets[row], seeds, np.zeros(d), eps_f, opts)
            res = _aggregate_stiffness(manipulator, sol.equilibria)
        except KinetostatError as err:
            errors[row] = err
            continue
        K[row], eigenvalues[row] = res.K_sigma, res.eigenvalues
        outer[row], residual[row] = sol.outer_iterations, sol.residual_wrench
        for full, eq in zip(coords, sol.equilibria):
            full[row] = eq.regrouped.coords
    return coords, K, eigenvalues, outer, residual, errors


def compliance_grid(
    manipulator: ManipulatorModel,
    grid_n: int,
    opts: SolverOptions | None = None,
    eps_f: float = 1e-8,
) -> ComplianceMap:
    """Compliance map of any planar model over its declared workspace box.

    Each cell is evaluated in the compensated state: actuators are solved
    kinetostatically so the cell pose is an unloaded equilibrium, then the
    aggregate stiffness is computed at the equilibria that solve ends on.
    The rigid IK, compensation and stiffness run as stacks over the cells, one
    per structure group of chains (``chain._fused``), bit for bit the per-cell
    solves, and ``control._compensate`` finishes a cell the stacks leave.
    Cells whose solve fails or whose stiffness is not positive definite are
    flagged failed, never dropped, and the map names the reason.
    """
    if grid_n < 2:
        raise ModelError("compliance grid needs at least 2 points per side")
    # checked here too: inside a cell the error would only mark the cell failed
    if not 0.0 < eps_f < math.inf:
        raise ModelError("wrench tolerance eps_f must be positive and finite")
    if manipulator.workspace is None:
        raise ModelError("model declares no workspace box")
    try:  # the n x n maps before the axes: a grid too large to hold allocates nothing
        c_max = np.full((grid_n, grid_n), np.nan)
        c_min = np.full((grid_n, grid_n), np.nan)
        ok = np.zeros((grid_n, grid_n), dtype=bool)
    except (MemoryError, ValueError) as err:  # ValueError: past numpy's largest array
        raise ModelError(f"compliance grid of {grid_n} x {grid_n} cells does not fit in memory") from err
    lo, hi = manipulator.workspace
    xs = np.linspace(lo[0], hi[0], grid_n)
    ys = np.linspace(lo[1], hi[1], grid_n)
    chains, reasons = manipulator.chains, {}
    # a cell is one row of each chain, so a stack of a structure group holds at most _STACK_ROWS rows
    per_stack = max(1, _STACK_ROWS // len(chains))
    for first in range(0, grid_n * grid_n, per_stack):
        ix, iy = np.divmod(np.arange(first, min(first + per_stack, grid_n * grid_n)), grid_n)
        targets = np.zeros((ix.size, manipulator.task_dim))
        targets[:, 0], targets[:, 1] = xs[ix], ys[iy]
        stacks = _fused(chains, _ik_stack, [[targets] * len(chains)])
        eigenvalues, _, _, errors = _compensate_rows(manipulator, targets, stacks, eps_f, opts)[2:]
        # in cell order, each failed cell names its error; a zero or negative eigenvalue has no meaningful compliance
        for row in np.flatnonzero(~(eigenvalues.min(axis=1) > 0.0)).tolist():  # NaN included
            smallest = f"indefinite stiffness: smallest eigenvalue {eigenvalues[row].min():.3e}"
            reasons[divmod(first + row, grid_n)] = errors[row].describe() if row in errors else smallest
        # the compliances of every positive definite cell, in one pass
        positive = eigenvalues.min(axis=1) > 0.0
        c = 1.0 / eigenvalues[positive]
        cells = ix[positive], iy[positive]
        c_max[cells], c_min[cells], ok[cells] = c.max(axis=1), c.min(axis=1), True
    return ComplianceMap(xs=xs, ys=ys, c_max=c_max, c_min=c_min, ok=ok, reasons=reasons)


@dataclass
class Table1Cell:
    point: str
    kv: float
    rho: float
    rho_per_chain: tuple[float, ...]
    rho_ref: float | None
    stiffness: float
    stiffness_ref: float | None
    outer_iterations: int
    residual_wrench: float

    @property
    def rho_deviation(self) -> float | None:
        if self.rho_ref is None:
            return None
        return self.rho / self.rho_ref - 1.0

    @property
    def stiffness_deviation(self) -> float | None:
        if self.stiffness_ref is None:
            return None
        return self.stiffness / self.stiffness_ref - 1.0


@dataclass
class Table1Report:
    """Benchmark regression: compensated actuators, directional stiffness,
    and critical forces per preload factor, with reference deviations."""

    p_factor: float
    kv_factors: tuple[float, ...]
    cells: dict[tuple[str, float], Table1Cell]
    critical: dict[float, tuple[float, float] | None]
    critical_ref: dict[float, float | None]

    def to_json_dict(self) -> dict:
        points = {}
        for (point, kv), cell in sorted(self.cells.items()):
            entry = points.setdefault(point, {})
            entry[repr(kv)] = {
                "rho": cell.rho,
                "rho_per_chain": list(cell.rho_per_chain),
                "rho_ref": cell.rho_ref,
                "rho_deviation": cell.rho_deviation,
                "stiffness": cell.stiffness,
                "stiffness_ref": cell.stiffness_ref,
                "stiffness_deviation": cell.stiffness_deviation,
                "outer_iterations": cell.outer_iterations,
                "residual_wrench": cell.residual_wrench,
            }
        critical = {
            repr(kv): None if c is None else {"delta": c[0], "force": c[1]}
            for kv, c in sorted(self.critical.items())
        }
        critical_ref = {repr(kv): v for kv, v in sorted(self.critical_ref.items())}
        return {
            "p_factor": self.p_factor,
            "kv_factors": list(self.kv_factors),
            "points": points,
            "critical_force": critical,
            "critical_force_ref": critical_ref,
        }

    def to_text(self) -> str:
        lines = []
        header = f"planar orthoglide benchmark (p_factor = {self.p_factor:g}, units of K_theta and L)"
        lines.append(header)
        lines.append("=" * len(header))
        lines.append("             " + "  ".join(f"{'kv=' + format(kv, 'g'):<20s}" for kv in self.kv_factors))
        for point in ("Q0", "Q1", "Q2"):
            lines.append(f"-- point {point}")
            for label, attr, ref_attr in (
                ("rho       ", "rho", "rho_ref"),
                ("stiffness ", "stiffness", "stiffness_ref"),
            ):
                vals = []
                for kv in self.kv_factors:
                    cell = self.cells[(point, kv)]
                    v = getattr(cell, attr)
                    r = getattr(cell, ref_attr)
                    dev = "" if r is None else f" ({100.0 * (v / r - 1.0):+.2f}%)"
                    vals.append(f"{v:.4f}{dev}")
                lines.append(f"  {label} " + "  ".join(f"{v:<20s}" for v in vals))
        vals = []
        for kv in self.kv_factors:
            c = self.critical.get(kv)
            r = self.critical_ref.get(kv)
            if c is None:
                vals.append("---" + ("" if r is None else " (ref ---)"))
            else:
                dev = "" if r is None else f" ({100.0 * (c[1] / r - 1.0):+.2f}%)"
                vals.append(f"{c[1]:.4f}{dev}")
        lines.append("-- critical force along Q0->Q2 at Q2")
        lines.append("  F_cr       " + "  ".join(f"{v:<20s}" for v in vals))
        return "\n".join(lines) + "\n"


def reproduce_table1(spec_base: OrthoglideSpec, opts: SolverOptions | None = None) -> Table1Report:
    """Run the full benchmark grid: points Q0/Q1/Q2 x preload factors.

    One rigid IK stack of the three points serves every preload factor, as
    the rigid IK reads no spring law. Per factor, ``_compensate_rows``
    compensates the three points as stacks, bit for bit the single-pose
    solves; each cell's directional stiffness is taken along the matching
    workspace diagonal, and the critical force outward from Q2 along it, the
    ``critical_force`` of the sweep started from Q2's compensated equilibria.
    """
    opts = opts or spec_base.options()
    eps_f = 1e-8 * spec_base.K_theta * spec_base.L
    if not eps_f < math.inf:  # K_theta * L past the float range
        raise ModelError("wrench tolerance eps_f must be positive and finite")
    targets = np.array([pose.as_array() for pose in workspace_points(spec_base)])
    diag = 1.0 / math.sqrt(2.0)
    directions = np.array([[diag, diag], [-diag, -diag], [diag, diag]])
    chains = build_planar_orthoglide(spec_base).chains
    stacks = _fused(chains, _ik_stack, [[targets] * len(chains)])

    cells: dict[tuple[str, float], Table1Cell] = {}
    critical: dict[float, tuple[float, float] | None] = {}
    for kv in KV_FACTORS:
        spring = SpringLaw(kv * spec_base.K_theta * spec_base.L**2, 0.0, "linear")
        model = build_planar_orthoglide(replace(spec_base, spring=spring))
        coords, K, _, outer, residual, errors = _compensate_rows(model, targets, stacks, eps_f, opts)
        if errors:  # the first in (kv, point) order
            raise errors[min(errors)]
        for row, point in enumerate(("Q0", "Q1", "Q2")):
            rho = tuple(float(x[row, chain.actuated_elements[0]]) for chain, x in zip(chains, coords))
            refs = REFERENCE_TABLE[point]
            cells[(point, kv)] = Table1Cell(
                point=point,
                kv=kv,
                rho=float(np.mean(rho)),
                rho_per_chain=rho,
                rho_ref=refs["rho"].get(kv),
                stiffness=directional_stiffness(K[row], directions[row]),
                stiffness_ref=refs["stiffness"].get(kv),
                outer_iterations=int(outer[row]),
                residual_wrench=float(residual[row]),
            )
        # Q2's compensated equilibria start its sweep
        starts = [x[2] for x in coords]
        critical[kv] = _critical_point(model, targets[2], directions[2], SWEEP_MAX_FACTOR * spec_base.L, opts, starts)
    critical_ref = {kv: REFERENCE_TABLE["Q2"]["critical_force"][kv] for kv in KV_FACTORS}
    return Table1Report(
        p_factor=spec_base.p_factor,
        kv_factors=KV_FACTORS,
        cells=cells,
        critical=critical,
        critical_ref=critical_ref,
    )
