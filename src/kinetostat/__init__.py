"""Loaded equilibria, Cartesian stiffness and kinetostatic control for
parallel manipulators whose passive joints carry internal spring preloading."""

from .chain import (
    ChainModel,
    ChainState,
    JointModel,
    ManipulatorModel,
    PoseVector,
    Transform,
    inverse_kinematics_unloaded,
    jacobians,
    loaded_hessians,
)
from .control import (
    KinetostaticSolution,
    sensitivity_matrix,
    solve_inverse_kinetostatic,
)
from .equilibrium import (
    EquilibriumResult,
    ForceDeflectionCurve,
    SolverOptions,
    force_deflection,
    solve_chain_equilibrium,
    total_wrench,
)
from .errors import (
    ControlSingularityError,
    KinetostatError,
    ModelError,
    NonConvergenceError,
    OutOfWorkspaceError,
    SingularityError,
    SpringSofteningError,
)
from .modelfile import parse_model, serialize_model
from .orthoglide import (
    ComplianceMap,
    OrthoglideSpec,
    Table1Report,
    build_planar_orthoglide,
    compliance_grid,
    critical_force,
    reproduce_table1,
    workspace_points,
)
from .springs import RegroupedState, SpringLaw, partition
from .stiffness import (
    StiffnessResult,
    directional_stiffness,
    manipulator_stiffness,
    stiffness_vs_fd_check,
)

__version__ = "0.1.0"

__all__ = [
    "ChainModel",
    "ChainState",
    "ComplianceMap",
    "ControlSingularityError",
    "EquilibriumResult",
    "ForceDeflectionCurve",
    "JointModel",
    "KinetostatError",
    "KinetostaticSolution",
    "ManipulatorModel",
    "ModelError",
    "NonConvergenceError",
    "OrthoglideSpec",
    "OutOfWorkspaceError",
    "PoseVector",
    "RegroupedState",
    "SingularityError",
    "SolverOptions",
    "SpringLaw",
    "SpringSofteningError",
    "StiffnessResult",
    "Table1Report",
    "Transform",
    "build_planar_orthoglide",
    "compliance_grid",
    "critical_force",
    "directional_stiffness",
    "force_deflection",
    "inverse_kinematics_unloaded",
    "jacobians",
    "loaded_hessians",
    "manipulator_stiffness",
    "parse_model",
    "partition",
    "reproduce_table1",
    "sensitivity_matrix",
    "serialize_model",
    "solve_chain_equilibrium",
    "solve_inverse_kinetostatic",
    "stiffness_vs_fd_check",
    "total_wrench",
    "workspace_points",
]
