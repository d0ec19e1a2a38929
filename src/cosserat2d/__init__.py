"""Planar geometrically nonlinear micropolar (Cosserat) elasticity.

Energy functionals with independent displacement and microrotation fields,
their exact discrete variations, explicit time integration, plane-wave
dispersion of the linearized chiral model, and a verification suite that
checks every identity the implementation relies on.
"""

from .algebra import EPS2, rot2
from .config import ScenarioConfig, load_config, save_config
from .dynamics import (
    HomogeneousRoots,
    RhsFields,
    homogeneous_residual,
    homogeneous_roots,
    rhs_chiral,
    rhs_linear_chiral,
    rhs_nonlinear,
    step_leapfrog,
    verify_variational_consistency,
)
from .energy import (
    DEFAULT_EPS_REG,
    EnergyBreakdown,
    analytic_variations,
    total_energy,
)
from .errors import (
    ConfigError,
    Cosserat2DError,
    DegenerateDeformation,
    ImaginarySpeed,
    InfeasibleDensity,
    IoError,
    NonFiniteState,
    NoRealBranch,
    ZeroDenominator,
)
from .fields import FieldState, Grid, deformation_gradients, save_snapshot
from .materials import MaterialParams, ModelSelector
from .reduction3d import full_reduction_report
from .report import ReportCheck, VerificationReport
from .rng import SplitMix64, random_smooth_state
from .waves import (
    BranchTable,
    WaveParams,
    amplitude_ratio,
    dispersion_sweep,
    liu_material,
    phase_velocity,
    transverse_free_solution,
)

__version__ = "0.1.0"

__all__ = [
    "EPS2", "rot2",
    "ScenarioConfig", "load_config", "save_config",
    "HomogeneousRoots", "RhsFields", "homogeneous_residual",
    "homogeneous_roots", "rhs_chiral", "rhs_linear_chiral", "rhs_nonlinear",
    "step_leapfrog", "verify_variational_consistency",
    "DEFAULT_EPS_REG", "EnergyBreakdown", "analytic_variations",
    "total_energy",
    "ConfigError", "Cosserat2DError", "DegenerateDeformation",
    "ImaginarySpeed", "InfeasibleDensity", "IoError", "NonFiniteState",
    "NoRealBranch", "ZeroDenominator",
    "FieldState", "Grid", "deformation_gradients", "save_snapshot",
    "MaterialParams", "ModelSelector",
    "full_reduction_report",
    "ReportCheck", "VerificationReport",
    "SplitMix64", "random_smooth_state",
    "BranchTable", "WaveParams", "amplitude_ratio", "dispersion_sweep",
    "liu_material", "phase_velocity", "transverse_free_solution",
    "__version__",
]
