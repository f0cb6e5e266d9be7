"""Finite element solver and Monte Carlo harness for a nonlinear stochastic
wave equation with functional multiplicative noise."""

from .mesh import Mesh, build_interval_mesh, build_unit_square_tri_mesh, refine_uniform
from .fem import FeSpace, assemble_mass, assemble_stiffness, l2_project
from .drift import FULLY_IMPLICIT, MODIFIED_CN, PolynomialDrift
from .diffusion import Diffusion
from .noise import BrownianPath, coarsen, sample_path
from .stepper import (
    NewtonDivergedError,
    SchemeConfig,
    Trajectory,
    WaveStepper,
    initial_state,
)
from .ensemble import EnsembleStats, ProblemSpec, StabilityStudy, run_ensemble, subset_fraction
from .metrics import (
    AnalyticStudy,
    ErrorTable,
    RateStudy,
    analytic_error_table,
    convergence_table,
    sup_rms,
)
from .experiments import (
    ExperimentConfig,
    PRESETS,
    preset_config,
    run_experiment,
)

__version__ = "0.1.0"
