"""bousscontrol: simulation and distributed null-control synthesis for the
2-D Boussinesq system with nonlocal (gradient-energy) viscosity and viscous
heating.

Core pieces: staggered-grid operators with spectral constant-coefficient
solves (`operators`), observability weight family (`weights`, `geometry`),
IMEX forward/linearized integrators (`forward`), exact discrete adjoints
(`adjoint`), penalized-HUM control synthesis with an outer quasi-linearization
loop (`control`), weighted control norms and decay diagnostics
(`diagnostics`), the one artifact writer (`fieldio`), and an experiment
runner with a CLI (`runner`, `cli`).
"""

from .grids import GridSpec, TimeGrid
from .geometry import ControlPatch, build_eta0
from .operators import ViscosityLaw
from .weights import WeightParams, WeightTables, check_weight_chain, \
    check_weight_gap, eval_weights, find_min_m
from .forward import EnergyTrace, SystemSpec, run_nonlinear
from .adjoint import AdjointTrajectory, duality_defect, run_adjoint
from .control import (ControlTrajectory, OuterLoopSpec, PenaltySpec,
                      SynthesisReport, gradient, large_time_control, objective,
                      solve_linear_control, solve_nonlinear_control)
from .diagnostics import DecayFit, decay_fit, t_star, weighted_norms
from .mms import run_mms
from .config import ExperimentConfig, parse_config
from .runner import run_experiment

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "TimeGrid", "ControlPatch", "build_eta0",
    "ViscosityLaw", "WeightParams", "WeightTables", "check_weight_chain",
    "check_weight_gap", "eval_weights", "find_min_m",
    "EnergyTrace", "SystemSpec", "run_nonlinear", "AdjointTrajectory",
    "duality_defect", "run_adjoint", "ControlTrajectory", "OuterLoopSpec",
    "PenaltySpec", "SynthesisReport", "gradient", "large_time_control",
    "objective", "solve_linear_control", "solve_nonlinear_control", "DecayFit",
    "decay_fit", "t_star", "weighted_norms", "run_mms",
    "ExperimentConfig", "parse_config", "run_experiment",
]
