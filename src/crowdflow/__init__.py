"""Measure-transport simulation of nonlocally interacting crowds and swarms.

Probability measures on a sparse hypercube lattice are evolved by an explicit
push-forward scheme under nonlocal interaction velocity fields; an exact
particle characteristics solver provides the benchmark for Wasserstein-1
convergence diagnostics.
"""

__version__ = "0.1.0"

from .grids import (AtomicMeasure, GridMeasure, GridSpec, atomize, cell_indices,
                    moment, project_atomic, total_mass)
from .particles import euler_step, push_forward_atoms, run_particles, to_measure
from .scheme import (NumericalInvariantError, StepReport, cfl_ratio, mesh_schedule,
                     run, sample_at, step)
from .velocity import (Ball, CaseStudyRepulsion, ConstantDesired, FixedAxis,
                       FromDesired, PrototypeAttraction, Rotation2, Sector,
                       VelocityModel, ZeroDesired, cutoff_at, eval_atomic_many,
                       eval_grid_many, kernel_F, lipschitz_constants,
                       rotation_at, velocity_bound)
from .wasserstein import W1Result, w1_1d, w1_exact, w1_grid_atomic

__all__ = [
    "AtomicMeasure", "GridMeasure", "GridSpec", "atomize", "cell_indices",
    "moment", "project_atomic", "total_mass",
    "euler_step", "push_forward_atoms", "run_particles", "to_measure",
    "NumericalInvariantError", "StepReport", "cfl_ratio", "mesh_schedule",
    "run", "sample_at", "step",
    "Ball", "CaseStudyRepulsion", "ConstantDesired", "FixedAxis",
    "FromDesired", "PrototypeAttraction", "Rotation2", "Sector",
    "VelocityModel", "ZeroDesired", "cutoff_at",
    "eval_atomic_many", "eval_grid_many", "kernel_F",
    "lipschitz_constants", "rotation_at", "velocity_bound",
    "W1Result", "w1_1d", "w1_exact", "w1_grid_atomic",
]
