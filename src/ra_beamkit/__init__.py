"""Max-min beamforming for linear rotatable-antenna arrays."""

from .ao import (AoConfig, RunReport, random_initial_weights, solve_foa,
                 solve_ia, solve_ra, solve_single_beam)
from .array_model import (ArrayGeometry, BeamformerState, RadiationPattern,
                          RotationBounds, Scenario, array_gain,
                          composite_response, element_amplitude,
                          element_gain_dbi, full_array_gain, grid_gain,
                          rotation_bounds, steering_vector)
from .convex_core import ConvexSolution, EpigraphProblem, solve_epigraph
from .pso import PsoConfig, Swarm, fitness, optimize_rotations, update_inertia
from .sca import ScaConfig, ScaReport, optimize_weights, surrogate_gain
from .scenario import ScenarioError, ScenarioSpec, load_scenario

__all__ = [
    "AoConfig", "ArrayGeometry", "BeamformerState", "ConvexSolution",
    "EpigraphProblem", "PsoConfig", "RadiationPattern", "RotationBounds",
    "RunReport", "ScaConfig", "ScaReport", "Scenario", "ScenarioError",
    "ScenarioSpec", "Swarm", "array_gain", "composite_response",
    "element_amplitude", "element_gain_dbi", "fitness", "full_array_gain",
    "grid_gain", "load_scenario", "optimize_rotations", "optimize_weights",
    "random_initial_weights", "rotation_bounds", "solve_epigraph",
    "solve_foa", "solve_ia", "solve_ra", "solve_single_beam",
    "steering_vector", "surrogate_gain", "update_inertia",
]
