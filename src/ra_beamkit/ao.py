"""Outer alternating optimization and the scheme solvers.

``solve_ra`` alternates the convex weight step and the swarm rotation step
until the true worst-direction gain stops improving.  ``solve_foa`` pins all
rotations to zero, ``solve_ia`` additionally replaces the element pattern with
an isotropic one; both reduce to the weight subproblem alone.  The single-beam,
no-interference case has a closed form: phase-match the steering vector and
point every element's boresight at the signal, clamped to the rotation range.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .array_model import (ArrayGeometry, BeamformerState, RadiationPattern,
                          Scenario, rotation_bounds, steering_vector)
from .pso import PsoConfig, optimize_rotations
from .sca import (ScaConfig, max_interference_gain, min_desired_gain,
                  optimize_weights)


@dataclass
class AoConfig:
    sca: ScaConfig = field(default_factory=ScaConfig)
    pso: PsoConfig = field(default_factory=PsoConfig)
    delta_threshold: float = 1e-2
    max_outer_iterations: int = 50

    def __post_init__(self):
        if not self.delta_threshold > 0:
            raise ValueError("delta_threshold must be > 0")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")


@dataclass
class RunReport:
    final_state: BeamformerState
    min_desired_gain: float
    max_interference_gain: float
    objective_history: list
    outer_iterations: int
    scheme: str               # "RA" | "FOA" | "IA"
    seed: int
    nonoptimal_subproblems: int   # weight-step subproblems not "optimal"


def random_initial_weights(num_antennas: int, seed) -> np.ndarray:
    """Unit-norm weights with uniform random phases and equal magnitudes."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, num_antennas)
    return np.exp(1j * phases) / np.sqrt(num_antennas)


def solve_single_beam(theta_desired_deg: float, pattern: RadiationPattern,
                      geometry: ArrayGeometry) -> BeamformerState:
    """Closed-form optimum for one desired direction and no interference.

    Weights are the normalized steering vector; every rotation is the signal
    angle minus 90 degrees, clamped to the allowed range.  When the clamp is
    inactive the resulting gain is the full array gain.
    """
    if not (0.0 <= theta_desired_deg <= 180.0):
        raise ValueError("desired angle must lie in [0, 180] degrees")
    a = steering_vector(geometry, theta_desired_deg)
    weights = a / np.linalg.norm(a)
    bounds = rotation_bounds(pattern)
    rotations = np.full(geometry.num_antennas,
                        float(bounds.clip(theta_desired_deg - 90.0)))
    return BeamformerState(weights=weights, rotations_deg=rotations)


def _pso_child_seed(base_seed: int, outer_iteration: int) -> int:
    # distinct, reproducible stream per outer iteration
    ss = np.random.SeedSequence(entropy=int(base_seed) & (2 ** 64 - 1),
                                spawn_key=(outer_iteration,))
    return int(ss.generate_state(1, np.uint64)[0])


def solve_ra(scenario: Scenario, pattern: RadiationPattern,
             geometry: ArrayGeometry, initial: BeamformerState,
             config: AoConfig = None, seed: int = None) -> RunReport:
    """Joint weight/rotation optimization by alternating the two subproblems.

    The tracked objective is the true min desired gain at the current state;
    the loop stops once its increase falls below the outer threshold.  The
    swarm step reuses the current rotations as one particle, so together with
    the ascent property of the weight step the objective never decreases.
    """
    config = config or AoConfig()
    bounds = rotation_bounds(pattern)
    initial.validate(bounds)
    if not np.any(initial.weights):
        raise ValueError("initial weights must be nonzero")

    weights = initial.weights
    rotations = initial.rotations_deg.copy()
    history = []
    obj_prev = -np.inf
    outer = 0
    nonoptimal = 0
    for m in range(1, config.max_outer_iterations + 1):
        outer = m
        sca_report = optimize_weights(
            BeamformerState(weights, rotations), scenario, pattern, geometry,
            config.sca)
        weights = sca_report.weights
        nonoptimal += sca_report.nonoptimal_subproblems
        pso_cfg = replace(config.pso,
                          rng_seed=_pso_child_seed(config.pso.rng_seed, m))
        rotations, _ = optimize_rotations(weights, rotations, scenario,
                                          pattern, geometry, pso_cfg)
        objective = min_desired_gain(weights, pattern, geometry, rotations,
                                     scenario)
        history.append(objective)
        if objective - obj_prev < config.delta_threshold:
            break
        obj_prev = objective

    state = BeamformerState(weights, rotations)
    return RunReport(
        final_state=state,
        min_desired_gain=history[-1],
        max_interference_gain=max_interference_gain(weights, pattern, geometry,
                                                    rotations, scenario),
        objective_history=history,
        outer_iterations=outer,
        scheme="RA",
        seed=int(seed if seed is not None else config.pso.rng_seed),
        nonoptimal_subproblems=nonoptimal)


def _solve_weights_only(scenario, pattern, geometry, initial_weights, config,
                        scheme, seed):
    """Shared FOA/IA path: rotations pinned to zero, weight step only."""
    config = config or AoConfig()
    weights = np.asarray(initial_weights, dtype=complex)
    if not np.any(weights):
        raise ValueError("initial weights must be nonzero")
    if np.linalg.norm(weights) > 1.0 + 1e-8:
        raise ValueError("initial weight norm exceeds 1")
    n = geometry.num_antennas
    rotations = np.zeros(n)

    history = []
    obj_prev = -np.inf
    outer = 0
    nonoptimal = 0
    for _ in range(config.max_outer_iterations):
        outer += 1
        report = optimize_weights(BeamformerState(weights, rotations),
                                  scenario, pattern, geometry, config.sca)
        weights = report.weights
        nonoptimal += report.nonoptimal_subproblems
        objective = min_desired_gain(weights, pattern, geometry, rotations,
                                     scenario)
        history.append(objective)
        if objective - obj_prev < config.delta_threshold:
            break
        obj_prev = objective

    return RunReport(
        final_state=BeamformerState(weights, rotations),
        min_desired_gain=history[-1],
        max_interference_gain=max_interference_gain(weights, pattern, geometry,
                                                    rotations, scenario),
        objective_history=history,
        outer_iterations=outer,
        scheme=scheme,
        seed=int(seed if seed is not None else config.pso.rng_seed),
        nonoptimal_subproblems=nonoptimal)


def solve_foa(scenario: Scenario, pattern: RadiationPattern,
              geometry: ArrayGeometry, initial_weights,
              config: AoConfig = None, seed: int = None) -> RunReport:
    """Fixed-orientation baseline: rotations stay at zero."""
    return _solve_weights_only(scenario, pattern, geometry, initial_weights,
                               config, "FOA", seed)


def solve_ia(scenario: Scenario, geometry: ArrayGeometry, initial_weights,
             config: AoConfig = None, seed: int = None) -> RunReport:
    """Isotropic baseline: unit element gain in every direction."""
    return _solve_weights_only(scenario, None, geometry, initial_weights,
                               config, "IA", seed)
