"""Outer alternating optimization and the scheme solvers.

All three schemes run one outer loop.  ``solve_ra`` alternates the convex
weight step and the swarm rotation step until the true worst-direction gain
stops improving.  The baselines are the same loop without the rotation step:
``solve_foa`` holds every rotation at zero (broadside), and ``solve_ia``
also replaces the element pattern with an isotropic one.  Their rotations
never move, so their weight step is the extrapolated SCA step with its
monotone restart (see ``sca``); RA, whose rotations change between weight
steps, keeps the plain step.  A report counts the convex solves and their
Newton steps over every weight step (return values only; the report files
do not hold them).  The single-beam,
no-interference case has a closed form: phase-match the steering vector and
point every element's boresight at the signal, clamped to the rotation range.
"""

from dataclasses import dataclass, field
from typing import ClassVar

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
    max_outer_iterations: int = 50
    delta_threshold: ClassVar[float] = 1e-2    # stop tolerance of the method

    def __post_init__(self):
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
    convex_calls: int         # weight-step subproblems solved
    newton_steps: int         # summed over those subproblems


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


def child_seed(*entropy, spawn_key=()) -> int:
    """A 64-bit seed drawn from the ints >= 0 ``entropy`` and ``spawn_key``."""
    ss = np.random.SeedSequence([int(e) for e in entropy], spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def _alternate(scenario, pattern, geometry, initial: BeamformerState,
               config, scheme, seed=0) -> RunReport:
    """The outer loop of every scheme: the weight step and, for RA only, the
    swarm step, until the true min desired gain rises by less than the outer
    threshold.  The swarm reuses the current rotations as one particle, so
    with the ascent of the weight step the objective never decreases.  Only
    the schemes without a swarm step extrapolate in the weight step.
    """
    config = config or AoConfig()
    initial.validate(rotation_bounds(pattern) if scheme == "RA" else None)
    weights = initial.weights
    rotations = initial.rotations_deg.copy()
    history = []
    nonoptimal = calls = newton_steps = 0
    for m in range(1, config.max_outer_iterations + 1):
        sca_report = optimize_weights(
            BeamformerState(weights, rotations), scenario, pattern, geometry,
            config.sca, extrapolate=scheme != "RA")
        weights = sca_report.weights
        nonoptimal += sca_report.nonoptimal_subproblems
        calls += sca_report.iterations
        newton_steps += sca_report.newton_steps
        if scheme == "RA":
            rotations, _ = optimize_rotations(
                weights, rotations, scenario, pattern, geometry, config.pso,
                child_seed(seed, spawn_key=(m,)))
        history.append(min_desired_gain(weights, pattern, geometry,
                                        rotations, scenario))
        if len(history) > 1 and \
                history[-1] - history[-2] < config.delta_threshold:
            break

    return RunReport(
        final_state=BeamformerState(weights, rotations),
        min_desired_gain=history[-1],
        max_interference_gain=max_interference_gain(weights, pattern, geometry,
                                                    rotations, scenario),
        objective_history=history,
        outer_iterations=len(history),
        scheme=scheme,
        seed=int(seed),
        nonoptimal_subproblems=nonoptimal,
        convex_calls=calls,
        newton_steps=newton_steps)


def solve_ra(scenario: Scenario, pattern: RadiationPattern,
             geometry: ArrayGeometry, initial: BeamformerState,
             config: AoConfig = None, seed: int = 0) -> RunReport:
    """Joint weight/rotation optimization by alternating the two steps.
    ``seed`` (an int >= 0) roots every swarm stream and labels the report."""
    return _alternate(scenario, pattern, geometry, initial, config, "RA", seed)


def solve_foa(scenario: Scenario, pattern: RadiationPattern,
              geometry: ArrayGeometry, initial_weights,
              config: AoConfig = None) -> RunReport:
    """Fixed-orientation baseline: rotations stay at zero."""
    start = BeamformerState(initial_weights, np.zeros(geometry.num_antennas))
    return _alternate(scenario, pattern, geometry, start, config, "FOA")


def solve_ia(scenario: Scenario, geometry: ArrayGeometry, initial_weights,
             config: AoConfig = None) -> RunReport:
    """Isotropic baseline: unit element gain in every direction."""
    start = BeamformerState(initial_weights, np.zeros(geometry.num_antennas))
    return _alternate(scenario, None, geometry, start, config, "IA")
