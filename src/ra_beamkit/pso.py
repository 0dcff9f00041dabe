"""Particle swarm search over the rotation-angle box.

With the weights held fixed, the rotation subproblem is highly non-convex, so
it is attacked with a synchronous particle swarm: every particle's velocity is
updated from the bests of the previous iteration, positions are clamped to the
rotation box, and interference-cap violations are discouraged through a large
additive penalty on the fitness.

Randomness comes from a counter-based (Philox) generator seeded by the
caller, with a fixed consumption order so runs are bit-reproducible:
initialization draws one uniform (S, N) position block, then every iteration
draws one (S, 2) block (column 0 feeds the individual term, column 1 the
swarm term; one scalar per term per particle).
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .array_model import array_gain, rotation_bounds

# constants of the method; the inertia decays linearly over the iterations
_INERTIA_INITIAL = 0.9
_INERTIA_FINAL = 0.2
_LEARN_LOCAL = 1.4
_LEARN_GLOBAL = 1.4
_PENALTY = 1e6               # weight on the summed cap violations


@dataclass
class PsoConfig:
    num_particles: int = 200
    max_iterations: int = 100
    delta_threshold: ClassVar[float] = 1e-2    # stop tolerance of the method

    def __post_init__(self):
        if self.num_particles < 1:
            raise ValueError("num_particles must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Swarm:
    positions: np.ndarray             # (S, N) degrees
    velocities: np.ndarray            # (S, N) degrees per iteration
    local_best_positions: np.ndarray  # (S, N)
    local_best_fitness: np.ndarray    # (S,)
    global_best_position: np.ndarray  # (N,)
    global_best_fitness: float


def _batch_fitness(positions, weights, scenario, pattern, geometry):
    """Penalized min-desired-gain fitness for a stack of rotation vectors."""
    k = len(scenario.desired_angles_deg)
    gains = array_gain(weights, pattern, geometry, positions,
                       scenario.desired_angles_deg
                       + scenario.interference_angles_deg)     # (K + L, S)
    interf = gains[k:]
    penalty = np.where(interf > scenario.eta_max_linear, interf, 0.0).sum(axis=0)
    return gains[:k].min(axis=0) - _PENALTY * penalty


def fitness(rotations_deg, weights, scenario, pattern, geometry) -> float:
    """Min desired gain minus the penalty over cap-violating interference gains."""
    rotations = np.asarray(rotations_deg, dtype=float)
    return float(_batch_fitness(rotations[None, :], np.asarray(weights, complex),
                                scenario, pattern, geometry)[0])


def update_inertia(iteration: int, config: PsoConfig) -> float:
    """Linearly decayed inertia weight at the given iteration index."""
    return _INERTIA_INITIAL - (_INERTIA_INITIAL - _INERTIA_FINAL) \
        * iteration / config.max_iterations


def init_swarm(initial_best, weights, scenario, pattern, geometry,
               config: PsoConfig, rng) -> Swarm:
    """Uniform initial positions with the incoming rotation vector as particle 0."""
    bounds = rotation_bounds(pattern)
    n = geometry.num_antennas
    positions = rng.uniform(bounds.theta_min_deg, bounds.theta_max_deg,
                            (config.num_particles, n))
    positions[0] = bounds.clip(initial_best)
    fit = _batch_fitness(positions, weights, scenario, pattern, geometry)
    best = int(fit.argmax())
    return Swarm(positions=positions,
                 velocities=np.zeros_like(positions),
                 local_best_positions=positions.copy(),
                 local_best_fitness=fit.copy(),
                 global_best_position=positions[best].copy(),
                 global_best_fitness=float(fit[best]))


def step(swarm: Swarm, iteration: int, weights, scenario, pattern, geometry,
         config: PsoConfig, rng) -> Swarm:
    """One synchronous swarm update.

    All particles move using the bests from the previous iteration; the best
    reduction afterwards is a deterministic fold in particle-index order with
    strict-improvement replacement.  ``rng`` only needs a ``random(shape)``
    method, which the clamp/stationarity tests exploit.
    """
    bounds = rotation_bounds(pattern)
    draws = rng.random((swarm.positions.shape[0], 2))
    inertia = update_inertia(iteration, config)

    velocities = (inertia * swarm.velocities
                  + _LEARN_LOCAL * draws[:, 0:1]
                  * (swarm.local_best_positions - swarm.positions)
                  + _LEARN_GLOBAL * draws[:, 1:2]
                  * (swarm.global_best_position[None, :] - swarm.positions))
    span = bounds.span_deg
    velocities.clip(-span, span, velocities)
    positions = bounds.clip(swarm.positions + velocities)

    fit = _batch_fitness(positions, weights, scenario, pattern, geometry)
    improved = fit > swarm.local_best_fitness
    local_best_positions = np.where(improved[:, None], positions,
                                    swarm.local_best_positions)
    local_best_fitness = np.where(improved, fit, swarm.local_best_fitness)

    global_best_position = swarm.global_best_position
    global_best_fitness = swarm.global_best_fitness
    # index-order fold with strict ">": argmax returns the first maximum
    cand = int(fit.argmax())
    if fit[cand] > global_best_fitness:
        global_best_position = positions[cand]
        global_best_fitness = float(fit[cand])

    return Swarm(positions=positions,
                 velocities=velocities,
                 local_best_positions=local_best_positions,
                 local_best_fitness=local_best_fitness,
                 global_best_position=global_best_position.copy(),
                 global_best_fitness=global_best_fitness)


def optimize_rotations(weights, initial_best, scenario, pattern, geometry,
                       config: PsoConfig, seed: int):
    """Full swarm run; returns ``(rotations_deg, fitness)`` of the global best.

    Early-stops once the global best improves by less than the threshold in
    an iteration.  Because the incoming vector is injected as a particle, the
    returned fitness never falls below its fitness.  ``seed`` (an int >= 0)
    seeds the Philox stream that every draw of the run comes from.
    """
    w = np.asarray(weights, dtype=complex)
    rng = np.random.Generator(np.random.Philox(seed))
    swarm = init_swarm(initial_best, w, scenario, pattern, geometry, config, rng)
    f_last = -np.inf
    for iteration in range(1, config.max_iterations + 1):
        swarm = step(swarm, iteration, w, scenario, pattern, geometry,
                     config, rng)
        f_cur = swarm.global_best_fitness
        if f_cur - f_last < config.delta_threshold:
            break
        f_last = f_cur
    return swarm.global_best_position.copy(), float(swarm.global_best_fitness)
