"""Successive convex approximation for the weight subproblem.

With rotations held fixed, the worst-direction array gain is maximized by
repeatedly replacing each desired-direction gain |v_k^H w|^2 with its affine
minorant around the current iterate and solving the resulting convex epigraph
problem.  The minorant is tight at the expansion point, so the true objective
never decreases across iterations (up to the subproblem tolerance).
"""

from dataclasses import dataclass

import numpy as np

from .array_model import array_gain, composite_response
from .convex_core import EpigraphProblem, solve_epigraph


@dataclass
class ScaConfig:
    delta_threshold: float = 1e-2
    max_iterations: int = 100
    subproblem_tolerance: float = 1e-6

    def __post_init__(self):
        if not self.delta_threshold > 0:
            raise ValueError("delta_threshold must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.subproblem_tolerance > 0:
            raise ValueError("subproblem_tolerance must be > 0")


@dataclass
class ScaReport:
    weights: np.ndarray
    objective_history: list     # epigraph optimum per iteration, nondecreasing
    iterations: int
    nonoptimal_subproblems: int   # subproblems not returned "optimal"


def surrogate_gain(weights, expansion_point, composite_v) -> float:
    """Affine lower bound on |v^H w|^2 expanded around ``expansion_point``.

    Equals the true gain exactly at the expansion point; everywhere else it
    falls short by |v^H (w - w0)|^2.
    """
    w = np.asarray(weights, dtype=complex)
    w0 = np.asarray(expansion_point, dtype=complex)
    v = np.asarray(composite_v, dtype=complex)
    if w.shape != w0.shape or w.shape != v.shape:
        raise ValueError("weights, expansion_point and composite_v lengths differ")
    inner0 = np.vdot(v, w0)          # v^H w0
    inner = np.vdot(v, w)            # v^H w
    return float(2.0 * np.real(np.conj(inner0) * inner) - abs(inner0) ** 2)


def optimize_weights(state, scenario, pattern, geometry, config: ScaConfig) -> ScaReport:
    """Run the surrogate/solve loop until the epigraph optimum stalls.

    ``state.rotations_deg`` stays fixed throughout.  The initial weights must
    be nonzero: a zero expansion point degenerates every surrogate to zero and
    the iteration cannot move.
    """
    w = np.asarray(state.weights, dtype=complex)
    if not np.any(w):
        raise ValueError("initial weights must be nonzero (zero expansion "
                         "point stalls the surrogate)")
    rotations = np.asarray(state.rotations_deg, dtype=float)

    V_desired = composite_response(pattern, geometry, rotations,
                                   scenario.desired_angles_deg)      # (K, N)
    V_interf = composite_response(pattern, geometry, rotations,
                                  scenario.interference_angles_deg)  # (L, N)
    eta = scenario.eta_max_linear

    # convergence is judged on consecutive subproblem optima; a first optimum
    # below the input's raw gain is normal when the input violates the caps
    t_prev = None
    history = []
    iterations = 0
    nonoptimal = 0
    for _ in range(config.max_iterations):
        iterations += 1
        inner = V_desired.conj() @ w            # v_k^H w
        problem = EpigraphProblem(V_desired * inner[:, None], np.abs(inner) ** 2,
                                  V_interf, quad_cap=eta, ball_radius=1.0)
        sol = solve_epigraph(problem, tolerance=config.subproblem_tolerance)
        nonoptimal += sol.status != "optimal"
        w = sol.weights
        history.append(sol.objective)
        if t_prev is not None and sol.objective - t_prev < config.delta_threshold:
            break
        t_prev = sol.objective

    return ScaReport(weights=w, objective_history=history, iterations=iterations,
                     nonoptimal_subproblems=nonoptimal)


def min_desired_gain(weights, pattern, geometry, rotations_deg, scenario) -> float:
    """Worst array gain over the desired directions at the given state."""
    return float(np.min(array_gain(weights, pattern, geometry, rotations_deg,
                                   scenario.desired_angles_deg)))


def max_interference_gain(weights, pattern, geometry, rotations_deg, scenario) -> float:
    """Largest array gain over the interference directions; 0 if none."""
    return float(np.max(array_gain(weights, pattern, geometry, rotations_deg,
                                   scenario.interference_angles_deg),
                        initial=0.0))
