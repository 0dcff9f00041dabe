"""Successive convex approximation for the weight subproblem.

With rotations held fixed, the worst-direction array gain is maximized by
repeatedly replacing each desired-direction gain |v_k^H w|^2 with its affine
minorant around an expansion point and solving the resulting convex epigraph
problem.  |v^H w|^2 is convex, so the minorant is a lower bound at any
expansion point and is tight at that point.

Either step's history holds the true min desired gain of each accepted
iterate.  The plain step expands at the current iterate and stops on
consecutive epigraph optima, so its history never decreases by more than the
certified gap of a subproblem (``GAP_TARGET`` for offsets up to 1e3).  A
caller whose rotations stay fixed for the whole solve (the FOA and IA
baselines) asks for the extrapolated step instead: it expands at
x = w + beta (w - w_prev) and keeps the result only if the true min desired
gain rises above that of w, else it solves again at x = w (a restart).  This
is the monotone accelerated scheme of Li & Lin (2015) with the adaptive
restart of O'Donoghue & Candes (2015); it shortens SCA's slow tail, and its
history is nondecreasing exactly.

The extrapolated step certifies its early subproblems only to _LOOSE_GAP,
which takes about half the Newton steps of GAP_TARGET: far from the optimum
the step's progress dwarfs the gap.  Once an accepted step gains less than
the stop tolerance every later solve is tight, restarts are always tight, and
only a tight step that gains less than the tolerance stops the loop.  A loose
first solve from a converged input can end up to _LOOSE_GAP below it, so an
input that is feasible and beats the result is returned unchanged.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .array_model import array_gain, composite_response
from .convex_core import GAP_TARGET, EpigraphProblem, solve_epigraph

_BETA = 0.5      # extrapolation weight of the fixed-rotation step
_LOOSE_GAP = 1e-2   # certified gap of its early solves


@dataclass
class ScaConfig:
    max_iterations: int = 100
    delta_threshold: ClassVar[float] = 1e-2    # stop tolerance of the method

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class ScaReport:
    weights: np.ndarray
    objective_history: list     # true min desired gain per accepted iterate;
                                # nondecreasing (plain step: up to the gap)
    iterations: int             # convex solves, restarts included
    nonoptimal_subproblems: int   # subproblems not returned "optimal"
    newton_steps: int           # summed over every convex solve


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


def optimize_weights(state, scenario, pattern, geometry, config: ScaConfig,
                     extrapolate: bool = False) -> ScaReport:
    """Run the surrogate/solve loop until the objective stalls.

    ``state.rotations_deg`` stays fixed throughout.  The initial weights must
    be nonzero: a zero expansion point degenerates every surrogate to zero and
    the iteration cannot move.  ``extrapolate`` selects the extrapolated step
    with its restart (see the module docstring), for callers whose rotations
    stay fixed across calls too.  ``iterations`` counts every convex solve,
    restarts included, so ``config.max_iterations`` bounds the solves.
    """
    w = np.asarray(state.weights, dtype=complex)
    if not np.any(w):
        raise ValueError("initial weights must be nonzero (zero expansion "
                         "point stalls the surrogate)")
    V = composite_response(pattern, geometry, state.rotations_deg,
                           scenario.desired_angles_deg
                           + scenario.interference_angles_deg)    # (K + L, N)
    V_desired, V_interf = np.split(V, [len(scenario.desired_angles_deg)])
    V_desired_h = V_desired.conj()
    eta = scenario.eta_max_linear
    solved = []     # (status, Newton steps) per solve; a solution holds
                    # its problem, so none is kept

    def solve_at(x, gap=GAP_TARGET):
        inner = V_desired_h @ x                 # v_k^H x
        sol = solve_epigraph(EpigraphProblem(V_desired * inner[:, None],
                                             np.abs(inner) ** 2, V_interf,
                                             quad_cap=eta, gap=gap))
        solved.append((sol.status, sol.newton_steps))
        return sol

    def gain(x):                                # the true min desired gain
        return float((np.abs(V_desired_h @ x) ** 2).min())

    if extrapolate:
        w_in = w
        w, history = _extrapolated(w, solve_at, gain, config)
        # a loose first solve from a converged input may end up to
        # _LOOSE_GAP below it; a feasible input that beats the result stays
        if gain(w_in) > history[-1] and np.linalg.norm(w_in) <= 1.0 and \
                np.all(np.abs(V_interf.conj() @ w_in) ** 2 <= eta):
            w, history = w_in, [gain(w_in)]
    else:
        w, history = _plain(w, solve_at, gain, config)
    return ScaReport(
        weights=w, objective_history=history, iterations=len(solved),
        nonoptimal_subproblems=sum(status != "optimal" for status, _ in solved),
        newton_steps=sum(steps for _, steps in solved))


def _plain(w, solve_at, gain, config):
    """Expand at the current iterate; the history holds the true min desired
    gain of each iterate.

    Convergence is judged on consecutive epigraph optima; a first optimum
    below the input's raw gain is normal when the input violates the caps.
    """
    history, last = [], -np.inf
    for _ in range(config.max_iterations):
        sol = solve_at(w)
        w = sol.weights
        history.append(gain(w))
        if sol.objective - last < config.delta_threshold:
            break
        last = sol.objective
    return w, history


def _extrapolated(w, solve_at, gain, config):
    """Expand at w + _BETA (w - w_prev), with a restart at w when the true min
    desired gain does not rise; the history holds that gain per accepted
    iterate.  The first solve expands at the input and is always accepted.

    Solves are certified to _LOOSE_GAP until an accepted step gains less
    than the stop tolerance, and to GAP_TARGET from then on; a restart is
    always tight.  Only a tight step that gains less than the tolerance
    stops the loop.
    """
    w_prev, history, solves, gap = w, [], 0, _LOOSE_GAP
    while solves < config.max_iterations:
        x = w + _BETA * (w - w_prev) if history else w
        w_new, tight = solve_at(x, gap).weights, gap == GAP_TARGET
        g_new, solves = gain(w_new), solves + 1
        if history and g_new <= history[-1]:        # restart at x = w
            if solves == config.max_iterations:
                break
            w_new, tight = solve_at(w).weights, True
            g_new, solves = gain(w_new), solves + 1
            if g_new < history[-1]:     # only within the certified gap
                break
        w_prev, w = w, w_new
        history.append(g_new)
        if len(history) > 1 and g_new - history[-2] < config.delta_threshold:
            if tight:
                break
            gap = GAP_TARGET
    return w, history


def min_desired_gain(weights, pattern, geometry, rotations_deg, scenario) -> float:
    """Worst array gain over the desired directions at the given state."""
    return float(np.min(array_gain(weights, pattern, geometry, rotations_deg,
                                   scenario.desired_angles_deg)))


def max_interference_gain(weights, pattern, geometry, rotations_deg, scenario) -> float:
    """Largest array gain over the interference directions; 0 if none."""
    return float(np.max(array_gain(weights, pattern, geometry, rotations_deg,
                                   scenario.interference_angles_deg),
                        initial=0.0))
