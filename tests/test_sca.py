import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ra_beamkit import convex_core, sca
from ra_beamkit.ao import AoConfig, solve_ra
from ra_beamkit.array_model import (ArrayGeometry, BeamformerState,
                                    RadiationPattern, Scenario, array_gain,
                                    composite_response)
from ra_beamkit.convex_core import GAP_TARGET
from ra_beamkit.sca import (ScaConfig, max_interference_gain,
                            min_desired_gain, optimize_weights,
                            surrogate_gain)

PAT = RadiationPattern()

# a fixed rotation vector for the two-close-beams scenario (every element at
# -12.774 deg); the weight step takes rotations as given and never reads the
# rotation range, so the frozen gain below checks the SCA step alone
CLOSE_BEAMS_THETA = np.full(15, -12.774023955472336)
CLOSE_BEAMS_SCA_GAIN = 57.108428804540516      # frozen regression (seed 99 start)


def _random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestSurrogate:
    def test_tight_at_expansion_point(self):
        rng = np.random.default_rng(0)
        w0 = _random_complex(rng, 5)
        v = _random_complex(rng, 5)
        assert surrogate_gain(w0, w0, v) == pytest.approx(
            abs(np.vdot(v, w0)) ** 2, rel=1e-12)

    def test_zero_expansion_point_degenerates(self):
        rng = np.random.default_rng(1)
        w = _random_complex(rng, 4)
        v = _random_complex(rng, 4)
        assert surrogate_gain(w, np.zeros(4), v) == 0.0

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_gap_identity(self, seed):
        # true gain minus surrogate equals |v^H (w - w0)|^2
        rng = np.random.default_rng(seed)
        w = _random_complex(rng, 4)
        w0 = _random_complex(rng, 4)
        v = _random_complex(rng, 4)
        true = abs(np.vdot(v, w)) ** 2
        gap = true - surrogate_gain(w, w0, v)
        assert gap == pytest.approx(abs(np.vdot(v, w - w0)) ** 2,
                                    rel=1e-9, abs=1e-9)

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_minorization(self, seed):
        rng = np.random.default_rng(seed)
        w = _random_complex(rng, 6)
        w0 = _random_complex(rng, 6)
        v = _random_complex(rng, 6)
        true = abs(np.vdot(v, w)) ** 2
        assert surrogate_gain(w, w0, v) <= true + 1e-9 * max(1.0, true)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            surrogate_gain(np.ones(3), np.ones(4), np.ones(4))


class TestOptimizeWeights:
    def test_single_beam_reaches_mrc_gain(self):
        geo = ArrayGeometry(10)
        sc = Scenario((90.0,), (), -10.0)
        rot = np.zeros(10)
        rng = np.random.default_rng(5)
        w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 10)) / np.sqrt(10)
        report = optimize_weights(BeamformerState(w0, rot), sc, PAT, geo,
                                  ScaConfig())
        v = composite_response(PAT, geo, rot, 90.0)
        target = np.sum(np.abs(v) ** 2)
        assert min_desired_gain(report.weights, PAT, geo, rot, sc) == \
            pytest.approx(target, abs=1e-4, rel=1e-6)

    def test_zero_start_rejected(self):
        geo = ArrayGeometry(4)
        sc = Scenario((90.0,), (), -10.0)
        with pytest.raises(ValueError):
            optimize_weights(BeamformerState(np.zeros(4), np.zeros(4)),
                             sc, PAT, geo, ScaConfig())

    def test_history_nondecreasing_and_feasible(self):
        geo = ArrayGeometry(12)
        sc = Scenario((70.0, 110.0), (30.0, 150.0), -10.0)
        rng = np.random.default_rng(2)
        w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 12)) / np.sqrt(12)
        rot = np.zeros(12)
        report = optimize_weights(BeamformerState(w0, rot), sc, PAT, geo,
                                  ScaConfig())
        hist = np.asarray(report.objective_history)
        assert np.all(np.diff(hist) >= -1e-6)
        assert np.linalg.norm(report.weights) <= 1 + 1e-8
        assert max_interference_gain(report.weights, PAT, geo, rot, sc) <= \
            0.1 + 1e-8

    def test_ascent_from_feasible_input(self):
        geo = ArrayGeometry(12)
        sc = Scenario((70.0, 110.0), (30.0,), -10.0)
        rot = np.zeros(12)
        rng = np.random.default_rng(8)
        w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 12)) / np.sqrt(12)
        first = optimize_weights(BeamformerState(w0, rot), sc, PAT, geo,
                                 ScaConfig())
        g1 = min_desired_gain(first.weights, PAT, geo, rot, sc)
        second = optimize_weights(BeamformerState(first.weights, rot), sc,
                                  PAT, geo, ScaConfig())
        g2 = min_desired_gain(second.weights, PAT, geo, rot, sc)
        assert g2 >= g1 - 1e-6

    def test_iteration_cap_respected(self):
        geo = ArrayGeometry(8)
        sc = Scenario((80.0, 100.0), (40.0,), -10.0)
        rng = np.random.default_rng(3)
        w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 8)) / np.sqrt(8)
        report = optimize_weights(
            BeamformerState(w0, np.zeros(8)), sc, PAT, geo,
            ScaConfig(max_iterations=5))
        assert report.iterations == 5      # this instance stalls after 8

    def test_close_beams_regression(self):
        geo = ArrayGeometry(15)
        sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
        rng = np.random.default_rng(99)
        w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 15)) / np.sqrt(15)
        g_in = min_desired_gain(w0, PAT, geo, CLOSE_BEAMS_THETA, sc)
        report = optimize_weights(BeamformerState(w0, CLOSE_BEAMS_THETA), sc, PAT,
                                  geo, ScaConfig())
        g_out = min_desired_gain(report.weights, PAT, geo, CLOSE_BEAMS_THETA, sc)
        assert report.iterations <= 100
        assert g_out > g_in
        assert g_out == pytest.approx(CLOSE_BEAMS_SCA_GAIN, rel=1e-6)

    def test_close_beams_subproblems_certified(self):
        # every subproblem of this run must come back certified ("optimal"),
        # not stalled at the float64 floor ("max_iterations")
        geo = ArrayGeometry(15)
        sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
        rng = np.random.default_rng(0)
        w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 15)) / np.sqrt(15)
        report = optimize_weights(BeamformerState(w0, np.zeros(15)), sc, PAT,
                                  geo, ScaConfig())
        assert report.nonoptimal_subproblems == 0


# the paper pairs with the FOA and IA rotations, which stay fixed for the
# whole solve; these are the callers of the extrapolated step
CLOSE = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
FAR = Scenario((60.0, 140.0), (20.0, 160.0), -10.0)
FIXED = {"FOA": PAT, "IA": None}


def _start(n, seed):
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)


def _desired_rows(pattern, geo, rot, sc):
    # the rows v_k as the weight step builds them
    V = composite_response(pattern, geo, rot, sc.desired_angles_deg
                           + sc.interference_angles_deg)
    return V[:len(sc.desired_angles_deg)]


def _recording(monkeypatch, alter=None):
    """Patch sca.solve_epigraph to record (offsets, returned weights,
    requested gap) per call; ``alter(call_number, solution)`` may replace a
    solution."""
    solve = sca.solve_epigraph
    calls = []

    def recorded(problem):
        sol = solve(problem)
        if alter is not None:
            sol = alter(len(calls) + 1, sol)
        calls.append((problem.offsets.copy(), sol.weights, problem.gap))
        return sol

    monkeypatch.setattr(sca, "solve_epigraph", recorded)
    return calls


@pytest.mark.parametrize("extrapolate", [False, True],
                         ids=["plain", "extrapolated"])
def test_solved_minorant_is_the_surrogate(monkeypatch, extrapolate):
    # the first subproblem's rows c_k and offsets b_k give, for any w, the
    # minorant 2 Re(c_k^H w) - b_k of |v_k^H w|^2 expanded at the input w0
    solve, problems = sca.solve_epigraph, []

    def recorded(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(sca, "solve_epigraph", recorded)
    geo, w0 = ArrayGeometry(15), _start(15, 3)
    rot = np.random.default_rng(3).uniform(-102.0, 102.0, 15)
    optimize_weights(BeamformerState(w0, rot), FAR, PAT, geo, ScaConfig(),
                     extrapolate=extrapolate)
    first = problems[0]
    V = _desired_rows(PAT, geo, rot, FAR)
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = _random_complex(rng, 15)
        minorant = 2 * (first.linear_terms.conj() @ w).real - first.offsets
        surrogate = [surrogate_gain(w, w0, v) for v in V]
        # both sum N products of size |v_k|^2 |w0| (|w| + |w0|)
        scale = np.sum(np.abs(V) ** 2, axis=1) * np.linalg.norm(w0) \
            * (np.linalg.norm(w) + np.linalg.norm(w0))
        assert np.all(np.abs(minorant - surrogate)
                      <= 4 * 15 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("scheme", ["RA", "FOA"])
def test_weight_step_reads_no_residual(monkeypatch, scheme):
    # the step computes no feasibility residual, and a later read computes
    # it from the solution's problem
    real_residual, solve = convex_core._residual, sca.solve_epigraph
    residuals, solutions = [], []

    def counted(problem, w, t):
        residuals.append(real_residual(problem, w, t))
        return residuals[-1]

    def recorded(problem):
        solutions.append(solve(problem))
        return solutions[-1]

    monkeypatch.setattr(convex_core, "_residual", counted)
    monkeypatch.setattr(sca, "solve_epigraph", recorded)
    report = optimize_weights(BeamformerState(_start(15, 0), np.zeros(15)),
                              FAR, PAT, ArrayGeometry(15), ScaConfig(),
                              extrapolate=scheme == "FOA")
    assert report.iterations == len(solutions) > 1
    assert residuals == []
    assert all(s.feasibility_residual == real_residual(s.problem, s.weights,
                                                        s.objective)
               for s in solutions)
    assert len(residuals) == len(solutions)


@pytest.mark.parametrize("scheme", ["RA", "FOA"])
def test_weight_step_keeps_no_solution(monkeypatch, scheme):
    # a solution holds its problem; the step lets each one go once the next
    # solve returns, so a step holds at most two at a time
    solve, alive = sca.solve_epigraph, []

    def recorded(problem):
        assert all(ref() is None for ref in alive[:-1])
        sol = solve(problem)
        alive.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(sca, "solve_epigraph", recorded)
    report = optimize_weights(BeamformerState(_start(15, 0), np.zeros(15)),
                              FAR, PAT, ArrayGeometry(15), ScaConfig(),
                              extrapolate=scheme == "FOA")
    assert report.iterations == len(alive) > 2
    assert all(ref() is None for ref in alive)


def _optima_loop(w, solve_at, gain, config):
    # reference: the plain step recording the epigraph optima it judges
    history = []
    for _ in range(config.max_iterations):
        sol = solve_at(w)
        w = sol.weights
        history.append(sol.objective)
        if len(history) > 1 and \
                history[-1] - history[-2] < config.delta_threshold:
            break
    return w, history


@pytest.mark.parametrize("seed", range(4))
def test_plain_history_holds_the_true_gain_of_each_solve(monkeypatch, seed):
    # the plain step records min |v_k^H w_i|^2 of every solve's weights w_i,
    # bit for bit, and still takes the iterates and the stop of a loop that
    # records and judges the epigraph optima
    geo, rot = ArrayGeometry(15), np.random.default_rng(seed).uniform(
        -102.0, 102.0, 15)
    state = BeamformerState(_start(15, seed), rot)
    calls = _recording(monkeypatch)
    report = optimize_weights(state, FAR, PAT, geo, ScaConfig())
    solves = list(calls)
    V = _desired_rows(PAT, geo, rot, FAR)
    assert report.iterations == len(solves) > 1
    assert report.objective_history == [
        float((np.abs(V.conj() @ w) ** 2).min()) for _, w, _ in solves]

    monkeypatch.setattr(sca, "_plain", _optima_loop)
    reference = optimize_weights(state, FAR, PAT, geo, ScaConfig())
    assert reference.iterations == report.iterations
    assert reference.weights.tobytes() == report.weights.tobytes()


class TestExtrapolatedStep:
    @pytest.mark.parametrize("scheme", ["FOA", "IA"])
    @pytest.mark.parametrize("seed", range(4))
    def test_history_nondecreasing_exactly(self, scheme, seed):
        geo = ArrayGeometry(15)
        report = optimize_weights(
            BeamformerState(_start(15, seed), np.zeros(15)), FAR,
            FIXED[scheme], geo, ScaConfig(), extrapolate=True)
        hist = report.objective_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))
        assert len(hist) <= report.iterations <= ScaConfig().max_iterations
        V = _desired_rows(FIXED[scheme], geo, np.zeros(15), FAR)
        assert hist[-1] == np.min(np.abs(V.conj() @ report.weights) ** 2)

    def test_every_solve_expands_at_the_rule_point(self, monkeypatch):
        # replay the rule from the recorded solves: each expands at
        # w + beta (w - w_prev), or at w after a solve that did not raise
        # the true min desired gain; a restart result below w ends the loop.
        # Solves are loose until an accepted step gains less than the stop
        # tolerance and tight after it, every restart is tight, and the loop
        # ends only on a tight step that gains less than the tolerance
        calls = _recording(monkeypatch)
        geo = ArrayGeometry(15)
        tol = ScaConfig.delta_threshold
        restarts = switches = 0
        for sc, scheme, seed in itertools.product((CLOSE, FAR), FIXED,
                                                  range(4)):
            calls.clear()
            w0 = _start(15, seed)
            report = optimize_weights(BeamformerState(w0, np.zeros(15)), sc,
                                      FIXED[scheme], geo, ScaConfig(),
                                      extrapolate=True)
            V = _desired_rows(FIXED[scheme], geo, np.zeros(15), sc)

            def gain(x):
                return np.min(np.abs(V.conj() @ x) ** 2)

            w, w_prev, restart, gap = w0, None, False, sca._LOOSE_GAP
            for n, (offsets, weights, asked) in enumerate(calls, 1):
                x = w if w_prev is None or restart else \
                    w + sca._BETA * (w - w_prev)
                np.testing.assert_array_equal(offsets,
                                              np.abs(V.conj() @ x) ** 2)
                assert asked == (GAP_TARGET if restart else gap)
                if restart and gain(weights) < gain(w):
                    break
                if w_prev is not None and not restart \
                        and gain(weights) <= gain(w):
                    restart, restarts = True, restarts + 1
                    continue
                if w_prev is not None and gain(weights) - gain(w) < tol:
                    if asked == GAP_TARGET:
                        w = weights
                        break
                    gap, switches = GAP_TARGET, switches + 1
                restart, w_prev, w = False, w, weights
            else:
                pytest.fail("the replayed solves end before a stop")
            assert n == report.iterations == len(calls) < 100
            np.testing.assert_array_equal(report.weights, w)
        assert restarts >= 1 and switches >= 1

    def test_ra_subproblems_are_tight(self, monkeypatch):
        # RA keeps the plain step and the default certificate bit for bit
        calls = _recording(monkeypatch)
        report = solve_ra(FAR, PAT, ArrayGeometry(15),
                          BeamformerState(_start(15, 0), np.zeros(15)),
                          AoConfig(), seed=0)
        assert len(calls) == report.convex_calls > 0
        assert all(asked == GAP_TARGET for _, _, asked in calls)

    @pytest.mark.parametrize("scheme", ["FOA", "IA"])
    def test_ascent_guard_keeps_a_better_feasible_input(self, scheme,
                                                        monkeypatch):
        # from a converged, feasible input, spoil the loose first solve: the
        # input beats the result and comes back unchanged; an infeasible
        # input (norm 2) does not
        geo = ArrayGeometry(15)
        V = _desired_rows(FIXED[scheme], geo, np.zeros(15), FAR)
        w_in = optimize_weights(BeamformerState(_start(15, 1), np.zeros(15)),
                                FAR, FIXED[scheme], geo, ScaConfig(),
                                extrapolate=True).weights
        calls = _recording(monkeypatch, lambda n, sol: replace(
            sol, weights=0.5 * sol.weights) if n == 1 else sol)
        config = ScaConfig(max_iterations=1)
        report = optimize_weights(BeamformerState(w_in, np.zeros(15)), FAR,
                                  FIXED[scheme], geo, config,
                                  extrapolate=True)
        assert [asked for _, _, asked in calls] == [sca._LOOSE_GAP]
        assert report.iterations == 1
        np.testing.assert_array_equal(report.weights, w_in)
        assert report.objective_history == \
            [np.min(np.abs(V.conj() @ w_in) ** 2)]
        calls.clear()
        report = optimize_weights(BeamformerState(2.0 * w_in, np.zeros(15)),
                                  FAR, FIXED[scheme], geo, config,
                                  extrapolate=True)
        np.testing.assert_array_equal(report.weights, calls[0][1])

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_rejected_extrapolation_is_resolved_at_w(self, max_iterations,
                                                     monkeypatch):
        # spoil the first extrapolated solve (call 2): its result is
        # rejected, and the next solve, if the budget allows one, expands
        # at the accepted iterate w itself
        calls = _recording(monkeypatch, lambda n, sol: replace(
            sol, weights=0.5 * sol.weights) if n == 2 else sol)
        geo = ArrayGeometry(15)
        w0 = _start(15, 2)
        report = optimize_weights(BeamformerState(w0, np.zeros(15)), FAR, PAT,
                                  geo, ScaConfig(max_iterations=max_iterations),
                                  extrapolate=True)
        V = _desired_rows(PAT, geo, np.zeros(15), FAR)
        assert report.iterations == len(calls) <= max_iterations
        w1 = calls[0][1]
        np.testing.assert_array_equal(calls[0][0], np.abs(V.conj() @ w0) ** 2)
        if max_iterations >= 2:
            x = w1 + sca._BETA * (w1 - w0)
            np.testing.assert_array_equal(calls[1][0],
                                          np.abs(V.conj() @ x) ** 2)
        if max_iterations >= 3:
            np.testing.assert_array_equal(calls[2][0],
                                          np.abs(V.conj() @ w1) ** 2)
        else:
            # no budget for the restart: the loop keeps w1
            np.testing.assert_array_equal(report.weights, w1)
            assert len(report.objective_history) == 1

    def test_worse_restart_ends_at_the_last_accepted_iterate(self,
                                                             monkeypatch):
        # spoil the first extrapolated solve (call 2) and the restart at w1
        # that follows it (call 3): the restart's true gain falls below
        # w1's, so the loop ends at once with w1 and its gain, though the
        # budget has solves left
        calls = _recording(monkeypatch, lambda n, sol: replace(
            sol, weights=0.5 * sol.weights) if n in (2, 3) else sol)
        geo = ArrayGeometry(15)
        report = optimize_weights(BeamformerState(_start(15, 2), np.zeros(15)),
                                  FAR, PAT, geo, ScaConfig(), extrapolate=True)
        V = _desired_rows(PAT, geo, np.zeros(15), FAR)
        w1 = calls[0][1]
        assert report.iterations == len(calls) == 3 < ScaConfig().max_iterations
        assert calls[2][2] == GAP_TARGET
        np.testing.assert_array_equal(calls[2][0], np.abs(V.conj() @ w1) ** 2)
        np.testing.assert_array_equal(report.weights, w1)
        assert report.objective_history == [np.min(np.abs(V.conj() @ w1) ** 2)]

    @pytest.mark.parametrize("max_iterations", [1, 2])
    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_budget_counts_every_solve(self, max_iterations, extrapolate,
                                       monkeypatch):
        calls = _recording(monkeypatch)
        geo = ArrayGeometry(15)
        for seed in range(6):
            calls.clear()
            report = optimize_weights(
                BeamformerState(_start(15, seed), np.zeros(15)), FAR, PAT,
                geo, ScaConfig(max_iterations=max_iterations),
                extrapolate=extrapolate)
            assert report.iterations == len(calls) <= max_iterations

    def test_counters_sum_the_solves(self, monkeypatch):
        solve = sca.solve_epigraph
        steps = []

        def counted(problem):
            sol = solve(problem)
            steps.append(sol.newton_steps)
            return sol

        monkeypatch.setattr(sca, "solve_epigraph", counted)
        for extrapolate in (False, True):
            steps.clear()
            report = optimize_weights(
                BeamformerState(_start(15, 0), np.zeros(15)), FAR, PAT,
                ArrayGeometry(15), ScaConfig(), extrapolate=extrapolate)
            assert report.iterations == len(steps)
            assert report.newton_steps == sum(steps) > 0
