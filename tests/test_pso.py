import json
import os

import numpy as np
import pytest

from ra_beamkit import array_model
from ra_beamkit.ao import random_initial_weights
from ra_beamkit.array_model import (ArrayGeometry, RadiationPattern, Scenario,
                                    array_gain, element_gain_dbi,
                                    rotation_bounds, steering_vector)
from ra_beamkit.pso import (_PENALTY, PsoConfig, fitness, init_swarm,
                            optimize_rotations, step, update_inertia)

PAT = RadiationPattern()
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "pso_step_trace.json")


class ZeroRng:
    """Stub generator that makes both rand() terms vanish."""

    def random(self, shape):
        return np.zeros(shape)

    def uniform(self, lo, hi, shape):
        return np.full(shape, lo)


class TestInertia:
    def test_endpoints_and_midpoint(self):
        cfg = PsoConfig()
        assert update_inertia(0, cfg) == pytest.approx(0.9)
        assert update_inertia(cfg.max_iterations, cfg) == pytest.approx(0.2)
        assert update_inertia(cfg.max_iterations // 2, cfg) == pytest.approx(0.55)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(num_particles=0)


class TestFitness:
    def test_no_interference_is_min_gain(self):
        geo = ArrayGeometry(6)
        sc = Scenario((75.0, 105.0), (), -10.0)
        w = steering_vector(geo, 75.0) / np.sqrt(6)
        rot = np.zeros(6)
        expected = min(array_gain(w, PAT, geo, rot, a)
                       for a in sc.desired_angles_deg)
        assert fitness(rot, w, sc, PAT, geo) == pytest.approx(
            expected, rel=1e-12)

    def test_feasible_interference_unpenalized(self):
        geo = ArrayGeometry(6)
        # interference far outside the pattern: gain well under the cap
        sc = Scenario((90.0,), (5.0,), -10.0)
        w = steering_vector(geo, 90.0) / np.sqrt(6) * 0.1
        rot = np.zeros(6)
        assert array_gain(w, PAT, geo, rot, 5.0) <= 0.1
        assert fitness(rot, w, sc, PAT, geo) == pytest.approx(
            array_gain(w, PAT, geo, rot, 90.0), rel=1e-12)

    def test_violation_penalized_by_tau_times_gain(self):
        geo = ArrayGeometry(6)
        sc = Scenario((90.0,), (91.0,), -10.0)
        w = steering_vector(geo, 90.0) / np.sqrt(6)
        rot = np.zeros(6)
        g_des = array_gain(w, PAT, geo, rot, 90.0)
        g_int = array_gain(w, PAT, geo, rot, 91.0)
        assert g_int > 0.1
        assert fitness(rot, w, sc, PAT, geo) == pytest.approx(
            g_des - 1e6 * g_int, rel=1e-12)


class TestStep:
    def _setup(self, n=2, s=3):
        geo = ArrayGeometry(n)
        sc = Scenario((90.0,), (), -10.0)
        w = steering_vector(geo, 90.0) / np.sqrt(n)
        cfg = PsoConfig(num_particles=s)
        return geo, sc, w, cfg

    def test_particle_at_global_best_is_stationary(self):
        geo, sc, w, _ = self._setup()
        cfg = PsoConfig(num_particles=1)
        swarm = init_swarm(np.zeros(2), w, sc, PAT, geo, cfg, ZeroRng())
        out = step(swarm, 1, w, sc, PAT, geo, cfg, ZeroRng())
        np.testing.assert_array_equal(out.positions, swarm.positions)
        np.testing.assert_array_equal(out.velocities, np.zeros((1, 2)))

    def test_projection_clamps_to_bounds(self):
        geo, sc, w, cfg = self._setup(s=1)
        bounds = rotation_bounds(PAT)
        swarm = init_swarm(np.full(2, bounds.theta_max_deg - 1.0), w, sc, PAT,
                           geo, PsoConfig(num_particles=1), ZeroRng())
        swarm.velocities[:] = 50.0          # forces an out-of-box proposal
        swarm.local_best_positions[:] = bounds.theta_max_deg - 1.0
        out = step(swarm, 1, w, sc, PAT, geo,
                   PsoConfig(num_particles=1), ZeroRng())
        np.testing.assert_array_equal(out.positions,
                                      np.full((1, 2), bounds.theta_max_deg))

    def test_golden_one_step_trace(self):
        with open(GOLDEN) as fh:
            trace = json.load(fh)
        geo = ArrayGeometry(2)
        sc = Scenario(tuple(trace["scenario"]["desired_angles_deg"]),
                      tuple(trace["scenario"]["interference_angles_deg"]),
                      trace["scenario"]["eta_max_db"])
        w = np.array([re + 1j * im for re, im in trace["weights"]])
        cfg = PsoConfig(num_particles=trace["config"]["num_particles"])
        rng = np.random.Generator(np.random.Philox(trace["config"]["rng_seed"]))
        swarm = init_swarm(np.asarray(trace["initial_best"]), w, sc, PAT, geo,
                           cfg, rng)
        np.testing.assert_allclose(swarm.positions, trace["init"]["positions"],
                                   rtol=0, atol=0)
        assert swarm.global_best_fitness == trace["init"]["global_best_fitness"]
        out = step(swarm, 1, w, sc, PAT, geo, cfg, rng)
        ref = trace["after_step_1"]
        np.testing.assert_allclose(out.positions, ref["positions"], rtol=0, atol=0)
        np.testing.assert_allclose(out.velocities, ref["velocities"], rtol=0, atol=0)
        np.testing.assert_allclose(out.local_best_fitness,
                                   ref["local_best_fitness"], rtol=0, atol=0)
        np.testing.assert_allclose(out.global_best_position,
                                   ref["global_best_position"], rtol=0, atol=0)
        assert out.global_best_fitness == ref["global_best_fitness"]


def sqrt_power_amplitude(pattern, steer_deg, out=None):
    """The element amplitude as sqrt(10**(G/10)), the form before the exp
    kernel."""
    gain = np.asarray(element_gain_dbi(pattern, steer_deg, out))
    gain /= 10.0
    np.power(10.0, gain, out=gain)
    np.sqrt(gain, out=gain)
    return gain if gain.ndim else float(gain)


@pytest.mark.parametrize("pair", [(55.0, 60.0), (60.0, 140.0)],
                         ids=["close", "far"])
def test_swarm_decisions_match_the_sqrt_power_amplitude(monkeypatch, pair):
    # init_swarm and five steps of paper-pair swarms move every particle the
    # same way under either amplitude; fitness values agree to a few ulp of
    # their Cauchy-Schwarz scale, the largest desired S^2 plus the penalty
    # weight times the summed interference S^2, S = sum_n |w_n| A_n(psi)
    geo, cfg = ArrayGeometry(15), PsoConfig()
    sc = Scenario(pair, (20.0, 160.0), -10.0)
    kernel = array_model.element_amplitude
    for seed in range(10):
        w = random_initial_weights(15, seed)

        def tolerance(positions):
            steer = np.subtract.outer(pair + (20.0, 160.0), positions)
            s2 = (kernel(PAT, steer) @ np.abs(w)) ** 2
            scale = s2[:2].max(axis=0) + _PENALTY * s2[2:].sum(axis=0)
            return 4 * np.finfo(float).eps * scale

        traces = []
        for amplitude in (kernel, sqrt_power_amplitude):
            monkeypatch.setattr(array_model, "element_amplitude", amplitude)
            rng = np.random.Generator(np.random.Philox(seed))
            trace = [init_swarm(np.zeros(15), w, sc, PAT, geo, cfg, rng)]
            for iteration in range(1, 6):
                trace.append(step(trace[-1], iteration, w, sc, PAT, geo, cfg,
                                  rng))
            traces.append(trace)
        monkeypatch.setattr(array_model, "element_amplitude", kernel)
        for new, old in zip(*traces):
            for name in ("positions", "velocities", "local_best_positions",
                         "global_best_position"):
                np.testing.assert_array_equal(getattr(new, name),
                                              getattr(old, name))
            moved = np.abs(new.local_best_fitness - old.local_best_fitness)
            assert np.all(moved <= tolerance(new.local_best_positions))
            assert abs(new.global_best_fitness - old.global_best_fitness) \
                <= tolerance(new.global_best_position[None])[0]


class TestOptimizeRotations:
    def test_single_beam_approaches_alignment(self):
        geo = ArrayGeometry(4)
        sc = Scenario((90.0,), (), -10.0)
        w = steering_vector(geo, 90.0) / np.sqrt(4)
        cfg = PsoConfig(num_particles=300, max_iterations=300)
        rot, fit = optimize_rotations(w, np.full(4, 40.0), sc, PAT, geo, cfg,
                                      seed=0)
        full = 4 * 10 ** 0.8
        assert fit >= 0.98 * full
        assert np.abs(rot).max() < 15.0     # rotations near the aligned optimum
        assert rotation_bounds(PAT).contains(rot)

    def test_degenerate_single_particle_is_stationary(self):
        # one particle is its own local and global best, so with zero initial
        # velocity both learning terms vanish and it never moves
        geo = ArrayGeometry(3)
        sc = Scenario((100.0,), (), -10.0)
        w = steering_vector(geo, 100.0) / np.sqrt(3)
        cfg = PsoConfig(num_particles=1)
        start = np.array([3.0, 17.0, -5.0])
        rot, fit = optimize_rotations(w, start, sc, PAT, geo, cfg, seed=0)
        np.testing.assert_array_equal(rot, start)
        assert fit == pytest.approx(fitness(start, w, sc, PAT, geo))

    def test_elitism_never_regresses(self):
        geo = ArrayGeometry(6)
        sc = Scenario((70.0, 120.0), (30.0,), -10.0)
        rng = np.random.default_rng(17)
        w = rng.normal(size=6) + 1j * rng.normal(size=6)
        w /= np.linalg.norm(w) * 1.2
        start = np.zeros(6)
        rot, fit = optimize_rotations(w, start, sc, PAT, geo,
                                      PsoConfig(num_particles=50), seed=3)
        assert fit >= fitness(start, w, sc, PAT, geo)

    def test_positions_within_bounds(self):
        geo = ArrayGeometry(5)
        sc = Scenario((60.0,), (150.0,), -10.0)
        w = steering_vector(geo, 60.0) / np.sqrt(5)
        cfg = PsoConfig(num_particles=30, max_iterations=40)
        rot, _ = optimize_rotations(w, np.zeros(5), sc, PAT, geo, cfg, seed=11)
        assert rotation_bounds(PAT).contains(rot)

    def test_bit_reproducibility(self):
        geo = ArrayGeometry(7)
        sc = Scenario((80.0, 110.0), (20.0,), -10.0)
        rng = np.random.default_rng(23)
        w = rng.normal(size=7) + 1j * rng.normal(size=7)
        w /= np.linalg.norm(w) * 1.1
        cfg = PsoConfig(num_particles=60)
        r1, f1 = optimize_rotations(w, np.zeros(7), sc, PAT, geo, cfg, seed=77)
        r2, f2 = optimize_rotations(w, np.zeros(7), sc, PAT, geo, cfg, seed=77)
        np.testing.assert_array_equal(r1, r2)
        assert f1 == f2

    def test_positive_fitness_implies_feasible(self):
        geo = ArrayGeometry(10)
        sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
        rng = np.random.default_rng(31)
        w = rng.normal(size=10) + 1j * rng.normal(size=10)
        w /= np.linalg.norm(w) * 1.05
        rot, fit = optimize_rotations(w, np.zeros(10), sc, PAT, geo,
                                      PsoConfig(num_particles=80), seed=5)
        if fit > 0:
            for ang in sc.interference_angles_deg:
                assert array_gain(w, PAT, geo, rot, ang) <= 0.1 + 1e-10
