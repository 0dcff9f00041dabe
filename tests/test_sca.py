import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ra_beamkit.array_model import (ArrayGeometry, BeamformerState,
                                    RadiationPattern, Scenario, array_gain,
                                    composite_response)
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
            ScaConfig(delta_threshold=1e-9, max_iterations=5))
        assert report.iterations <= 5

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
