import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ra_beamkit import array_model, pso, sca
from ra_beamkit.ao import random_initial_weights
from ra_beamkit.array_model import (MAX_GAIN_DBI, ArrayGeometry,
                                    BeamformerState, RadiationPattern,
                                    RotationBounds, Scenario, array_gain,
                                    composite_response, element_amplitude,
                                    element_gain_dbi, full_array_gain,
                                    grid_gain, rotation_bounds,
                                    steering_vector)

PAT = RadiationPattern()
FULL_GAIN_15 = 15 * 10 ** 0.8


class TestElementGain:
    def test_boresight(self):
        assert element_gain_dbi(PAT, 90.0) == pytest.approx(8.0, abs=1e-12)

    def test_at_beamwidth_offset(self):
        # 65 deg off boresight: 12*(65/65)^2 = 12 dB rolloff
        assert element_gain_dbi(PAT, 155.0) == pytest.approx(-4.0, abs=1e-12)

    def test_at_zero_degrees(self):
        # 12*(90/65)^2 = 3888/169 dB, below the 30 dB clamp
        assert element_gain_dbi(PAT, 0.0) == pytest.approx(-2536.0 / 169.0, abs=1e-12)

    def test_far_angle_clamped(self):
        assert element_gain_dbi(PAT, 300.0) == pytest.approx(-22.0, abs=1e-12)

    # the linear gain is the square of the element amplitude
    def test_linear_boresight(self):
        assert element_amplitude(PAT, 90.0) ** 2 == pytest.approx(
            6.309573444801933, rel=1e-14)

    def test_linear_at_offset(self):
        assert element_amplitude(PAT, 155.0) ** 2 == pytest.approx(
            10 ** -0.4, rel=1e-14)

    def test_linear_far_out(self):
        assert element_amplitude(PAT, 300.0) ** 2 == pytest.approx(
            10 ** -2.2, rel=1e-14)

    def test_array_input(self):
        out = element_gain_dbi(PAT, np.array([90.0, 155.0]))
        np.testing.assert_allclose(out, [8.0, -4.0], atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=180.0))
    def test_symmetry_about_boresight(self, x):
        assert element_gain_dbi(PAT, 90.0 + x) == pytest.approx(
            element_gain_dbi(PAT, 90.0 - x), abs=1e-9)

    @given(st.floats(min_value=-720.0, max_value=720.0))
    def test_range(self, psi):
        g = element_gain_dbi(PAT, psi)
        assert -22.0 - 1e-12 <= g <= 8.0 + 1e-12

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            RadiationPattern(max_gain_dbi=0.0)
        with pytest.raises(ValueError):
            RadiationPattern(beamwidth_3db_deg=-1.0)


class TestRotationBounds:
    def test_defaults(self):
        b = rotation_bounds(PAT)
        # +/- 65 * sqrt(30 / 12) about broadside
        assert b.theta_min_deg == pytest.approx(-102.77402395547234, abs=1e-9)
        assert b.theta_max_deg == pytest.approx(102.77402395547234, abs=1e-9)

    def test_unit_ratio(self):
        b = rotation_bounds(RadiationPattern(beamwidth_3db_deg=65.0,
                                             sidelobe_limit_db=12.0))
        assert b.theta_min_deg == pytest.approx(-65.0, abs=1e-12)
        assert b.theta_max_deg == pytest.approx(65.0, abs=1e-12)

    def test_narrow_beam(self):
        b = rotation_bounds(RadiationPattern(beamwidth_3db_deg=30.0,
                                             sidelobe_limit_db=12.0))
        assert (b.theta_min_deg, b.theta_max_deg) == pytest.approx((-30.0, 30.0))

    def test_clip(self):
        b = rotation_bounds(PAT)
        np.testing.assert_allclose(b.clip([-150.0, 20.0, 300.0]),
                                   [b.theta_min_deg, 20.0, b.theta_max_deg])


def effective_gain(pattern, rotations, psi):
    """The per-element amplitudes of composite_response, its moduli."""
    return np.abs(composite_response(pattern, ArrayGeometry(len(rotations)),
                                     rotations, psi))


class TestEffectiveGain:
    def test_all_boresight(self):
        g = effective_gain(PAT, np.zeros(4), 90.0)
        np.testing.assert_allclose(g, np.full(4, 2.51188643150958), rtol=1e-14)

    def test_mixed_rotations(self):
        g = effective_gain(PAT, np.array([0.0, 65.0]), 90.0)
        np.testing.assert_allclose(g, [2.51188643150958, 0.6309573444801932],
                                   rtol=1e-14)

    @given(st.floats(min_value=0.0, max_value=180.0))
    def test_aligned_rotations_hit_peak(self, psi):
        g = effective_gain(PAT, np.full(3, psi - 90.0), psi)
        np.testing.assert_allclose(g, np.full(3, 2.51188643150958), rtol=1e-12)

    def test_isotropic(self):
        # unit amplitudes: the response is the steering vector, bit for bit
        geo = ArrayGeometry(2)
        np.testing.assert_array_equal(
            composite_response(None, geo, np.array([5.0, -3.0]), 42.0),
            steering_vector(geo, 42.0))

    def test_positive_everywhere(self):
        rng = np.random.default_rng(3)
        g = effective_gain(PAT, rng.uniform(-180, 360, 32),
                           rng.uniform(0, 180))
        assert np.all(g > 0)


class TestElementAmplitude:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=0.0, max_value=MAX_GAIN_DBI, exclude_min=True),
           st.floats(min_value=1.0, max_value=360.0),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    @example(seed=0, peak=8.0, beamwidth=65.0, sidelobe=300.0,
             front_to_back=300.0)
    @example(seed=1, peak=MAX_GAIN_DBI, beamwidth=1.0, sidelobe=1e3,
             front_to_back=1e3)
    def test_within_its_ulp_bound(self, seed, peak, beamwidth, sidelobe,
                                  front_to_back):
        # the bound of element_amplitude's docstring, 1 + 2 |G| ln10 / 20
        # ulp, against a long double sqrt(10^(G/10)) of the same float64 G
        pat = RadiationPattern(peak, beamwidth, sidelobe, front_to_back)
        bounds = rotation_bounds(pat)
        rng = np.random.default_rng(seed)
        steer = rng.uniform(0.0, 180.0, (64, 1)) - rng.uniform(
            bounds.theta_min_deg, bounds.theta_max_deg, 16)
        dbi = element_gain_dbi(pat, steer)
        exact = np.sqrt(np.power(np.longdouble(10),
                                 dbi.astype(np.longdouble) / 10))
        ulps = np.abs(element_amplitude(pat, steer) - exact) \
            / np.spacing(exact.astype(float))
        assert np.all(ulps <= 1 + 2 * np.abs(dbi) * np.log(10) / 20)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "scalar"])
    @pytest.mark.parametrize("distinct", [1, 4, 15])
    def test_array_gain_and_grid_gain_share_the_bits(self, monkeypatch,
                                                     layout, distinct):
        # grid_gain's amplitude rows, one per distinct rotation, hold the
        # bytes of the amplitude columns of composite_response
        rng = np.random.default_rng(distinct)
        values = rng.uniform(-102.0, 102.0, distinct)
        rot = values[np.arange(15) % distinct]
        grid = rng.uniform(0.0, 180.0, 3 * 401)
        psi = {"contiguous": grid[:401], "strided": grid[::3],
               "scalar": grid[0]}[layout]
        rows, kernel = [], element_amplitude

        def recording(pattern, steer_deg, out=None):
            amp = kernel(pattern, steer_deg, out)
            rows.append(np.array(amp))      # before grid_gain squares it
            return amp

        monkeypatch.setattr(array_model, "element_amplitude", recording)
        composite_response(PAT, ArrayGeometry(15), rot, psi)
        grid_gain(random_initial_weights(15, distinct), PAT, ArrayGeometry(15),
                  rot, np.atleast_1d(psi))
        monkeypatch.undo()
        columns = rows[0].reshape(-1, 15)
        _, index = np.unique(rot, return_inverse=True)
        assert len(rows) == 2 and rows[1].shape == (distinct, columns.shape[0])
        for n in range(15):
            assert columns[:, n].tobytes() == rows[1][index[n]].tobytes()


def test_amplitude_paths_call_no_power_or_sqrt(monkeypatch):
    # the swarm step, the weight step and the pattern sampler take every
    # amplitude from one exp per entry, never from numpy's power or sqrt
    geo, w = ArrayGeometry(15), random_initial_weights(15, 0)
    scenario = Scenario((60.0, 140.0), (20.0, 160.0), -10.0)
    config = pso.PsoConfig(num_particles=40)
    rng = np.random.Generator(np.random.Philox(0))
    swarm = pso.init_swarm(np.zeros(15), w, scenario, PAT, geo, config, rng)
    ra, foa = swarm.positions[1], np.full(15, 12.5)
    psi = np.linspace(0.0, 180.0, 1801)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy power or sqrt ran")

    for name in ("power", "sqrt"):
        monkeypatch.setattr(np, name, forbidden)
    moved = pso.step(swarm, 1, w, scenario, PAT, geo, config, rng)
    assert moved.global_best_fitness >= swarm.global_best_fitness
    report = sca.optimize_weights(BeamformerState(w, ra), scenario, PAT, geo,
                                  sca.ScaConfig())
    assert report.nonoptimal_subproblems == 0
    for rotations in (ra, foa):
        gains = grid_gain(report.weights, PAT, geo, rotations, psi)
        assert gains.shape == psi.shape and np.all(gains >= 0)


class TestSteeringVector:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(steering_vector(ArrayGeometry(4), 90.0),
                                   np.ones(4), atol=1e-12)

    def test_endfire_two_elements(self):
        np.testing.assert_allclose(steering_vector(ArrayGeometry(2), 0.0),
                                   [1.0, -1.0], atol=1e-12)

    def test_sixty_degrees(self):
        np.testing.assert_allclose(steering_vector(ArrayGeometry(3), 60.0),
                                   [1.0, 1j, -1.0], atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=180.0),
           st.integers(min_value=1, max_value=40))
    def test_norm_squared_is_n(self, psi, n):
        a = steering_vector(ArrayGeometry(n), psi)
        assert np.linalg.norm(a) ** 2 == pytest.approx(n, rel=1e-12)
        np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-12)

    @given(st.floats(min_value=0.0, max_value=180.0))
    def test_degree_radian_roundtrip(self, psi):
        assert np.degrees(np.radians(psi)) == pytest.approx(psi, rel=1e-12, abs=1e-12)


class TestCompositeAndGain:
    def test_composite_modulus_equals_effective_gain(self):
        rng = np.random.default_rng(11)
        rot = rng.uniform(-12.0, 192.0, 8)
        psi = 73.0
        v = composite_response(PAT, ArrayGeometry(8), rot, psi)
        np.testing.assert_allclose(np.abs(v),
                                   element_amplitude(PAT, psi - rot),
                                   rtol=1e-12)

    def test_composite_aligned_broadside(self):
        v = composite_response(PAT, ArrayGeometry(2), np.zeros(2), 90.0)
        np.testing.assert_allclose(v, np.full(2, 2.51188643150958), atol=1e-12)

    def test_composite_single_element_endfire(self):
        v = composite_response(PAT, ArrayGeometry(1), np.zeros(1), 0.0)
        assert abs(v[0]) == pytest.approx(0.1777068390729773, rel=1e-12)

    def test_full_array_gain_with_mrc(self):
        geo = ArrayGeometry(15)
        a = steering_vector(geo, 90.0)
        w = a / np.sqrt(15)
        g = array_gain(w, PAT, geo, np.zeros(15), 90.0)
        assert g == pytest.approx(FULL_GAIN_15, rel=1e-12)
        assert full_array_gain(PAT, geo) == pytest.approx(FULL_GAIN_15, rel=1e-14)

    def test_zero_weights(self):
        assert array_gain(np.zeros(3), PAT, ArrayGeometry(3), np.zeros(3), 70.0) == 0.0

    def test_single_element_boresight(self):
        g = array_gain(np.ones(1), PAT, ArrayGeometry(1), np.zeros(1), 90.0)
        assert g == pytest.approx(10 ** 0.8, rel=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            array_gain(np.ones(3), PAT, ArrayGeometry(4), np.zeros(4), 90.0)
        with pytest.raises(ValueError):
            composite_response(PAT, ArrayGeometry(4), np.zeros(3), 90.0)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_global_phase_invariance(self, seed, phase):
        rng = np.random.default_rng(seed)
        n = 6
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        rot = rng.uniform(-12.0, 192.0, n)
        psi = rng.uniform(0.0, 180.0)
        geo = ArrayGeometry(n)
        g1 = array_gain(w, PAT, geo, rot, psi)
        g2 = array_gain(np.exp(1j * phase) * w, PAT, geo, rot, psi)
        assert g2 == pytest.approx(g1, rel=1e-9)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_cauchy_schwarz_bound_and_mrc_equality(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        geo = ArrayGeometry(n)
        rot = rng.uniform(-12.0, 192.0, n)
        psi = rng.uniform(0.0, 180.0)
        v = composite_response(PAT, geo, rot, psi)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        bound = np.linalg.norm(w) ** 2 * np.sum(np.abs(v) ** 2)
        assert array_gain(w, PAT, geo, rot, psi) <= bound * (1 + 1e-12)
        w_mrc = v / np.linalg.norm(v)
        assert array_gain(w_mrc, PAT, geo, rot, psi) == pytest.approx(
            np.sum(np.abs(v) ** 2), rel=1e-12)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.booleans())
    def test_batched_response_equals_stacked_calls(self, seed, isotropic):
        rng = np.random.default_rng(seed)
        n, m, s = (int(x) for x in rng.integers(1, 20, 3))
        pat = None if isotropic else PAT
        geo = ArrayGeometry(n)
        psi = rng.uniform(0.0, 180.0, m)
        rots = rng.uniform(-102.0, 102.0, (s, n))
        by_angle = composite_response(pat, geo, rots[0], psi)
        assert np.array_equal(by_angle, np.array(
            [composite_response(pat, geo, rots[0], p) for p in psi]))
        stack = composite_response(pat, geo, rots, psi)
        assert stack.shape == (m, s, n)
        assert np.array_equal(stack, np.array(
            [[composite_response(pat, geo, r, p) for r in rots] for p in psi]))

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_gain_over_angles_matches_per_angle_calls(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        geo = ArrayGeometry(n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        rot = rng.uniform(-102.0, 102.0, n)
        psi = rng.uniform(0.0, 180.0, int(rng.integers(1, 50)))
        gains = array_gain(w, PAT, geo, rot, psi)
        single = [array_gain(w, PAT, geo, rot, p) for p in psi]
        assert gains.shape == psi.shape
        assert all(isinstance(g, float) for g in single)
        # a matmul and a dot product sum in different orders; near a null the
        # gain is a difference of O(1) terms, so the bound is relative to its
        # Cauchy-Schwarz scale |w|^2 |v|^2
        scale = np.linalg.norm(w) ** 2 * np.sum(
            np.abs(composite_response(PAT, geo, rot, psi)) ** 2, axis=-1)
        assert np.all(np.abs(gains - single) <= 1e-15 * scale)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
           st.booleans())
    @example(seed=0, n=64, distinct=1, spacing=1e3, isotropic=False)
    @example(seed=1, n=64, distinct=3, spacing=1e3, isotropic=True)
    @example(seed=2, n=1, distinct=1, spacing=5e-324, isotropic=False)
    def test_grid_gain_matches_array_gain(self, seed, n, distinct, spacing,
                                          isotropic):
        # the bound of grid_gain's docstring: |dg| <= 10 N (1 + 2 pi d) eps
        # S^2, with S = sum |w_n| A_n(psi); `distinct` rotation values are
        # shared among the elements, so 1 means all equal
        rng = np.random.default_rng(seed)
        pat = None if isotropic else PAT
        geo = ArrayGeometry(n, spacing)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        values = rng.uniform(-102.0, 102.0, min(distinct, n))
        rot = values[rng.integers(0, values.size, n)]
        psi = np.concatenate([[0.0, 90.0, 180.0], rng.uniform(0.0, 180.0, 200)])
        gains = grid_gain(w, pat, geo, rot, psi)
        reference = array_gain(w, pat, geo, rot, psi)
        s = np.abs(composite_response(pat, geo, rot, psi)) @ np.abs(w)
        bound = 10 * n * (1 + 2 * np.pi * spacing) * np.finfo(float).eps * s ** 2
        assert gains.shape == psi.shape
        assert np.all(np.abs(gains - reference) <= bound)

    @pytest.mark.parametrize("isotropic", [False, True])
    def test_single_element_grid_gain_ignores_spacing(self, isotropic):
        # at N = 1 Horner's loop never runs, so the phase term is not used
        pat = None if isotropic else PAT
        w, rot = np.array([0.6 - 0.3j]), np.array([25.0])
        psi = np.linspace(0.0, 180.0, 1801)
        gains = [grid_gain(w, pat, ArrayGeometry(1, d), rot, psi).tobytes()
                 for d in (0.5, 1e6)]
        assert gains[0] == gains[1]

    @pytest.mark.parametrize("n,rows,chunks", [(15, 5461, 1), (64, 5461, 2),
                                               (1024, 1000, 5)])
    def test_grid_gain_chunks_change_no_bit(self, monkeypatch, n, rows,
                                            chunks):
        # all-distinct rotations: a 5461-row pattern block is one chunk at
        # N = 15 and two at N = 64, the last one short; one chunk of the
        # whole grid gives the same bits
        rng = np.random.default_rng(n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        rot = rng.uniform(-102.0, 102.0, n)
        psi = np.linspace(0.0, 180.0, rows)
        calls, kernel = [], element_amplitude

        def counting(pattern, steer_deg, out=None):
            calls.append(np.shape(steer_deg))
            return kernel(pattern, steer_deg, out)

        monkeypatch.setattr(array_model, "element_amplitude", counting)
        chunked = grid_gain(w, PAT, ArrayGeometry(n), rot, psi)
        assert len(calls) == chunks
        monkeypatch.setattr(array_model, "GRID_CHUNK_BYTES", 2 ** 40)
        whole = grid_gain(w, PAT, ArrayGeometry(n), rot, psi)
        assert calls[-1] == (n, rows)
        assert chunked.tobytes() == whole.tobytes()

    def test_grid_gain_checks_lengths(self):
        with pytest.raises(ValueError):
            grid_gain(np.ones(3), PAT, ArrayGeometry(4), np.zeros(4), [90.0])
        with pytest.raises(ValueError):
            grid_gain(np.ones(4), PAT, ArrayGeometry(4), np.zeros(3), [90.0])


class TestStateAndScenario:
    def test_state_validation(self):
        bounds = rotation_bounds(PAT)
        state = BeamformerState(np.full(3, 0.5 + 0j), np.zeros(3))
        state.validate(bounds)
        with pytest.raises(ValueError):
            BeamformerState(np.ones(3) * 2, np.zeros(3)).validate(bounds)
        with pytest.raises(ValueError):
            BeamformerState(np.full(3, 0.1 + 0j), np.full(3, -120.0)).validate(bounds)

    def test_state_shape_checks(self):
        with pytest.raises(ValueError):
            BeamformerState(np.ones(3), np.zeros(4))

    @pytest.mark.parametrize("build,message", [
        (lambda: ArrayGeometry(0), "num_antennas"),
        (lambda: RotationBounds(1.0, 1.0), "theta_min_deg"),
        (lambda: BeamformerState(np.ones((2, 3)), np.zeros(3)), "1-D"),
    ])
    def test_constructors_reject_bad_input(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_scenario_validation(self):
        sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
        assert sc.eta_max_linear == pytest.approx(0.1, rel=1e-14)
        with pytest.raises(ValueError):
            Scenario((), (), -10.0)
        with pytest.raises(ValueError):
            Scenario((200.0,), (), -10.0)
        with pytest.raises(ValueError):
            Scenario((60.0,), (60.0,), -10.0)
