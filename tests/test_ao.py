import numpy as np
import pytest
from collections import Counter
from dataclasses import replace

from ra_beamkit import ao, experiments, pso, sca
from ra_beamkit.ao import (AoConfig, random_initial_weights, solve_foa,
                           solve_ia, solve_ra, solve_single_beam)
from ra_beamkit.array_model import (ArrayGeometry, BeamformerState,
                                    RadiationPattern, Scenario, array_gain,
                                    composite_response, full_array_gain,
                                    rotation_bounds)
from ra_beamkit.experiments import report_to_dict, run_single
from ra_beamkit.pso import PsoConfig
from ra_beamkit.sca import ScaConfig
from ra_beamkit.scenario import ScenarioSpec, parse_scenario

PAT = RadiationPattern()
GEO15 = ArrayGeometry(15)
FULL_15 = 15 * 10 ** 0.8


def quick_config(particles=60, outer=20):
    return AoConfig(sca=ScaConfig(),
                    pso=PsoConfig(num_particles=particles),
                    max_outer_iterations=outer)


class TestSingleBeam:
    def test_broadside_full_gain(self):
        state = solve_single_beam(90.0, PAT, GEO15)
        gain = array_gain(state.weights, PAT, GEO15, state.rotations_deg, 90.0)
        assert gain == pytest.approx(FULL_15, rel=1e-12)
        np.testing.assert_allclose(state.rotations_deg, 0.0, atol=1e-12)
        assert np.linalg.norm(state.weights) == pytest.approx(1.0, rel=1e-12)

    def test_single_element(self):
        geo = ArrayGeometry(1)
        state = solve_single_beam(90.0, PAT, geo)
        gain = array_gain(state.weights, PAT, geo, state.rotations_deg, 90.0)
        assert gain == pytest.approx(10 ** 0.8, rel=1e-12)

    def test_off_center_clamps(self):
        # a 12 dB side-lobe limit narrows the range to +/- 65 deg, so aiming
        # at 10 deg (theta = -80) clamps to -65 and leaves every element
        # 15 deg off boresight
        pat = RadiationPattern(sidelobe_limit_db=12.0)
        bounds = rotation_bounds(pat)
        state = solve_single_beam(10.0, pat, GEO15)
        np.testing.assert_allclose(state.rotations_deg, bounds.theta_min_deg,
                                   atol=1e-12)
        gain = array_gain(state.weights, pat, GEO15, state.rotations_deg, 10.0)
        expected = 15 * 10 ** ((8.0 - 12.0 * (15.0 / 65.0) ** 2) / 10.0)
        assert gain == pytest.approx(expected, rel=1e-12)
        assert gain < FULL_15

    def test_range_centred_on_broadside(self):
        # rotation is an offset from broadside, so the range is symmetric
        # about theta = 0 and mirrored beams (psi, 180 - psi) are equally good
        for psi in (30.0, 55.0, 60.0):
            gains = []
            for angle in (psi, 180.0 - psi):
                state = solve_single_beam(angle, PAT, GEO15)
                gains.append(array_gain(state.weights, PAT, GEO15,
                                        state.rotations_deg, angle))
            assert gains[0] == pytest.approx(gains[1], rel=1e-12)
        bounds = rotation_bounds(PAT)
        assert (bounds.theta_min_deg + bounds.theta_max_deg) / 2 == \
            pytest.approx(0.0, abs=1e-12)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            solve_single_beam(-5.0, PAT, GEO15)

    def test_mrc_oracle_none_exceeds(self):
        # aligned rotations make the matched filter globally optimal
        state = solve_single_beam(90.0, PAT, GEO15)
        best = array_gain(state.weights, PAT, GEO15, state.rotations_deg, 90.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.normal(size=15) + 1j * rng.normal(size=15)
            w /= np.linalg.norm(w)
            g = array_gain(w, PAT, GEO15, state.rotations_deg, 90.0)
            assert g <= best + 1e-9


class TestSolveRa:
    def test_recovers_closed_form(self):
        sc = Scenario((90.0,), (), -10.0)
        w0 = random_initial_weights(15, 1)
        rep = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)),
                       quick_config(), seed=1)
        assert rep.min_desired_gain >= 0.98 * FULL_15
        assert rep.scheme == "RA"
        assert rep.outer_iterations <= 20

    def test_objective_history_nondecreasing(self):
        sc = Scenario((70.0, 120.0), (30.0,), -10.0)
        w0 = random_initial_weights(15, 2)
        rep = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)),
                       quick_config(), seed=2)
        hist = np.asarray(rep.objective_history)
        assert np.all(np.diff(hist) >= -1e-6)
        assert rep.min_desired_gain == hist[-1]

    def test_upper_bound_and_feasibility(self):
        sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
        w0 = random_initial_weights(15, 3)
        rep = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)),
                       quick_config(), seed=3)
        assert rep.min_desired_gain <= full_array_gain(PAT, GEO15) + 1e-9
        assert rep.max_interference_gain <= 0.1 + 1e-8
        bounds = rotation_bounds(PAT)
        assert bounds.contains(rep.final_state.rotations_deg)

    def test_determinism(self):
        sc = Scenario((75.0, 100.0), (140.0,), -10.0)
        w0 = random_initial_weights(15, 4)
        cfg = quick_config()
        r1 = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)), cfg,
                      seed=4)
        r2 = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)), cfg,
                      seed=4)
        np.testing.assert_array_equal(r1.final_state.weights,
                                      r2.final_state.weights)
        np.testing.assert_array_equal(r1.final_state.rotations_deg,
                                      r2.final_state.rotations_deg)
        assert r1.objective_history == r2.objective_history

    def test_seed_drives_the_swarm(self):
        # README's library example: only the seed differs between the runs
        sc = Scenario((60.0, 140.0), (20.0, 160.0), -10.0)
        w0 = random_initial_weights(15, seed=1)
        r1, r2 = (solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)),
                           AoConfig(), seed=seed) for seed in (1, 2))
        assert (r1.seed, r2.seed) == (1, 2)
        assert not np.array_equal(r1.final_state.rotations_deg,
                                  r2.final_state.rotations_deg)
        assert r1.objective_history != r2.objective_history

    def test_input_validation(self):
        sc = Scenario((90.0,), (), -10.0)
        with pytest.raises(ValueError):
            solve_ra(sc, PAT, GEO15,
                     BeamformerState(np.zeros(15), np.zeros(15)),
                     quick_config())
        with pytest.raises(ValueError):
            solve_ra(sc, PAT, GEO15,
                     BeamformerState(random_initial_weights(15, 0),
                                     np.full(15, -120.0)),
                     quick_config())

    def test_cross_validation_against_closed_form(self):
        # no-interference single beam with the clamp inactive
        sc = Scenario((100.0,), (), -10.0)
        closed = solve_single_beam(100.0, PAT, GEO15)
        target = array_gain(closed.weights, PAT, GEO15,
                            closed.rotations_deg, 100.0)
        w0 = random_initial_weights(15, 6)
        rep = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)),
                       quick_config(particles=200), seed=6)
        assert rep.min_desired_gain >= 0.98 * target


class TestBaselines:
    def test_foa_broadside_matches_full_gain(self):
        sc = Scenario((90.0,), (), -10.0)
        rep = solve_foa(sc, PAT, GEO15, random_initial_weights(15, 0),
                        quick_config())
        assert rep.min_desired_gain == pytest.approx(FULL_15, rel=1e-4)
        assert rep.scheme == "FOA"
        np.testing.assert_array_equal(rep.final_state.rotations_deg,
                                      np.zeros(15))

    def test_foa_below_ra_off_center(self):
        sc = Scenario((20.0,), (), -10.0)
        w0 = random_initial_weights(15, 1)
        foa = solve_foa(sc, PAT, GEO15, w0, quick_config())
        ra = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)),
                      quick_config(particles=200), seed=1)
        assert foa.min_desired_gain < ra.min_desired_gain

    def test_foa_interference_cap(self):
        sc = Scenario((80.0, 100.0), (40.0, 140.0), -10.0)
        rep = solve_foa(sc, PAT, GEO15, random_initial_weights(15, 2),
                        quick_config())
        assert rep.max_interference_gain <= 0.1 + 1e-8

    def test_ia_single_beam_gain_is_n(self):
        for psi in (30.0, 90.0, 147.0):
            sc = Scenario((psi,), (), -10.0)
            rep = solve_ia(sc, GEO15, random_initial_weights(15, 3),
                           quick_config())
            assert rep.min_desired_gain == pytest.approx(15.0, rel=1e-4)
            assert rep.scheme == "IA"

    def test_ia_to_ra_ratio_at_broadside(self):
        sc = Scenario((90.0,), (), -10.0)
        w0 = random_initial_weights(15, 4)
        ia = solve_ia(sc, GEO15, w0, quick_config())
        ra = solve_ra(sc, PAT, GEO15, BeamformerState(w0, np.zeros(15)),
                      quick_config(), seed=4)
        assert ra.min_desired_gain / ia.min_desired_gain == pytest.approx(
            10 ** 0.8, rel=5e-3)

    def test_ia_interference_cap(self):
        sc = Scenario((80.0, 100.0), (60.0,), -10.0)
        rep = solve_ia(sc, GEO15, random_initial_weights(15, 5),
                       quick_config())
        assert rep.max_interference_gain <= 0.1 + 1e-8


class TestOrdering:
    def test_mean_db_ordering_over_random_scenarios(self):
        rng = np.random.default_rng(123)
        geo = ArrayGeometry(8)
        cfg = AoConfig(pso=PsoConfig(num_particles=50),
                       max_outer_iterations=10)
        gains = {"RA": [], "FOA": [], "IA": []}
        count = 0
        while count < 30:
            angles = rng.uniform(0.0, 180.0, 2)
            if abs(angles[0] - angles[1]) < 1e-9:
                continue
            sc = Scenario((angles[0],), (angles[1],), -10.0)
            w0 = random_initial_weights(8, count)
            gains["RA"].append(solve_ra(
                sc, PAT, geo, BeamformerState(w0, np.zeros(8)), cfg,
                seed=count).min_desired_gain)
            gains["FOA"].append(solve_foa(sc, PAT, geo, w0, cfg,
                                          seed=count).min_desired_gain)
            gains["IA"].append(solve_ia(sc, geo, w0, cfg,
                                        seed=count).min_desired_gain)
            count += 1
        mean_db = {k: np.mean(10 * np.log10(np.asarray(v))) for k, v in gains.items()}
        assert mean_db["RA"] >= mean_db["FOA"]
        assert mean_db["RA"] >= mean_db["IA"]


class TestNonoptimalSubproblems:
    def test_summed_over_outer_iterations(self, monkeypatch):
        # relabel every second subproblem as uncertified: each scheme must
        # report exactly that many, summed over all of its outer iterations
        solve = sca.solve_epigraph
        calls = []

        def flaky(problem, **kwargs):
            sol = solve(problem, **kwargs)
            calls.append(sol)
            return replace(sol, status="max_iterations") \
                if len(calls) % 2 == 0 else sol

        monkeypatch.setattr(sca, "solve_epigraph", flaky)
        sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
        w0 = random_initial_weights(15, 0)
        config = quick_config(particles=30, outer=3)
        runs = [lambda: solve_ra(sc, PAT, GEO15,
                                 BeamformerState(w0, np.zeros(15)), config),
                lambda: solve_foa(sc, PAT, GEO15, w0, config),
                lambda: solve_ia(sc, GEO15, w0, config)]
        spec = parse_scenario({"desired_angles_deg": [55.0, 60.0]})
        for run in runs:
            calls.clear()
            report = run()
            assert len(calls) >= 2
            assert report.nonoptimal_subproblems == len(calls) // 2
            # kept out of the report file, which stays byte-identical
            assert "nonoptimal_subproblems" not in report_to_dict(report, spec)


@pytest.mark.parametrize("outer", [3, 20])
@pytest.mark.parametrize("scheme", ["RA", "FOA", "IA"])
def test_outer_stop_rule(scheme, outer):
    # every scheme runs one outer loop: it goes on while a step raises the
    # true worst desired gain by at least delta_threshold and stops after
    # the first step that does not, or at the cap (here RA at outer=3)
    sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
    w0 = random_initial_weights(15, 1)
    config = quick_config(particles=30, outer=outer)
    run = {"RA": lambda: solve_ra(sc, PAT, GEO15,
                                  BeamformerState(w0, np.zeros(15)), config,
                                  seed=1),
           "FOA": lambda: solve_foa(sc, PAT, GEO15, w0, config),
           "IA": lambda: solve_ia(sc, GEO15, w0, config)}[scheme]
    report = run()
    steps = np.diff(report.objective_history)
    assert report.outer_iterations == len(report.objective_history) >= 2
    assert np.all(steps[:-1] >= config.delta_threshold)
    assert report.outer_iterations == outer \
        or steps[-1] < config.delta_threshold


@pytest.mark.parametrize("desired", [(55.0, 60.0), (60.0, 140.0)])
def test_ra_expands_every_subproblem_at_the_last_weights(desired, monkeypatch):
    # RA keeps the plain weight step: each subproblem's offsets are
    # |v_k^H w|^2 at the weights the previous subproblem returned (the
    # start for the first), with v_k at the rotations of its weight step
    solve, optimize = sca.solve_epigraph, ao.optimize_weights
    calls = []          # (offsets, returned weights, rotations)

    def recorded_solve(problem):
        sol = solve(problem)
        calls.append((problem.offsets.copy(), sol.weights, rotations[-1]))
        return sol

    rotations = []

    def recorded_step(state, *args, **kwargs):
        rotations.append(np.array(state.rotations_deg))
        return optimize(state, *args, **kwargs)

    monkeypatch.setattr(sca, "solve_epigraph", recorded_solve)
    monkeypatch.setattr(ao, "optimize_weights", recorded_step)
    sc = Scenario(desired, (20.0, 160.0), -10.0)
    w = random_initial_weights(15, 5)
    report = solve_ra(sc, PAT, GEO15, BeamformerState(w, np.zeros(15)),
                      quick_config(particles=30, outer=4), seed=5)
    assert len(rotations) == report.outer_iterations >= 2
    for offsets, weights, rot in calls:
        V = composite_response(PAT, GEO15, rot, sc.desired_angles_deg
                               + sc.interference_angles_deg)[:2]
        np.testing.assert_array_equal(offsets, np.abs(V.conj() @ w) ** 2)
        w = weights
    np.testing.assert_array_equal(report.final_state.weights, w)


@pytest.mark.parametrize("scheme", ["RA", "FOA", "IA"])
def test_run_report_counts_the_convex_solves(scheme, monkeypatch):
    solve = sca.solve_epigraph
    steps = []

    def counted(problem):
        sol = solve(problem)
        steps.append(sol.newton_steps)
        return sol

    monkeypatch.setattr(sca, "solve_epigraph", counted)
    sc = Scenario((60.0, 140.0), (20.0, 160.0), -10.0)
    w0 = random_initial_weights(15, 7)
    config = quick_config(particles=30, outer=5)
    report = {"RA": lambda: solve_ra(sc, PAT, GEO15,
                                     BeamformerState(w0, np.zeros(15)),
                                     config, seed=7),
              "FOA": lambda: solve_foa(sc, PAT, GEO15, w0, config),
              "IA": lambda: solve_ia(sc, GEO15, w0, config)}[scheme]()
    assert report.convex_calls == len(steps) >= report.outer_iterations
    assert report.newton_steps == sum(steps)
    # return values only: the report file keeps its keys
    spec = parse_scenario({"desired_angles_deg": [60.0, 140.0]})
    keys = report_to_dict(report, spec)
    assert "convex_calls" not in keys and "newton_steps" not in keys


# the module attributes that perfbench/layers.py replaces to time each layer
WRAP_POINTS = [(experiments, "solve_ra"), (experiments, "solve_foa"),
               (experiments, "solve_ia"), (ao, "optimize_weights"),
               (ao, "optimize_rotations"), (pso, "step"),
               (sca, "solve_epigraph"), (sca, "composite_response")]


def test_every_layer_is_called_through_its_wrap_point(monkeypatch):
    # a call that binds one of these functions some other way runs untimed
    # and drops its spans without any error
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in WRAP_POINTS:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    spec = ScenarioSpec([60.0, 140.0], [20.0, 160.0], num_antennas=4,
                        solver=AoConfig(pso=PsoConfig(num_particles=8,
                                                      max_iterations=3),
                                        max_outer_iterations=2))
    weight_step = {"optimize_weights", "solve_epigraph", "composite_response"}
    fired = {}
    for scheme in ("RA", "FOA", "IA"):
        counts.clear()
        run_single(spec, scheme, 1)
        fired[scheme] = set(counts)
    assert fired == {
        "RA": weight_step | {"solve_ra", "optimize_rotations", "step"},
        "FOA": weight_step | {"solve_foa"}, "IA": weight_step | {"solve_ia"}}
