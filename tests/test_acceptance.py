"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Rotations follow the ``array_model`` convention: theta is an offset
from broadside, an element's boresight points at 90 + theta degrees, and the
allowed range is symmetric about theta = 0 (+/- 102.774 degrees with the
default pattern).  Every element can therefore point straight at any
direction in [0, 180] degrees, including the 55/60-degree pair of
criterion 3, and the mirrored directions psi and 180 - psi are equally
reachable.
"""

import time

import numpy as np

from ra_beamkit.ao import AoConfig, solve_single_beam
from ra_beamkit.array_model import (ArrayGeometry, RadiationPattern, Scenario,
                                    array_gain, element_gain_dbi,
                                    full_array_gain, rotation_bounds,
                                    steering_vector)
from ra_beamkit.convex_core import EpigraphProblem, solve_epigraph
from ra_beamkit.experiments import run_single, run_sweep
from ra_beamkit.pso import PsoConfig, optimize_rotations
from ra_beamkit.sca import surrogate_gain
from ra_beamkit.scenario import ScenarioSpec

PAT = RadiationPattern()
GEO15 = ArrayGeometry(15)
FULL_15 = full_array_gain(PAT, GEO15)          # 15 * 10^0.8


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def spec_for(desired, interference, seeds, schemes=("RA",)):
    return ScenarioSpec(desired_angles_deg=list(desired),
                        interference_angles_deg=list(interference),
                        eta_max_db=-10.0, num_antennas=15,
                        schemes=tuple(schemes), seeds=tuple(range(seeds)))


def test_criterion_1_closed_form_full_gain():
    t0 = time.perf_counter()
    reps = 100
    for _ in range(reps):
        state = solve_single_beam(90.0, PAT, GEO15)
    per_call = (time.perf_counter() - t0) / reps
    gain = array_gain(state.weights, PAT, GEO15, state.rotations_deg, 90.0)
    rel_err = abs(gain - FULL_15) / FULL_15
    ok = report(1, rel_err <= 1e-9 and per_call < 1e-3,
                f"gain={gain:.9f}, rel_err={rel_err:.2e}, "
                f"runtime={per_call * 1e3:.3f} ms")
    assert ok


def test_criterion_2_ao_recovers_closed_form():
    t0 = time.perf_counter()
    spec = spec_for([90.0], [], seeds=5)
    reports = [run_single(spec, "RA", seed) for seed in spec.seeds]
    best = max(r.min_desired_gain for r in reports)
    elapsed = time.perf_counter() - t0
    within_iters = all(r.outer_iterations <= 50 for r in reports)
    ok = report(2, best >= 0.98 * FULL_15 and within_iters and elapsed < 120,
                f"best={best:.3f} ({best / FULL_15:.2%} of full), "
                f"elapsed={elapsed:.1f} s")
    assert ok


def test_criterion_3_two_close_beams():
    t0 = time.perf_counter()
    spec = spec_for([55.0, 60.0], [20.0, 160.0], seeds=20)
    reports = [run_single(spec, "RA", seed) for seed in spec.seeds]
    elapsed = time.perf_counter() - t0
    best = max(r.min_desired_gain for r in reports)
    feasible = all(r.max_interference_gain <= 0.1 + 1e-8 for r in reports)
    ok = report(3, best >= 0.70 * FULL_15 and feasible and elapsed < 900,
                f"best={best:.3f} ({best / FULL_15:.2%} of full, need 70%), "
                f"feasible={feasible}, elapsed={elapsed:.1f} s")
    assert feasible
    assert elapsed < 900
    assert best >= 0.70 * FULL_15


def test_criterion_4_two_far_beams():
    t0 = time.perf_counter()
    spec = spec_for([60.0, 140.0], [20.0, 160.0], seeds=20)
    reports = [run_single(spec, "RA", seed) for seed in spec.seeds]
    elapsed = time.perf_counter() - t0
    best = max(r.min_desired_gain for r in reports)
    feasible = all(r.max_interference_gain <= 0.1 + 1e-8 for r in reports)
    ok = report(4, best >= 0.20 * FULL_15 and feasible and elapsed < 900,
                f"best={best:.3f} ({best / FULL_15:.2%} of full, need 20%), "
                f"feasible={feasible}, elapsed={elapsed:.1f} s")
    assert ok


def test_criterion_5_scheme_ordering(tmp_path):
    t0 = time.perf_counter()
    base = ScenarioSpec(desired_angles_deg=[55.0, 60.0],
                        interference_angles_deg=[20.0, 160.0],
                        eta_max_db=-10.0, num_antennas=15,
                        seeds=tuple(range(5)))
    results = run_sweep(base, "num_antennas", [15], num_scenarios=30,
                        base_seed=0, output_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    means = results[15]
    gap_foa = means["RA"] - means["FOA"]
    gap_ia = means["RA"] - means["IA"]
    ok = report(5, gap_foa >= 4.0 and gap_ia >= 2.5 and elapsed < 3600,
                f"RA-FOA={gap_foa:.2f} dB (need 4), RA-IA={gap_ia:.2f} dB "
                f"(need 2.5), elapsed={elapsed:.1f} s")
    assert ok


def test_criterion_6a_surrogate_minorization_and_tightness():
    rng = np.random.default_rng(2026)
    worst_violation = 0.0
    worst_tightness = 0.0
    for _ in range(10_000):
        n = 5
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        w0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        true = abs(np.vdot(v, w)) ** 2
        scale = max(1.0, true)
        worst_violation = max(worst_violation,
                              (surrogate_gain(w, w0, v) - true) / scale)
        at_exp = abs(np.vdot(v, w0)) ** 2
        worst_tightness = max(worst_tightness,
                              abs(surrogate_gain(w0, w0, v) - at_exp)
                              / max(1.0, at_exp))
    ok = report("6a", worst_violation <= 1e-9 and worst_tightness <= 1e-9,
                f"max relative violation={worst_violation:.2e}, "
                f"max tightness error={worst_tightness:.2e}")
    assert ok


def test_criterion_6b_mrc_oracle():
    state = solve_single_beam(90.0, PAT, GEO15)
    mrc_gain = array_gain(state.weights, PAT, GEO15, state.rotations_deg, 90.0)
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(1000):
        w = rng.normal(size=15) + 1j * rng.normal(size=15)
        w /= np.linalg.norm(w)
        worst = max(worst, array_gain(w, PAT, GEO15, state.rotations_deg, 90.0)
                    - mrc_gain)
    ok = report("6b", worst <= 1e-9,
                f"max excess over matched-filter gain={worst:.2e}")
    assert ok


def test_criterion_6c_convex_solver_vs_sampling_oracle():
    rng = np.random.default_rng(404)
    worst_gap = -np.inf
    for trial in range(3):
        n = int(rng.integers(2, 4))
        K = int(rng.integers(1, 3))
        cs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(K)]
        bs = [float(rng.uniform(0.0, 1.0)) for _ in range(K)]
        vs = [rng.normal(size=n) + 1j * rng.normal(size=n)]
        problem = EpigraphProblem(cs, bs, vs, quad_cap=float(rng.uniform(0.3, 1.0)))
        sol = solve_epigraph(problem)
        best = -np.inf
        remaining = 1_000_000
        sampler = np.random.default_rng(trial)
        while remaining > 0:
            m = min(remaining, 250_000)
            W = sampler.normal(size=(m, n)) + 1j * sampler.normal(size=(m, n))
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            W *= sampler.random((m, 1)) ** (1.0 / (2 * n))
            keep = np.abs(W @ vs[0].conj()) ** 2 <= problem.quad_cap
            if keep.any():
                Wf = W[keep]
                obj = np.min([2 * np.real(Wf @ c.conj()) - b
                              for c, b in zip(cs, bs)], axis=0)
                best = max(best, float(obj.max()))
            remaining -= m
        worst_gap = max(worst_gap, best - sol.objective)
    ok = report("6c", worst_gap <= 1e-3,
                f"max (sampled best - solver objective)={worst_gap:.2e}")
    assert ok


def test_criterion_6d_ao_monotonicity():
    spec = ScenarioSpec(desired_angles_deg=[70.0, 115.0],
                        interference_angles_deg=[25.0], eta_max_db=-10.0,
                        num_antennas=8,
                        solver=AoConfig(pso=PsoConfig(num_particles=60),
                                        max_outer_iterations=12),
                        seeds=tuple(range(20)))
    worst = 0.0
    for seed in spec.seeds:
        rep = run_single(spec, "RA", seed)
        hist = np.asarray(rep.objective_history)
        if hist.size > 1:
            worst = min(worst, float(np.diff(hist).min()))
    ok = report("6d", worst >= -1e-6,
                f"min objective increment over 20 runs={worst:.2e}")
    assert ok


def test_criterion_6e_pso_bounds_and_reproducibility():
    geo = ArrayGeometry(10)
    sc = Scenario((65.0, 120.0), (30.0,), -10.0)
    bounds = rotation_bounds(PAT)
    rng = np.random.default_rng(12)
    w = rng.normal(size=10) + 1j * rng.normal(size=10)
    w /= np.linalg.norm(w) * 1.1
    cfg = PsoConfig(num_particles=80)
    r1, f1 = optimize_rotations(w, np.zeros(10), sc, PAT, geo, cfg, seed=99)
    r2, f2 = optimize_rotations(w, np.zeros(10), sc, PAT, geo, cfg, seed=99)
    in_bounds = bounds.contains(r1)
    identical = bool(np.array_equal(r1, r2) and f1 == f2)
    spec = spec_for([70.0, 110.0], [20.0], seeds=1)
    rep1 = run_single(spec, "RA", 0)
    rep2 = run_single(spec, "RA", 0)
    runs_identical = bool(
        np.array_equal(rep1.final_state.weights, rep2.final_state.weights)
        and np.array_equal(rep1.final_state.rotations_deg,
                           rep2.final_state.rotations_deg)
        and rep1.objective_history == rep2.objective_history)
    ok = report("6e", in_bounds and identical and runs_identical,
                f"in_bounds={in_bounds}, swarm bit-identical={identical}, "
                f"full runs bit-identical={runs_identical}")
    assert ok


def test_criterion_6f_pattern_symmetry_and_steering_norm():
    rng = np.random.default_rng(31415)
    worst_sym = 0.0
    worst_norm = 0.0
    for _ in range(500):
        x = rng.uniform(0.0, 180.0)
        worst_sym = max(worst_sym, abs(element_gain_dbi(PAT, 90.0 + x)
                                       - element_gain_dbi(PAT, 90.0 - x)))
        n = int(rng.integers(1, 40))
        psi = rng.uniform(0.0, 180.0)
        a = steering_vector(ArrayGeometry(n), psi)
        worst_norm = max(worst_norm, abs(np.linalg.norm(a) ** 2 - n) / n)
    ok = report("6f", worst_sym <= 1e-9 and worst_norm <= 1e-12,
                f"max symmetry error={worst_sym:.2e}, "
                f"max norm error={worst_norm:.2e}")
    assert ok
