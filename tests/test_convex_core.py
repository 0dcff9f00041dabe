import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ra_beamkit import convex_core, pso, sca
from ra_beamkit.ao import (AoConfig, random_initial_weights, solve_foa,
                           solve_ia)
from ra_beamkit.array_model import (ArrayGeometry, BeamformerState,
                                    RadiationPattern, Scenario,
                                    composite_response, steering_vector)
from ra_beamkit.convex_core import EpigraphProblem, solve_epigraph

# Frozen random instance (N=3, K=2, L=1) with its 10^6-point Monte Carlo
# reference, computed once with seed 555 (uniform draws in the unit ball,
# filtered to the interference cap).
FROZEN_C1 = np.array([-0.4921178761278439 + 1.007658074547165j,
                      -1.2409838874613655 - 1.5157672701297613j,
                      -1.1069725909459165 - 0.021455670779537105j])
FROZEN_C2 = np.array([0.7593361639355336 - 1.6030285969365592j,
                      -0.6448401734059829 + 1.0538807246408959j,
                      1.2711098901666709 - 0.6090316553374876j])
FROZEN_V1 = np.array([-0.7902879667712 + 0.9059630112282674j,
                      0.7657192944733938 - 0.18061316751390907j,
                      -1.0344574401126125 - 0.0679987708692784j])
FROZEN_MC_BEST = 1.2800919508077362


def sample_best_feasible(problem, count, seed):
    """Monte Carlo lower bound: best objective over random feasible points."""
    rng = np.random.default_rng(seed)
    n = problem.dim
    best = -np.inf
    remaining = count
    while remaining > 0:
        m = min(remaining, 200_000)
        W = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        W *= rng.random((m, 1)) ** (1.0 / (2 * n))
        ok = np.ones(m, dtype=bool)
        for v in problem.quad_vectors:
            ok &= np.abs(W @ v.conj()) ** 2 <= problem.quad_cap
        if ok.any():
            Wf = W[ok]
            obj = np.min([2 * np.real(Wf @ c.conj()) - b
                          for c, b in zip(problem.linear_terms, problem.offsets)],
                         axis=0)
            best = max(best, float(obj.max()))
        remaining -= m
    return best


def certified_gap(problem, sol):
    """Lagrange-dual gap of the returned (w, t), recovered from them alone.

    The dual value g at any affine multipliers lam >= 0 summing to one, cap
    multipliers u >= 0 and a ball multiplier nu > 0 bounds the optimum from
    above, so g - t bounds how far the returned objective can be below the
    optimum.  At a barrier centre every multiplier is 1/(mu*slack), and the
    t row of the centring condition (lam sums to one) fixes mu.  At the
    inexact centre a solve returns, w is not quite stationary for those
    multipliers, and at a vertex (more active affine rows than w has real
    coordinates, as for N = 1 and K >= 3) that mismatch inflated g - t up to
    28-fold.  So a second dual point rescales the multipliers by the least
    change that makes w stationary, sum lam_k c_k = (sum u_l v_l v_l^H +
    nu I) w, and the smaller of the two bounds is returned.
    """
    w, t = sol.weights, sol.objective
    C = np.array(problem.linear_terms)
    b = np.array(problem.offsets)
    V = np.array(problem.quad_vectors).reshape(-1, problem.dim)
    lin = 2 * np.real(C.conj() @ w) - b - t
    s = problem.quad_cap - np.abs(V.conj() @ w) ** 2
    ball = 1.0 - np.vdot(w, w).real
    mu = np.sum(1 / lin)
    x = np.concatenate([1 / lin, 1 / s, [1 / ball]]) / mu     # lam, u, nu
    K = len(C)

    def gap(x):
        lam, u, nu = x[:K], x[K:-1], x[-1]
        c = lam @ C
        M = (V.T * u) @ V.conj() + nu * np.eye(problem.dim)
        return np.vdot(c, np.linalg.solve(M, c)).real - lam @ b \
            + problem.quad_cap * u.sum() + nu - t

    # stationarity is linear in the multipliers: x @ G = 0
    G = np.concatenate([C, -(V.conj() @ w)[:, None] * V, -w[None, :]])
    A = np.vstack([G.real.T, G.imag.T, np.r_[np.ones(K), np.zeros(len(V) + 1)]])
    residual = x @ G
    scale = np.linalg.lstsq(A * x, -np.r_[residual.real, residual.imag, 0.0],
                            rcond=None)[0]
    moved = x * (1 + scale)
    moved[:K] /= moved[:K].sum()            # exactly, where lstsq is not
    return min(gap(x), gap(moved)) if np.all(moved > 0) else gap(x)


def weight_step_problem(n, K, L, seed):
    """A weight-step subproblem at random directions, rotations and start."""
    rng = np.random.default_rng(seed)
    geo = ArrayGeometry(n)
    rot = rng.uniform(-60.0, 60.0, n)
    angles = rng.choice(np.arange(10.0, 175.0, 5.0), K + L, replace=False)
    vs = [composite_response(RadiationPattern(), geo, rot, a) for a in angles]
    w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
    problem = EpigraphProblem([v * np.vdot(v, w0) for v in vs[:K]],
                              [abs(np.vdot(v, w0)) ** 2 for v in vs[:K]],
                              vs[K:], quad_cap=0.1)
    return problem


def test_single_term_recovers_mrc_gain():
    # surrogate built at the matched-filter weights must reproduce their gain
    pat = RadiationPattern()
    geo = ArrayGeometry(8)
    rot = np.zeros(8)
    v = composite_response(pat, geo, rot, 90.0)
    w_mrc = steering_vector(geo, 90.0) / np.sqrt(8)
    c = v * np.vdot(v, w_mrc)
    b = abs(np.vdot(v, w_mrc)) ** 2
    sol = solve_epigraph(EpigraphProblem([c], [b], [], quad_cap=0.1))
    gain = abs(np.vdot(sol.weights, v)) ** 2
    assert sol.status == "optimal"
    assert gain == pytest.approx(b, abs=1e-6)


def test_orthogonal_interference_is_inactive():
    c = np.array([1.0 + 0j, 0.0])
    v = np.array([0.0, 1.0 + 0j])
    sol = solve_epigraph(EpigraphProblem([c], [0.0], [v], quad_cap=1e-4))
    # all weight goes along c: t* = 2*||c|| with the cap never engaged
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert abs(sol.weights[1]) < 1e-4


def test_cap_along_objective_direction():
    c = np.array([1.0 + 0j, 0.0])
    sol = solve_epigraph(EpigraphProblem([c], [0.5], [c.copy()], quad_cap=0.25))
    # |w_0| limited to 0.5 by the cap: t* = 2*0.5 - 0.5
    assert sol.objective == pytest.approx(0.5, abs=1e-6)


def test_frozen_instance_beats_monte_carlo_reference():
    problem = EpigraphProblem([FROZEN_C1, FROZEN_C2], [0.8, 0.2], [FROZEN_V1],
                              quad_cap=0.4)
    sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert sol.feasibility_residual <= 1e-8
    assert sol.objective >= FROZEN_MC_BEST - 1e-4


def test_objective_monotone_in_quad_cap():
    rng = np.random.default_rng(1)
    cs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2)]
    vs = [rng.normal(size=4) + 1j * rng.normal(size=4)]
    lo = solve_epigraph(EpigraphProblem(cs, [0.4, 0.1], vs, quad_cap=0.05))
    hi = solve_epigraph(EpigraphProblem(cs, [0.4, 0.1], vs, quad_cap=0.5))
    assert hi.objective >= lo.objective - 1e-6


def test_scale_consistency_interior_optimum():
    # opposing linear terms keep the optimum interior, so scaling c -> g*c and
    # b -> g^2*b scales the optimum by g^2
    c = np.array([0.7 + 0.2j, -0.4 + 0.1j])
    cs = [c, -c]
    bs = [0.3, 0.1]
    gamma = 0.5
    base = solve_epigraph(EpigraphProblem(cs, bs, [], quad_cap=1.0))
    scaled = solve_epigraph(EpigraphProblem(
        [gamma * ci for ci in cs], [gamma ** 2 * bi for bi in bs], [],
        quad_cap=1.0))
    assert np.linalg.norm(base.weights) < 0.99          # ball inactive
    assert scaled.objective == pytest.approx(gamma ** 2 * base.objective,
                                             abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_small_instances_match_sampling_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    K = int(rng.integers(1, 4))
    L = int(rng.integers(0, 3))
    cs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(K)]
    bs = [float(rng.uniform(0, 1)) for _ in range(K)]
    vs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(L)]
    problem = EpigraphProblem(cs, bs, vs, quad_cap=float(rng.uniform(0.2, 1.0)))
    sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert sol.feasibility_residual <= 1e-8
    mc = sample_best_feasible(problem, 200_000, seed + 1000)
    assert sol.objective >= mc - 1e-3


@pytest.mark.parametrize("n,K,L,seed", [(15, 2, 2, seed) for seed in range(6)]
                         + [(30, 5, 6, seed) for seed in range(3)])
def test_dual_certificate_weight_step(n, K, L, seed):
    # the only oracle that reaches dimension 30, where sampling cannot
    problem = weight_step_problem(n, K, L, seed)
    sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert certified_gap(problem, sol) <= 1e-6


def test_dual_certificate_frozen_instance():
    problem = EpigraphProblem([FROZEN_C1, FROZEN_C2], [0.8, 0.2], [FROZEN_V1],
                              quad_cap=0.4)
    assert certified_gap(problem, solve_epigraph(problem)) <= 1e-6


@pytest.mark.parametrize("theta", [0.0, 57.5 - 90.0])
def test_dual_certificate_sca_subproblems(monkeypatch, theta):
    # the close-pair weight step (N=15, K=2, L=2) from a fixed random start,
    # with every element at broadside and aimed between the two beams
    solved = []

    def recording(problem, **kwargs):
        sol = solve_epigraph(problem, **kwargs)
        solved.append((problem, sol))
        return sol

    monkeypatch.setattr(sca, "solve_epigraph", recording)
    geo = ArrayGeometry(15)
    sc = Scenario((55.0, 60.0), (20.0, 160.0), -10.0)
    rng = np.random.default_rng(0)
    w0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 15)) / np.sqrt(15)
    sca.optimize_weights(BeamformerState(w0, np.full(15, theta)), sc,
                         RadiationPattern(), geo, sca.ScaConfig())
    assert solved
    for problem, sol in solved:
        assert certified_gap(problem, sol) <= 1e-6


def test_input_validation():
    with pytest.raises(ValueError):
        EpigraphProblem([], [], [], quad_cap=0.1)
    with pytest.raises(ValueError):
        EpigraphProblem([np.ones(2)], [0.0], [], quad_cap=0.0)
    with pytest.raises(ValueError):
        EpigraphProblem([np.ones(2)], [0.0], [np.ones(3)], quad_cap=0.1)
    with pytest.raises(ValueError, match="linear_terms"):
        EpigraphProblem(np.ones(2), [0.0], [], quad_cap=0.1)
    with pytest.raises(ValueError, match="gap"):
        EpigraphProblem([np.ones(2)], [0.0], [], quad_cap=0.1, gap=0.0)


@pytest.mark.parametrize("extra,seed", [(1, 0), (5, 1), (17, 2)])
def test_unitary_embedding_keeps_the_answer(extra, seed):
    # the same problem written in N + extra dimensions, turned by a random
    # unitary: the solver works in the span of the vectors, so the answer
    # cannot depend on the dimension or the coordinates around it
    problem = weight_step_problem(15, 2, 2, seed)
    n = problem.dim + extra
    rng = np.random.default_rng(100 + seed)
    U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    def embed(rows):
        return np.pad(rows, ((0, 0), (0, extra))) @ U.T

    big = EpigraphProblem(embed(problem.linear_terms), problem.offsets,
                          embed(problem.quad_vectors), problem.quad_cap)
    base = solve_epigraph(problem)
    sol = solve_epigraph(big)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(base.objective, abs=1e-9)
    assert certified_gap(big, sol) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_rank_deficient_single_antenna(seed):
    # N = 1 with K = L = 2: four vectors in a one-dimensional space
    rng = np.random.default_rng(seed)
    cs = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    vs = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    problem = EpigraphProblem(cs, rng.uniform(0, 1, 2), vs,
                              quad_cap=float(rng.uniform(0.2, 1.0)))
    sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert sol.feasibility_residual <= 1e-8
    assert certified_gap(problem, sol) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_rank_deficient_cap_parallel_to_objective(seed):
    # a cap vector parallel to c_1 makes the K+L vectors dependent
    problem = weight_step_problem(15, 2, 2, seed)
    caps = problem.quad_vectors.copy()
    caps[0] = (0.3 - 0.7j) * problem.linear_terms[0]
    dependent = EpigraphProblem(problem.linear_terms, problem.offsets, caps,
                                quad_cap=problem.quad_cap)
    sol = solve_epigraph(dependent)
    assert sol.status == "optimal"
    assert sol.feasibility_residual <= 1e-8
    assert certified_gap(dependent, sol) <= 1e-6


@pytest.mark.parametrize("n,K,L,seed", [(15, 2, 2, 0), (30, 5, 6, 1), (4, 3, 2, 2)])
def test_weights_lie_in_the_span(n, K, L, seed):
    problem = weight_step_problem(n, K, L, seed)
    w = solve_epigraph(problem).weights
    Q = np.linalg.qr(np.concatenate([problem.linear_terms,
                                     problem.quad_vectors]).T)[0]
    assert np.linalg.norm(w - Q @ (Q.conj().T @ w)) <= 1e-12 * np.linalg.norm(w)


def test_problem_accepts_lists_and_arrays():
    problem = weight_step_problem(8, 2, 1, 0)
    as_lists = EpigraphProblem(list(problem.linear_terms),
                               list(problem.offsets),
                               list(problem.quad_vectors), problem.quad_cap)
    assert as_lists.linear_terms.shape == (2, 8)
    assert as_lists.quad_vectors.shape == (1, 8)
    no_caps = EpigraphProblem(problem.linear_terms, problem.offsets, [], 0.1)
    assert no_caps.quad_vectors.shape == (0, 8)
    with pytest.raises(ValueError):
        EpigraphProblem([np.ones(2), np.ones(3)], [0.0, 0.0], [], quad_cap=0.1)
    with pytest.raises(ValueError):
        EpigraphProblem([np.ones(2)], [0.0, 1.0], [], quad_cap=0.1)


def random_problem(n, K, L, log_cap, log_scale, parallel, seed):
    """Caps from 1e-6 to 10, offsets up to 1e3, and optionally a cap
    parallel to a linear term."""
    rng = np.random.default_rng(seed)
    cs = rng.normal(size=(K, n)) + 1j * rng.normal(size=(K, n))
    vs = rng.normal(size=(L, n)) + 1j * rng.normal(size=(L, n))
    if parallel and L:
        vs[0] = (0.3 - 0.7j) * cs[0]
    return EpigraphProblem(cs, rng.uniform(-1.0, 1.0, K) * 10 ** log_scale,
                           vs, quad_cap=10 ** log_cap)


random_problems = st.builds(
    random_problem, n=st.integers(1, 40), K=st.integers(1, 5),
    L=st.integers(0, 6), log_cap=st.floats(-6.0, 1.0),
    log_scale=st.floats(0.0, 3.0), parallel=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(problem=random_problems)
def test_random_problems_are_certified(problem):
    sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert sol.feasibility_residual == 0.0
    assert certified_gap(problem, sol) <= 1e-6


@settings(max_examples=80, deadline=None)
@given(problem=random_problems,
       gap=st.sampled_from([convex_core.GAP_TARGET, sca._LOOSE_GAP]))
def test_requested_gap_is_certified(problem, gap):
    problem = replace(problem, gap=gap)
    sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert sol.feasibility_residual == 0.0
    assert sol.gap == gap * max(1.0, np.abs(problem.offsets).max() / 1e3)
    assert certified_gap(problem, sol) <= sol.gap


def test_loose_gap_takes_fewer_newton_steps():
    # the same 20 subproblems at the weight step's loose gap and at the
    # default one: 18.25 against 36.45 Newton steps per solve
    problems = [weight_step_problem(15, 2, 2, seed) for seed in range(20)]
    loose = [solve_epigraph(replace(p, gap=sca._LOOSE_GAP)) for p in problems]
    tight = [solve_epigraph(p) for p in problems]
    assert all(p.gap == convex_core.GAP_TARGET for p in problems)
    assert all(s.gap == convex_core.GAP_TARGET for s in tight)
    assert sum(s.newton_steps for s in loose) <= \
        0.6 * sum(s.newton_steps for s in tight)


@settings(max_examples=40, deadline=None)
@given(problem=random_problems)
def test_damped_steps_alone_certify(problem):
    # no full steps at all: every step is damped by 1/(1 + lambda), which
    # still converges, only more slowly near the centre
    with mock.patch.object(convex_core, "_FULL_STEP", 0.0):
        sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert sol.feasibility_residual == 0.0
    assert certified_gap(problem, sol) <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_full_step_rule_is_exact(monkeypatch, seed):
    # full steps below the threshold only shorten the tail of each stage:
    # damping every step instead must reach the same certified optimum
    problem = weight_step_problem(15, 2, 2, seed)
    ruled = solve_epigraph(problem)
    monkeypatch.setattr(convex_core, "_FULL_STEP", 0.0)
    damped = solve_epigraph(problem)
    assert ruled.status == damped.status == "optimal"
    assert certified_gap(problem, ruled) <= 1e-6
    assert certified_gap(problem, damped) <= 1e-6
    assert abs(ruled.objective - damped.objective) <= 1e-6
    assert ruled.newton_steps <= damped.newton_steps


def far_pair_under_tiny_cap():
    """A far-pair weight step under a 1e-15 cap, which no solve certifies."""
    rotations = np.random.default_rng(5).uniform(-100, 100, 15)
    w = random_initial_weights(15, 5)
    V = composite_response(RadiationPattern(), ArrayGeometry(15), rotations,
                           [60.0, 140.0, 20.0, 160.0])
    inner = V[:2].conj() @ w
    return EpigraphProblem(V[:2] * inner[:, None], np.abs(inner) ** 2, V[2:],
                           quad_cap=1e-15)


def test_negative_decrement_is_not_certified():
    # rounding makes the first Newton decrement negative, which once ended
    # the stage as converged and certified the start point (w = 0) as
    # "optimal"
    sol = solve_epigraph(far_pair_under_tiny_cap())
    assert sol.status == "max_iterations"


def test_singular_hessian_retries_on_a_raised_diagonal(monkeypatch):
    # LAPACK reports a singular Hessian by NaNs and the invalid flag: the
    # step is solved again on a raised diagonal, the solve still certifies,
    # and the flag raises no RuntimeWarning
    real = convex_core._solve
    seen = []

    def singular_once(H, g, **kwargs):
        seen.append(H.copy())
        if len(seen) == 1:
            return real(np.zeros_like(H), g, **kwargs)
        return real(H, g, **kwargs)

    monkeypatch.setattr(convex_core, "_solve", singular_once)
    problem = weight_step_problem(15, 2, 2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_epigraph(problem)
    assert sol.status == "optimal"
    assert certified_gap(problem, sol) <= 1e-6
    assert len(seen) == sol.newton_steps + 1
    raised = seen[1] - seen[0]
    assert np.all(np.diag(raised) > 0)
    assert not np.any(raised - np.diag(np.diag(raised)))


@pytest.mark.parametrize("case", ["weight-step", "many-constraints",
                                  "uncertified"])
def test_newton_steps_count_the_lapack_solves(monkeypatch, case):
    problem = far_pair_under_tiny_cap() if case == "uncertified" else \
        weight_step_problem(*{"weight-step": (15, 2, 2, 0),
                              "many-constraints": (30, 5, 6, 1)}[case])
    real, solves = convex_core._solve, []

    def counting(H, g, **kwargs):
        solves.append(1)
        return real(H, g, **kwargs)

    monkeypatch.setattr(convex_core, "_solve", counting)
    sol = solve_epigraph(problem)
    assert sol.newton_steps == len(solves) > 0


@pytest.mark.parametrize("case", ["weight-step", "many-constraints",
                                  "uncertified"])
def test_stages_count_the_centring_calls(monkeypatch, case):
    # every stage but the last stops at the loose tolerance; an optimal
    # solve centres its last stage, and only that one, to _NEWTON_TOL
    problem = far_pair_under_tiny_cap() if case == "uncertified" else \
        weight_step_problem(*{"weight-step": (15, 2, 2, 0),
                              "many-constraints": (30, 5, 6, 1)}[case])
    real, tolerances = convex_core._Barrier.center, []

    def recording(self, zh, mu, tol):
        tolerances.append(tol)
        return real(self, zh, mu, tol)

    monkeypatch.setattr(convex_core._Barrier, "center", recording)
    sol = solve_epigraph(problem)
    assert sol.stages == len(tolerances) > 0
    if sol.status == "optimal":
        assert tolerances[-1] == convex_core._NEWTON_TOL
        assert tolerances[:-1] == [convex_core._STAGE_TOL] * (sol.stages - 1)


def test_loose_stages_cut_the_newton_steps():
    # centring the stages before the final one only to a squared decrement
    # of 2 * _STAGE_TOL: over these 20 subproblems the mean went from 46.45
    # Newton steps per solve (_STAGE_TOL = 1e-3) to 36.45 (1.0)
    steps = [solve_epigraph(weight_step_problem(15, 2, 2, seed)).newton_steps
             for seed in range(20)]
    assert np.mean(steps) <= 41.0


def foa_ia_solves(n, desired, interference, eta_db, max_gain_dbi, seed):
    """Every subproblem of one FOA and one IA solve from the same start,
    with its solution."""
    solved = []

    def recording(problem):
        sol = solve_epigraph(problem)
        solved.append((problem, sol))
        return sol

    scenario = Scenario(desired, interference, eta_db)
    w0 = random_initial_weights(n, seed)
    with mock.patch.object(sca, "solve_epigraph", recording):
        solve_foa(scenario, RadiationPattern(max_gain_dbi=max_gain_dbi),
                  ArrayGeometry(n), w0, AoConfig())
        solve_ia(scenario, ArrayGeometry(n), w0, AoConfig())
    return solved


# (n, desired, interference, eta_db, max_gain_dbi) of the stress families
FOA_IA_FAMILIES = {
    "far-pair": (15, (60.0, 140.0), (20.0, 160.0), -10.0, 8.0),
    "eight-beams": (64, (15.0, 30.0, 45.0, 60.0, 75.0, 90.0, 105.0, 120.0),
                    (10.0, 25.0, 40.0, 55.0, 70.0, 135.0, 150.0, 165.0),
                    -10.0, 8.0),
    "schema-floor": (15, (60.0, 140.0), (20.0, 160.0), -80.0, 8.0),
    "cap-by-a-beam": (20, (77.5, 80.0), (50.0, 75.5), -10.0, 8.0),
    "gain-ceiling": (256, (55.0, 60.0), (20.0, 160.0), -10.0, 20.0)}


@pytest.mark.parametrize("n,desired,interference,eta_db,max_gain_dbi",
                         FOA_IA_FAMILIES.values())
@pytest.mark.parametrize("seed", range(3))
def test_loose_stages_stay_certified(monkeypatch, n, desired, interference,
                                     eta_db, max_gain_dbi, seed):
    # a stage left too far from its centre sends the next one's damped steps
    # so close to a boundary (the ball's, beside a cap 2 deg from a beam)
    # that float64 no longer resolves the slack, and that stage stalls; no
    # stage may take half of _MAX_NEWTON_PER_STAGE
    real, stage_steps = convex_core._Barrier.center, []

    def recording(self, zh, mu, tol):
        before = self.newton_steps
        centred = real(self, zh, mu, tol)
        stage_steps.append(self.newton_steps - before)
        return centred

    monkeypatch.setattr(convex_core._Barrier, "center", recording)
    # each solve meets the gap it was asked for; every loose one is solved
    # again at GAP_TARGET, so the tight schedule keeps all of this coverage
    for problem, sol in foa_ia_solves(n, desired, interference, eta_db,
                                      max_gain_dbi, seed):
        assert sol.status == "optimal"
        assert certified_gap(problem, sol) <= sol.gap
        if problem.gap != convex_core.GAP_TARGET:
            tight = replace(problem, gap=convex_core.GAP_TARGET)
            sol = solve_epigraph(tight)
            assert sol.status == "optimal"
            assert certified_gap(tight, sol) <= sol.gap
    assert max(stage_steps) <= convex_core._MAX_NEWTON_PER_STAGE // 2


@pytest.mark.parametrize("stop", ["stage-out-of-steps"])
def test_stage_that_cannot_centre_is_not_certified(monkeypatch, stop):
    # a stage that runs out of Newton steps ends the solve at its last
    # feasible point, here after the first step of the first stage
    monkeypatch.setattr(convex_core, "_MAX_NEWTON_PER_STAGE", 1)
    sol = solve_epigraph(weight_step_problem(15, 2, 2, 0))
    assert sol.status == "max_iterations"
    assert sol.feasibility_residual == 0.0
    assert sol.newton_steps == 1


@pytest.mark.parametrize("exit_", ["decrement", "out-of-steps"])
def test_center_leaves_the_slacks_of_its_point(monkeypatch, exit_):
    # the stage's slack check reads _Barrier.s: after either exit it holds
    # the slacks at the zh that center returns, bit for bit
    if exit_ == "out-of-steps":
        monkeypatch.setattr(convex_core, "_MAX_NEWTON_PER_STAGE", 1)
    real, seen = convex_core._Barrier.center, []

    def recording(self, zh, mu, tol):
        centred = real(self, zh, mu, tol)
        fresh = np.dot(self.S_rows, zh).reshape(self.Sz.shape).dot(zh)
        seen.append((centred, self.s.tobytes() == fresh.tobytes()))
        return centred

    monkeypatch.setattr(convex_core._Barrier, "center", recording)
    sol = solve_epigraph(weight_step_problem(15, 2, 2, 0))
    assert all(same for _, same in seen)
    assert [centred for centred, _ in seen] == \
        ([True] * sol.stages if exit_ == "decrement" else [False])


def test_step_out_of_the_domain_ends_at_the_last_centre(monkeypatch):
    # from the second stage on every Newton step comes back 1e3 times too
    # long, far past the Dikin ellipsoid, so the damped step leaves the
    # domain; the stage's slack check then ends the solve uncertified at the
    # first stage's centre
    real_center, real_solve, centres = convex_core._Barrier.center, \
        convex_core._solve, []

    def recording(self, zh, mu, tol):
        centred = real_center(self, zh, mu, tol)
        centres.append(zh.copy())
        return centred

    def scaled(H, g, **kwargs):
        step = real_solve(H, g, **kwargs)
        return step * 1e3 if centres else step

    problem = weight_step_problem(15, 2, 2, 0)
    optimum = solve_epigraph(problem).objective
    monkeypatch.setattr(convex_core._Barrier, "center", recording)
    monkeypatch.setattr(convex_core, "_solve", scaled)
    sol = solve_epigraph(problem)
    assert sol.status == "max_iterations"
    assert sol.feasibility_residual == 0.0
    assert len(centres) == 2
    assert sol.objective == centres[0][-2]
    assert sol.objective < optimum - 1.0


def reference_slack_form(C_r, V_r, problem):
    """The slack form written term by term; the solver's builds the same
    bits with fewer numpy calls."""
    K, r = C_r.shape
    L, d = len(V_r), 2 * r + 1
    S = np.zeros((K + L + 1, d + 1, d + 1))
    S[:K, :d, d] = S[:K, d, :d] = np.concatenate(
        [C_r.real, C_r.imag, np.full((K, 1), -0.5)], axis=1)
    R = np.concatenate([V_r, 1j * V_r], axis=1).reshape(L, 2, r)
    R = np.concatenate([R.real, R.imag], axis=2)
    S[K:K + L, :-2, :-2] = -(R.transpose(0, 2, 1) @ R)
    S[-1, :-2, :-2] = -np.eye(d - 1)
    S[:, d, d] = np.concatenate([-problem.offsets,
                                 np.full(L, problem.quad_cap), [1.0]])
    return S


@pytest.mark.parametrize("seed", range(40))
def test_slack_form_keeps_the_reference_bits(seed):
    # every bit, zero signs included: a fifth of the parts are signed zeros
    rng = np.random.default_rng(seed)
    K, L, n = rng.integers(1, 6), rng.integers(0, 6), rng.integers(1, 20)
    r = min(n, K + L)
    C_r, V_r = (rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
                for m in (K, L))
    for part in (C_r.real, C_r.imag, V_r.real, V_r.imag):
        zero = rng.random(part.shape) < 0.2
        part[zero] = rng.choice([0.0, -0.0], zero.sum())
    problem = EpigraphProblem(np.ones((K, n)), rng.normal(size=K) * 1e3,
                              np.ones((L, n)), 0.1)
    assert convex_core._slack_form(C_r, V_r, problem).tobytes() == \
        reference_slack_form(C_r, V_r, problem).tobytes()


def reference_center(self, zh, mu, tol):
    """``_Barrier.center`` as np.dot(..., out=) calls with keyword ufunc
    outputs; the solver's runs the same C routines as ndarray methods."""
    S_rows, P_flat = self.S_rows, self.P_flat
    Sz, s, w2, J, g, H = self.Sz, self.s, self.w2, self.J, self.g, self.H
    d, z = len(g), zh[:-1]
    Sz_flat, grad, w2_col = Sz.reshape(-1), Sz[:, :-1], w2[:, None]
    curvature, JT = self.curvature, J.T
    curvature_dd = curvature.reshape(d, d)
    for _ in range(convex_core._MAX_NEWTON_PER_STAGE):
        self.newton_steps += 1
        np.dot(S_rows, zh, out=Sz_flat)
        np.dot(Sz, zh, out=s)
        np.divide(2.0, s, out=w2)
        np.multiply(grad, w2_col, out=J)
        np.dot(w2, grad, out=g)
        g[-1] += mu
        np.dot(JT, J, out=H)
        np.dot(w2, P_flat, out=curvature)
        H += curvature_dd
        step = convex_core._solve(H, g, signature="dd->d")
        decrement = g.dot(step)
        if decrement != decrement:
            H[np.arange(d), np.arange(d)] += \
                1e-12 * max(1.0, np.trace(H) / d)
            step = convex_core._solve(H, g, signature="dd->d")
            decrement = g.dot(step)
        if not decrement / 2.0 > tol:
            return decrement >= 0.0
        if decrement > convex_core._FULL_STEP:
            step /= 1.0 + math.sqrt(decrement)
        z += step
    np.dot(S_rows, zh, out=Sz_flat)
    np.dot(Sz, zh, out=s)
    return False


@pytest.mark.parametrize("family", ["weight-step", *FOA_IA_FAMILIES])
def test_newton_loop_keeps_the_reference_bits(monkeypatch, family):
    # every bit of the point and both counts, against the np.dot loop
    problems = [weight_step_problem(15, 2, 2, seed) for seed in range(20)] \
        if family == "weight-step" else \
        [problem for problem, _ in foa_ia_solves(*FOA_IA_FAMILIES[family], 0)]
    solved = [solve_epigraph(problem) for problem in problems]
    monkeypatch.setattr(convex_core._Barrier, "center", reference_center)
    assert problems
    for problem, sol in zip(problems, solved):
        ref = solve_epigraph(problem)
        assert sol.weights.tobytes() == ref.weights.tobytes()
        assert (sol.objective, sol.newton_steps, sol.stages) == \
            (ref.objective, ref.newton_steps, ref.stages)


def test_hot_paths_call_no_dispatched_numpy_wrapper(monkeypatch):
    # a solve and a swarm step call ndarray methods, never the module
    # functions that pass through numpy's array-function dispatcher
    problem = weight_step_problem(15, 2, 2, 0)
    pattern, geo, w = RadiationPattern(), ArrayGeometry(15), \
        random_initial_weights(15, 0)
    scenario = Scenario((60.0, 140.0), (20.0, 160.0), -10.0)
    config = pso.PsoConfig(num_particles=40)
    rng = np.random.Generator(np.random.Philox(0))
    swarm = pso.init_swarm(np.zeros(15), w, scenario, pattern, geo, config,
                           rng)

    def dispatched(*args, **kwargs):
        raise AssertionError("a dispatched numpy function ran")

    for name in ("dot", "clip", "argmax", "sum", "min"):
        monkeypatch.setattr(np, name, dispatched)
    assert solve_epigraph(problem).status == "optimal"
    moved = pso.step(swarm, 1, w, scenario, pattern, geo, config, rng)
    assert moved.global_best_fitness >= swarm.global_best_fitness

