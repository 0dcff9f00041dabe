"""Small dense convex solver for the epigraph beamforming subproblem.

Solves, over complex weights w and a scalar t:

    maximize   t
    s.t.       2 Re{c_k^H w} - b_k >= t      (affine lower bounds, k = 1..K)
               |v_l^H w|^2 <= quad_cap       (interference caps, l = 1..L)
               ||w||_2 <= 1                  (the unit ball)

The feasible set is never empty (w = 0 with t small enough always works), and
instances here are small (the schema caps K+L at 64; the paper's have 4), so a
log-barrier interior-point method with damped Newton steps is used (Boyd &
Vandenberghe 2004, section 11.3).

The problem sees w only through the K+L inner products c_k^H w, v_l^H w and
through ||w||.  A part of w outside the span of those vectors changes no inner
product and only uses up the norm ball, so every barrier centre lies in the
span.  The solver therefore takes Q, the r = min(N, K+L) orthonormal columns
of the reduced QR factor of [c_1 ... c_K, v_1 ... v_L], and runs the barrier
on w = Q y over the 2r+1 reals z = [Re y; Im y; t].  Q contains the span even
when the vectors are dependent, so no rank threshold is needed.  Past that one
QR the cost of a solve does not depend on N.

Every constraint has one lifted slack form s_i = zh^T S_i zh over zh = [z; 1],
built once per solve.  Affine rows keep half their gradient in the last row and
column of S_i; caps and the ball keep minus their curvature P_i (the real form
of v_l v_l^H in the basis, the identity on the y block).  One product S zh gives
every slack (one dot with zh) and every row of J = 2 (S_i zh)[:-1]/s_i, and the
Hessian J^T J + sum 2 P_i/s_i is one weighted sum.

Each solve starts at y = 0, the centre of the ball and strictly inside every
cap.  The centre at each mu is unique, so the start moves only the path; a
previous SCA optimum lies next to the active caps and costs more steps.

At a centring parameter mu the barrier bound gives optimum - t <= m/mu, with m
the constraint count.  The mu schedule grows by a fixed factor and ends exactly
at mu_final = m/gap, so the certified gap is the target, not an overshoot of
it.  The target is the problem's gap, GAP_TARGET (1e-6) unless the caller
asks for a looser one, up to offsets of size 1e3, and grows with them past
that, gap * max(1, max_k |b_k| / 1e3): the objective has the size of the
offsets, and float64 cannot resolve an absolute 1e-6 at |t| of a few
thousand.  The solution returns that scaled target as its gap.  mu_final
carries a 1% margin: at an inexact centre the dual point recovered from the
returned (w, t) certifies slightly more than m/mu (under 4e-6 relative once
its multipliers make w stationary).

Only the final stage carries the certificate, so only it is centred tightly.
The schedule is a long-step one (Boyd & Vandenberghe 2004, sections
11.3-11.5): every earlier stage ends once the Newton decrement is at most
sqrt(2), far from its centre, and the next stage's damped steps absorb the
difference.  On paper-pair subproblems that takes about a fifth fewer Newton
steps per solve than centring every stage tightly, with the same optima.  A
looser end (decrement up to sqrt(6)) left some stages so far off the path that
the next one drove the ball's slack 1 - ||y||^2 to 1e-10, below what its
float64 sum resolves, and stalled there uncertified.

The barrier -mu*t - sum log(slack) is self-concordant, so the damped Newton
step z += step/(1 + lambda), with lambda the Newton decrement, needs no line
search (Nesterov & Nemirovski 1994; Boyd & Vandenberghe 2004, section 9.6).
It stays inside the Dikin ellipsoid, so every slack keeps at least the
fraction 1/(1 + lambda) of itself, and it lowers the barrier by at least
lambda - log(1 + lambda).  Once lambda is at most 1/4 the full step is taken,
which converges quadratically there.  No barrier value is ever evaluated, so
the rounding of values of size mu*|t| ~ 1e9 never enters a decision.  In
exact arithmetic no step leaves the domain; each stage checks the slacks that
its last Newton iterate evaluated, and a point outside ends the solve
uncertified at the last centre inside.

At d = 2r+1 <= 2(K+L)+1 a Newton step is a few dozen tiny products, so its
cost is numpy's per-call overhead, and three things keep that down.  Each
solve allocates the buffers of a step once (``_Barrier``) and every product
writes into them.  Every product and reduction of a step is an ndarray method
(``a.dot(b, out)``, ``s.min()``) and every ufunc gets its output by position:
the method runs the same C routine as ``np.dot(a, b, out=out)``, to the bit,
without the array-function dispatcher and keyword parsing of the module
function.  The Newton system goes straight to ``solve1``, the LAPACK gufunc
behind ``np.linalg.solve``, without the wrapper's checks and error context;
LAPACK reports a singular Hessian by NaNs and the invalid flag, which each
solve ignores once, and the NaN decrement retries the step on a slightly
raised diagonal.  The QR of the basis calls its gufuncs the same way.

No solve reads the feasibility residual of the point it returns, so
``ConvexSolution`` computes it from its problem when it is read.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

GAP_TARGET = 1e-6            # optimality gap certified up to offsets of 1e3
_GAP_SCALE = 1e3             # past it the gap grows as max_k |b_k| / _GAP_SCALE
_NEWTON_TOL = 1e-11          # squared Newton decrement / 2, final stage
_STAGE_TOL = 1.0             # the same, stages before the final one
_MAX_NEWTON_PER_STAGE = 80
_MU_FACTOR = 50.0
_GAP_MARGIN = 1.01           # mu_final = margin * m / gap
_FULL_STEP = 0.25 ** 2       # squared decrement taken as a full step

# the gufuncs behind np.linalg.solve and np.linalg.qr, whose checks and error
# context take about two thirds of a call at these sizes; _Barrier.center
# handles a singular H
_solve = _umath_linalg.solve1
_qr_r_raw, _qr_reduced = _umath_linalg.qr_r_raw, _umath_linalg.qr_reduced


@dataclass
class EpigraphProblem:
    linear_terms: np.ndarray  # (K, N) complex, rows c_k; lists are accepted
    offsets: np.ndarray       # (K,) reals b_k
    quad_vectors: np.ndarray  # (L, N) complex, rows v_l
    quad_cap: float
    gap: float = GAP_TARGET   # certified up to offsets of 1e3, scaled past

    def __post_init__(self):
        try:
            C = np.asarray(self.linear_terms, dtype=complex)
            V = np.asarray(self.quad_vectors, dtype=complex)
        except ValueError as exc:       # ragged lists of vectors
            raise ValueError("all problem vectors must share one length") from exc
        if len(C) < 1:
            raise ValueError("at least one linear term is required")
        if C.ndim != 2:
            raise ValueError("linear_terms must be a (K, N) array of vectors")
        if V.size == 0:
            V = V.reshape(0, C.shape[1])
        if V.ndim != 2 or V.shape[1] != C.shape[1]:
            raise ValueError("all problem vectors must share one length")
        self.linear_terms, self.quad_vectors = C, V
        self.offsets = np.asarray(self.offsets, dtype=float)
        if self.offsets.shape != (len(C),):
            raise ValueError("offsets and linear_terms lengths differ")
        if not self.quad_cap > 0:
            raise ValueError("quad_cap must be > 0")
        if not self.gap > 0:
            raise ValueError("gap must be > 0")

    @property
    def dim(self) -> int:
        return self.linear_terms.shape[1]


@dataclass
class ConvexSolution:
    """A solve's point, counts and certified gap.  ``feasibility_residual``
    is computed from ``problem`` when read, which only checks do."""

    weights: np.ndarray
    objective: float
    status: str               # "optimal" | "max_iterations"
    newton_steps: int         # Newton systems solved, over every stage
    stages: int               # mu stages centred, the last one included
    gap: float                # the certified gap, scaled with the offsets
    problem: EpigraphProblem = field(repr=False)

    @property
    def feasibility_residual(self) -> float:
        """Worst constraint violation of (weights, objective); 0 inside."""
        return _residual(self.problem, self.weights, self.objective)


def solve_epigraph(problem: EpigraphProblem) -> ConvexSolution:
    """Solve the epigraph subproblem to the accuracy
    ``problem.gap * max(1, max_k |b_k| / 1e3)``, returned as ``gap``.

    The returned weights are strictly feasible and the objective is a
    certified lower bound on the optimum within that gap: ``problem.gap``
    (``GAP_TARGET`` unless the caller asks for another), absolute, for
    offsets up to 1e3, and relative to the largest offset past that.
    """
    C, V, b = problem.linear_terms, problem.quad_vectors, problem.offsets
    A = np.concatenate([C, V]).T                         # factored in place
    Q = _qr_reduced(A, _qr_r_raw(A, signature="D->D"), signature="DD->D")
    S = _slack_form(C @ (Qc := Q.conj()), V @ Qc, problem)

    r = Q.shape[1]
    zh = np.zeros(2 * r + 2)                             # y = 0, then t, 1
    size = np.abs(b).max()
    zh[-2:] = -b.max() - max(1.0, 0.05 * (size + 1.0)), 1.0

    barrier = _Barrier(S)
    gap = problem.gap * max(1.0, size / _GAP_SCALE)
    mu_final = _GAP_MARGIN * len(S) / gap
    centre = zh.copy()                      # the last centre in the domain
    mu, status, stages = 1.0, "max_iterations", 0
    with np.errstate(invalid="ignore"):     # LAPACK's singular signal
        while True:
            stages += 1
            centred = barrier.center(
                zh, mu, _NEWTON_TOL if mu == mu_final else _STAGE_TOL)
            if not barrier.s.min() > 0.0:   # a NaN slack fails too
                zh[:] = centre
                break
            if not centred:
                break
            if mu == mu_final:
                status = "optimal"
                break
            centre[:] = zh
            mu = min(mu * _MU_FACTOR, mu_final)

    w = Q @ (zh[:r] + 1j * zh[r:-2])
    t = float(zh[-2])
    return ConvexSolution(weights=w, objective=t, status=status,
                          newton_steps=barrier.newton_steps, stages=stages,
                          gap=gap, problem=problem)


def _slack_form(C_r, V_r, problem):
    """S with slack_i = zh^T S_i zh over zh = [Re y; Im y; t; 1]: K affine
    rows, then L caps, then the ball, for the rows C_r, V_r in the basis."""
    K, r = C_r.shape
    L, d = len(V_r), 2 * r + 1
    S = np.zeros((K + L + 1, d + 1, d + 1))
    edge = S[:, d]                              # the last row of every S_i
    # the rows c_k, then v_l and i v_l per cap, as reals [Re, Im]
    X = np.concatenate([C_r, np.concatenate([V_r, 1j * V_r], axis=1)
                        .reshape(2 * L, r)])
    X = np.concatenate([X.real, X.imag], axis=1)
    # 2 Re{c^H y} - t - b, with Re{c^H y} = [Re c, Im c] . [Re y; Im y]
    edge[:K, :-2] = X[:K]
    edge[:K, -2] = -0.5
    S[:K, :d, d] = edge[:K, :d]
    np.negative(problem.offsets, out=edge[:K, d])
    # eta - |v^H y|^2 = eta - ||R x||^2, rows R = [Re v, Im v], [Re iv, Im iv]
    R = X[K:].reshape(L, 2, 2 * r)
    np.negative(R.transpose(0, 2, 1) @ R, out=S[K:-1, :-2, :-2])
    edge[K:-1, d] = problem.quad_cap
    # 1 - ||y||^2: minus the identity, with -0.0 off the diagonal
    S[-1, :-2, :-2] = -0.0
    S[-1].reshape(-1)[:(d - 1) * (d + 2):d + 2] = -1.0
    edge[-1, d] = 1.0
    return S


class _Barrier:
    """The Newton steps of one solve, over buffers allocated once for it.

    Every product of a step writes into its buffer (an ndarray method or a
    ufunc with its output by position), so a step allocates only its Newton
    direction.
    ``newton_steps`` counts the Newton systems solved over every stage.
    """

    def __init__(self, S):
        m, d = len(S), S.shape[1] - 1
        self.S_rows = S.reshape(m * (d + 1), d + 1)
        self.P_flat = -S[:, :-1, :-1].reshape(m, d * d)   # slack curvatures
        self.Sz, self.s, self.w2 = np.empty((m, d + 1)), np.empty(m), np.empty(m)
        self.J, self.g = np.empty((m, d)), np.empty(d)
        self.H, self.curvature = np.empty((d, d)), np.empty(d * d)
        self.newton_steps = 0

    def center(self, zh, mu, tol) -> bool:
        """Damped Newton minimisation of -mu*t - sum log(slack) at ``mu``
        until the squared Newton decrement is at most 2*tol, updating ``zh``
        in place.

        A step whose squared decrement lambda^2 passes ``_FULL_STEP`` moves
        by step/(1 + lambda); smaller ones take the full step.  Returns
        False when the stage runs out of steps or the decrement is negative
        or NaN, both at the float64 floor.  On return ``s`` holds the slacks
        at the ``zh`` left, unchecked: an exit on the decrement takes no step
        after evaluating them, and a stage out of steps evaluates them once
        more.  A singular Hessian makes LAPACK return NaNs (and raise the
        invalid flag, which the caller ignores); the NaN decrement then
        retries the step once on a slightly raised diagonal.
        """
        # a.dot(b, out): @ costs about 1 us more a product at these sizes,
        # np.dot(a, b, out=out) the dispatcher; ufunc outputs go by position
        S_rows, P_flat = self.S_rows, self.P_flat
        Sz, s, w2, J, g, H = self.Sz, self.s, self.w2, self.J, self.g, self.H
        d, z = len(g), zh[:-1]
        Sz_flat, grad, w2_col = Sz.reshape(-1), Sz[:, :-1], w2[:, None]
        curvature, JT = self.curvature, J.T
        curvature_dd = curvature.reshape(d, d)
        divide, multiply, solve = np.divide, np.multiply, _solve
        for _ in range(_MAX_NEWTON_PER_STAGE):
            self.newton_steps += 1
            S_rows.dot(zh, Sz_flat)
            Sz.dot(zh, s)
            divide(2.0, s, w2)
            multiply(grad, w2_col, J)           # rows: gradients of log(slack)
            w2.dot(grad, g)                     # minus the barrier gradient
            g[-1] += mu
            JT.dot(J, H)
            w2.dot(P_flat, curvature)
            H += curvature_dd
            step = solve(H, g, signature="dd->d")
            decrement = g.dot(step)
            if decrement != decrement:
                H[np.arange(d), np.arange(d)] += \
                    1e-12 * max(1.0, H.trace() / d)
                step = solve(H, g, signature="dd->d")
                decrement = g.dot(step)
            if not decrement / 2.0 > tol:   # a NaN or negative one is no centre
                return decrement >= 0.0
            if decrement > _FULL_STEP:
                step /= 1.0 + math.sqrt(decrement)
            z += step
        S_rows.dot(zh, Sz_flat)
        Sz.dot(zh, s)
        return False


def _residual(problem: EpigraphProblem, w: np.ndarray, t: float) -> float:
    """Worst constraint violation of (w, t); zero for interior points."""
    viol = np.concatenate([
        [np.linalg.norm(w) - 1.0],
        np.abs(problem.quad_vectors.conj() @ w) ** 2 - problem.quad_cap,
        t - (2.0 * (problem.linear_terms.conj() @ w).real - problem.offsets)])
    return float(max(0.0, viol.max()))
