"""Small dense convex solver for the epigraph beamforming subproblem.

Solves, over complex weights w and a scalar t:

    maximize   t
    s.t.       2 Re{c_k^H w} - b_k >= t      (affine lower bounds, k = 1..K)
               |v_l^H w|^2 <= quad_cap       (interference caps, l = 1..L)
               ||w||_2 <= 1                  (the unit ball)

The feasible set is never empty (w = 0 with t small enough always works), and
instances here are tiny (K+L up to ~16), so a log-barrier interior-point
method with damped Newton steps is used (Boyd & Vandenberghe 2004, section
11.3).

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
at mu_final = m/GAP_TARGET, so the certified gap is GAP_TARGET (1e-6), not an
overshoot of it.  mu_final carries a 1% margin: at an inexact centre the dual
point recovered from the returned (w, t) certifies slightly more than m/mu
(under 4e-6 relative once its multipliers make w stationary).  Only the final
stage is centred tightly; earlier stages stop at a loose Newton decrement.

Along a Newton step every slack is s_i (1 + alpha d1_i - alpha^2 d2_i).  Each
step first goes to a fraction of the distance to the boundary of the feasible
set (Nocedal & Wright 2006, section 19.2), the smallest positive root of those
polynomials.  The backtracking search then tests the change of the barrier
directly as a sum of log1p terms, never as the difference of two barrier
values.  Those values are of size mu*|t| ~ 1e9 at the last stage, so their
difference carries rounding larger than the decrease being tested.  The
barrier is self-concordant, so backtracking accepts the full step once the
Newton decrement is at most (1 - 2*armijo)/4 (Boyd & Vandenberghe 2004,
section 9.6.4); such steps skip the boundary root and the search.
"""

from dataclasses import dataclass

import numpy as np

GAP_TARGET = 1e-6            # absolute optimality gap every solve certifies
_NEWTON_TOL = 1e-11          # squared Newton decrement / 2, final stage
_STAGE_TOL = 1e-3            # the same, stages before the final one
_MAX_NEWTON_PER_STAGE = 80
_MU_FACTOR = 50.0
_GAP_MARGIN = 1.01           # mu_final = margin * m / GAP_TARGET
_TO_BOUNDARY = 0.99          # first trial step: this fraction of the way
_ARMIJO = 0.01
_MAX_HALVINGS = 60
_FULL_STEP = ((1.0 - 2.0 * _ARMIJO) / 4.0) ** 2    # squared decrement


@dataclass
class EpigraphProblem:
    linear_terms: np.ndarray  # (K, N) complex, rows c_k; lists are accepted
    offsets: np.ndarray       # (K,) reals b_k
    quad_vectors: np.ndarray  # (L, N) complex, rows v_l
    quad_cap: float

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

    @property
    def dim(self) -> int:
        return self.linear_terms.shape[1]


@dataclass
class ConvexSolution:
    weights: np.ndarray
    objective: float
    feasibility_residual: float
    status: str               # "optimal" | "max_iterations"


def solve_epigraph(problem: EpigraphProblem) -> ConvexSolution:
    """Solve the epigraph subproblem to the absolute accuracy ``GAP_TARGET``.

    The returned weights are strictly feasible and the objective is a
    certified lower bound on the optimum within ``GAP_TARGET``.
    """
    C, V, b = problem.linear_terms, problem.quad_vectors, problem.offsets
    Q = np.linalg.qr(np.concatenate([C, V]).T)[0]        # (N, r)
    S = _slack_form(C @ Q.conj(), V @ Q.conj(), problem)

    r = Q.shape[1]
    zh = np.zeros(2 * r + 2)                             # y = 0, then t, 1
    zh[-2:] = -b.max() - max(1.0, 0.05 * (np.abs(b).max() + 1.0)), 1.0

    mu_final = _GAP_MARGIN * len(S) / GAP_TARGET
    mu, status = 1.0, "max_iterations"
    while _center(zh, mu, _NEWTON_TOL if mu == mu_final else _STAGE_TOL, S):
        if mu == mu_final:
            status = "optimal"
            break
        mu = min(mu * _MU_FACTOR, mu_final)

    w = Q @ (zh[:r] + 1j * zh[r:-2])
    t = float(zh[-2])
    return ConvexSolution(weights=w, objective=t,
                          feasibility_residual=_residual(problem, w, t),
                          status=status)


def _slack_form(C_r, V_r, problem):
    """S with slack_i = zh^T S_i zh over zh = [Re y; Im y; t; 1]: K affine
    rows, then L caps, then the ball, for the rows C_r, V_r in the basis."""
    K, r = C_r.shape
    L, d = len(V_r), 2 * r + 1
    S = np.zeros((K + L + 1, d + 1, d + 1))
    # 2 Re{c^H y} - t - b, with Re{c^H y} = [Re c, Im c] . [Re y; Im y]
    S[:K, :d, d] = S[:K, d, :d] = np.concatenate(
        [C_r.real, C_r.imag, np.full((K, 1), -0.5)], axis=1)
    # eta - |v^H y|^2 = eta - ||R x||^2, rows R = [Re v, Im v], [Re iv, Im iv]
    R = np.concatenate([V_r, 1j * V_r], axis=1).reshape(L, 2, r)
    R = np.concatenate([R.real, R.imag], axis=2)
    S[K:K + L, :-2, :-2] = -(R.transpose(0, 2, 1) @ R)
    S[-1, :-2, :-2] = -np.eye(d - 1)                   # 1 - ||y||^2
    S[:, d, d] = np.concatenate([-problem.offsets, np.full(L, problem.quad_cap),
                                 [1.0]])
    return S


def _center(zh, mu, tol, S) -> bool:
    """Damped Newton minimisation of -mu*t - sum log(slack) at ``mu`` until
    the squared Newton decrement is at most 2*tol, updating ``zh`` in place.

    Returns False when the stage runs out of steps, no step decreases the
    barrier or the decrement is negative or NaN, all at the float64 floor.
    """
    # ndarray.dot, not @: at these sizes @ costs about 1 us more per product
    m, d, z = len(S), len(zh) - 1, zh[:-1]
    S_rows = S.reshape(m * (d + 1), d + 1)
    P = -S[:, :-1, :-1]                 # slack curvatures, contiguous
    P_flat, P_rows = P.reshape(m, d * d), P.reshape(m * d, d)
    for _ in range(_MAX_NEWTON_PER_STAGE):
        Sz = S_rows.dot(zh).reshape(m, d + 1)
        s = Sz.dot(zh)
        w2 = 2.0 / s
        J = Sz[:, :-1] * w2[:, None]    # rows: gradients of log(slack)
        g = w2.dot(Sz[:, :-1])          # minus the barrier gradient
        g[-1] += mu
        H = J.T.dot(J) + w2.dot(P_flat).reshape(d, d)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            H[np.arange(d), np.arange(d)] += 1e-12 * max(1.0, np.trace(H) / d)
            step = np.linalg.solve(H, g)
        decrement = g.dot(step)
        if not decrement / 2.0 > tol:   # a NaN or negative one is no centre
            return decrement >= 0.0
        if decrement <= _FULL_STEP:
            z += step
            continue
        # a negative d2 is rounding in the quadratic form of a PSD cap or ball
        d2 = np.maximum(P_rows.dot(step).reshape(m, d).dot(step) / s, 0.0)
        alpha = _line_search(J.dot(step), d2, step[-1], mu, -decrement)
        if alpha == 0.0:
            return False
        z += alpha * step
    return False


def _line_search(d1, d2, dt, mu, slope):
    """Backtracking from the fraction-to-boundary step.

    Along z + alpha*step each slack scales by 1 + alpha*d1 - alpha^2*d2, so
    the barrier change is an O(K+L) sum of log1p terms, exact to rounding
    however large mu*t is.
    """
    # 1/alpha at which each slack reaches zero (0 if it never does)
    reach = float((np.sqrt(d1 * d1 + 4.0 * d2) - d1).max()) / 2.0
    alpha = _TO_BOUNDARY / max(reach, _TO_BOUNDARY)
    for _ in range(_MAX_HALVINGS):
        change = -mu * alpha * dt - np.log1p(alpha * (d1 - alpha * d2)).sum()
        if change <= _ARMIJO * alpha * slope:
            return alpha
        alpha *= 0.5
    return 0.0


def _residual(problem: EpigraphProblem, w: np.ndarray, t: float) -> float:
    """Worst constraint violation of (w, t); zero for interior points."""
    viol = np.concatenate([
        [np.linalg.norm(w) - 1.0],
        np.abs(problem.quad_vectors.conj() @ w) ** 2 - problem.quad_cap,
        t - (2.0 * (problem.linear_terms.conj() @ w).real - problem.offsets)])
    return float(max(0.0, viol.max()))
