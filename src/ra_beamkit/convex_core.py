"""Small dense convex solver for the epigraph beamforming subproblem.

Solves, over complex weights w and a scalar t:

    maximize   t
    s.t.       2 Re{c_k^H w} - b_k >= t      (affine lower bounds, k = 1..K)
               |v_l^H w|^2 <= quad_cap       (interference caps, l = 1..L)
               ||w||_2 <= ball_radius

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

Every constraint has one slack form, s_i = a_i + g_i^T z - z^T P_i z: P_i = 0
for the affine rows, the real form of v_l v_l^H (in the basis) for each cap
and the identity on the y block for the ball.  The barrier gradient is
-sum (g_i - 2 P_i z)/s_i - mu e_t and its Hessian J^T J + sum 2 P_i/s_i, with
J the rows (g_i - 2 P_i z)/s_i.

At a centring parameter mu the barrier bound gives optimum - t <= m/mu, with m
the constraint count.  The mu schedule grows by a fixed factor and ends exactly
at mu_final = m/gap_target, so the certified gap is the requested one, not an
overshoot of it.  mu_final carries a 1% margin: at an inexact centre the dual
point recovered from the returned (w, t) certifies slightly more than m/mu
(measured up to 4e-5 relative).  Only the final stage certifies the gap, so
only it is centred tightly; earlier stages stop at a loose Newton decrement.

Along a Newton step every slack is s_i (1 + alpha d1_i - alpha^2 d2_i).  Each
step first goes to a fraction of the distance to the boundary of the feasible
set (Nocedal & Wright 2006, section 19.2), the smallest positive root of those
polynomials.  The backtracking search then tests the change of the barrier
directly as a sum of log1p terms, never as the difference of two barrier
values.  Those values are of size mu*|t| ~ 1e9 at the last stage, so their
difference carries rounding larger than the decrease being tested.

A gap target below about 1e-8 asks for more than float64 can centre: such
solves may end with status "max_iterations".
"""

from dataclasses import dataclass

import numpy as np

_NEWTON_TOL = 1e-11          # squared Newton decrement / 2, final stage
_STAGE_TOL = 1e-3            # the same, stages before the final one
_MAX_NEWTON_PER_STAGE = 80
_MU_FACTOR = 50.0
_GAP_MARGIN = 1.01           # mu_final = margin * m / gap_target
_TO_BOUNDARY = 0.99          # first trial step: this fraction of the way
_ARMIJO = 0.01
_MAX_HALVINGS = 60


@dataclass
class EpigraphProblem:
    linear_terms: np.ndarray  # (K, N) complex, rows c_k; lists are accepted
    offsets: np.ndarray       # (K,) reals b_k
    quad_vectors: np.ndarray  # (L, N) complex, rows v_l
    quad_cap: float
    ball_radius: float = 1.0

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
        if not self.ball_radius > 0:
            raise ValueError("ball_radius must be > 0")

    @property
    def dim(self) -> int:
        return self.linear_terms.shape[1]


@dataclass
class ConvexSolution:
    weights: np.ndarray
    objective: float
    feasibility_residual: float
    status: str               # "optimal" | "max_iterations"


def _stack(u: np.ndarray) -> np.ndarray:
    return np.concatenate([u.real, u.imag], axis=-1)


def solve_epigraph(problem: EpigraphProblem, warm_start=None,
                   tolerance: float = 1e-6) -> ConvexSolution:
    """Solve the epigraph subproblem to the requested absolute accuracy.

    The returned weights are strictly feasible and the objective is a
    certified lower bound on the optimum within ``tolerance`` (and within
    1e-6, whichever is tighter).
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")
    C, V = problem.linear_terms, problem.quad_vectors
    Q = np.linalg.qr(np.concatenate([C, V]).T)[0]        # (N, r)
    C_r, V_r = C @ Q.conj(), V @ Q.conj()                # rows Q^H c_k, Q^H v_l

    y = _feasible_start(problem, warm_start, Q, V_r)
    margins = 2.0 * (C_r.conj() @ y).real - problem.offsets
    t = float(margins.min()) - max(1.0, 0.05 * (np.abs(margins).max() + 1.0))
    z = np.append(_stack(y), t)
    a, G, P = _slack_form(C_r, problem.offsets, V_r, problem.quad_cap,
                          problem.ball_radius ** 2)

    mu_final = _GAP_MARGIN * len(a) / min(tolerance, 1e-6)
    mu = 1.0
    status = "optimal"
    while True:
        if not _center(z, mu, _NEWTON_TOL if mu == mu_final else _STAGE_TOL,
                       a, G, P):
            status = "max_iterations"
            break
        if mu == mu_final:
            break
        mu = min(mu * _MU_FACTOR, mu_final)

    r = Q.shape[1]
    w = Q @ (z[:r] + 1j * z[r:-1])
    t = float(z[-1])
    return ConvexSolution(weights=w, objective=t,
                          feasibility_residual=_residual(problem, w, t),
                          status=status)


def _feasible_start(problem, warm_start, Q, V_r):
    """Strictly interior y, from the warm start projected on the basis and
    shrunk if needed."""
    if warm_start is None:
        return np.zeros(Q.shape[1], dtype=complex)
    w = np.asarray(warm_start, dtype=complex)
    if w.shape != (problem.dim,):
        raise ValueError("warm_start length does not match the problem")
    y = Q.conj().T @ w
    nrm = np.linalg.norm(y)
    if nrm > 0:
        y *= min(1.0, 0.999 * problem.ball_radius / nrm)
    if len(V_r):
        worst = (np.abs(V_r.conj() @ y) ** 2).max()
        if worst >= 0.999 * problem.quad_cap:
            y *= np.sqrt(0.999 * problem.quad_cap / worst)
    return y


def _slack_form(C_r, b, V_r, eta, r2):
    """(a, G, P) with slack_i = a_i + G_i z - z^T P_i z, over
    z = [Re y; Im y; t]: K affine rows, then L caps, then the ball."""
    K, r = C_r.shape
    L = len(V_r)
    a = np.concatenate([-b, np.full(L, eta), [r2]])
    G = np.zeros((K + L + 1, 2 * r + 1))
    G[:K, :-1] = 2.0 * _stack(C_r)             # 2 Re{c^H y} = G_k [Re y; Im y]
    G[:K, -1] = -1.0
    # |v^H y|^2 = ||R x||^2 with rows R = [Re v, Im v] and [-Im v, Re v]
    R = np.stack([_stack(V_r), _stack(1j * V_r)], axis=1)
    P = np.zeros((K + L + 1, 2 * r + 1, 2 * r + 1))
    P[K:K + L, :-1, :-1] = np.einsum("lki,lkj->lij", R, R)
    P[-1, :-1, :-1] = np.eye(2 * r)
    return a, G, P


def _center(z, mu, tol, a, G, P) -> bool:
    """Damped Newton minimisation of -mu*t - sum log(slack) at ``mu`` until
    the squared Newton decrement is at most 2*tol, updating ``z`` in place.

    Returns False when the stage runs out of steps or no step decreases the
    barrier, which only happens at the float64 floor.
    """
    d = len(z)
    P_flat = P.reshape(len(P), d * d)
    for _ in range(_MAX_NEWTON_PER_STAGE):
        Pz = P @ z
        s = a + G @ z - Pz @ z
        J = (G - 2.0 * Pz) / s[:, None]
        grad = -J.sum(axis=0)
        grad[-1] -= mu
        H = J.T @ J + ((2.0 / s) @ P_flat).reshape(d, d)
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            H[np.arange(d), np.arange(d)] += 1e-12 * max(1.0, np.trace(H) / d)
            step = np.linalg.solve(H, -grad)

        decrement = -grad @ step
        if decrement / 2.0 <= tol:
            return True
        # a negative d2 is rounding in the quadratic form of a PSD P_i
        d2 = np.maximum((P @ step) @ step / s, 0.0)
        alpha = _line_search(J @ step, d2, step[-1], mu, -decrement)
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
        [np.linalg.norm(w) - problem.ball_radius],
        np.abs(problem.quad_vectors.conj() @ w) ** 2 - problem.quad_cap,
        t - (2.0 * (problem.linear_terms.conj() @ w).real - problem.offsets)])
    return float(max(0.0, viol.max()))
