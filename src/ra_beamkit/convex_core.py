"""Small dense convex solver for the epigraph beamforming subproblem.

Solves, over complex weights w and a scalar t:

    maximize   t
    s.t.       2 Re{c_k^H w} - b_k >= t      (affine lower bounds, k = 1..K)
               |v_l^H w|^2 <= quad_cap       (interference caps, l = 1..L)
               ||w||_2 <= ball_radius

The feasible set is never empty (w = 0 with t small enough always works), and
instances here are tiny (N up to a few dozen, K+L up to ~16), so a log-barrier
interior-point method with damped Newton steps is used (Boyd & Vandenberghe
2004, section 11.3).  Complex variables are stacked into reals internally.

At a centring parameter mu the barrier bound gives optimum - t <= m/mu, with m
the constraint count.  The mu schedule grows by a fixed factor and ends exactly
at mu_final = m/gap_target, so the certified gap is the requested one, not an
overshoot of it.  mu_final carries a 1% margin: at an inexact centre the dual
point recovered from the returned (w, t) certifies slightly more than m/mu
(measured up to 4e-5 relative).  Only the final stage certifies the gap, so
only it is centred tightly; earlier stages stop at a loose Newton decrement.

Each Newton step first goes to a fraction of the distance to the boundary of
the feasible set (Nocedal & Wright 2006, section 19.2): closed form for the
affine rows and the positive root of a quadratic for each cap and the ball.
The backtracking search then tests the change of the barrier directly as a
sum of log1p terms, never as the difference of two barrier values.  Those
values are of size mu*|t| ~ 1e9 at the last stage, so their difference carries
rounding larger than the decrease being tested.

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
    linear_terms: list        # K complex vectors c_k
    offsets: list             # K reals b_k
    quad_vectors: list        # L complex vectors v_l
    quad_cap: float
    ball_radius: float = 1.0

    def __post_init__(self):
        self.linear_terms = [np.asarray(c, dtype=complex) for c in self.linear_terms]
        self.quad_vectors = [np.asarray(v, dtype=complex) for v in self.quad_vectors]
        self.offsets = [float(b) for b in self.offsets]
        if len(self.linear_terms) < 1:
            raise ValueError("at least one linear term is required")
        if len(self.offsets) != len(self.linear_terms):
            raise ValueError("offsets and linear_terms lengths differ")
        n = self.linear_terms[0].shape[0]
        for vec in self.linear_terms + self.quad_vectors:
            if vec.shape != (n,):
                raise ValueError("all problem vectors must share one length")
        if not self.quad_cap > 0:
            raise ValueError("quad_cap must be > 0")
        if not self.ball_radius > 0:
            raise ValueError("ball_radius must be > 0")

    @property
    def dim(self) -> int:
        return self.linear_terms[0].shape[0]


@dataclass
class ConvexSolution:
    weights: np.ndarray
    objective: float
    feasibility_residual: float
    status: str               # "optimal" | "max_iterations"


def _stack(w: np.ndarray) -> np.ndarray:
    return np.concatenate([w.real, w.imag])


def _unstack(x: np.ndarray) -> np.ndarray:
    n = x.shape[0] // 2
    return x[:n] + 1j * x[n:]


def _quad_rows(v: np.ndarray) -> np.ndarray:
    """Two orthogonal real rows r with |v^H w|^2 = ||r @ x||^2 for x = stack(w)."""
    return np.stack([np.concatenate([v.real, v.imag]),
                     np.concatenate([-v.imag, v.real])])


def solve_epigraph(problem: EpigraphProblem, warm_start=None,
                   tolerance: float = 1e-6) -> ConvexSolution:
    """Solve the epigraph subproblem to the requested absolute accuracy.

    The returned weights are strictly feasible and the objective is a
    certified lower bound on the optimum within ``tolerance`` (and within
    1e-6, whichever is tighter).
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")
    n = problem.dim
    K = len(problem.linear_terms)
    L = len(problem.quad_vectors)
    m = K + L + 1                       # constraint count incl. the norm ball

    A = np.array([2.0 * _stack(c) for c in problem.linear_terms])      # (K, 2n)
    b = np.asarray(problem.offsets)
    R = np.array([_quad_rows(v) for v in problem.quad_vectors]).reshape(
        2 * L, 2 * n)                   # rows 2l, 2l+1 belong to cap l

    x = _feasible_start(problem, warm_start, R)
    margins = A @ x - b
    t = float(margins.min()) - max(1.0, 0.05 * (np.abs(margins).max() + 1.0))
    z = np.append(x, t)                 # [Re w; Im w; t]

    barrier = _Barrier(np.hstack([A, -np.ones((K, 1))]), b, R,
                       problem.quad_cap, problem.ball_radius ** 2)
    mu_final = _GAP_MARGIN * m / min(tolerance, 1e-6)
    mu = 1.0
    status = "optimal"
    while True:
        if not barrier.center(z, mu, _NEWTON_TOL if mu == mu_final
                              else _STAGE_TOL):
            status = "max_iterations"
            break
        if mu == mu_final:
            break
        mu = min(mu * _MU_FACTOR, mu_final)

    w = _unstack(z[:-1])
    t = float(z[-1])
    residual = _residual(problem, w, t)
    return ConvexSolution(weights=w, objective=t,
                          feasibility_residual=residual, status=status)


def _feasible_start(problem, warm_start, R):
    """Strictly interior stacked point, shrinking the warm start if needed."""
    n = problem.dim
    if warm_start is None:
        return np.zeros(2 * n)
    w = np.asarray(warm_start, dtype=complex)
    if w.shape != (n,):
        raise ValueError("warm_start length does not match the problem")
    x = _stack(w)
    nrm = np.linalg.norm(x)
    if nrm > 0:
        x *= min(1.0, 0.999 * problem.ball_radius / nrm)
    if len(problem.quad_vectors):
        worst = ((R @ x) ** 2).reshape(-1, 2).sum(axis=1).max()
        if worst >= 0.999 * problem.quad_cap:
            x *= np.sqrt(0.999 * problem.quad_cap / worst)
    return x


class _Barrier:
    """The barrier -mu*t - sum log(slack) over z = [x; t], with the Newton
    matrices preallocated once per solve.

    Slacks: lin = G z - b (G = [A, -1]), quad_l = eta - ||R_l x||^2 and
    ball = r2 - ||x||^2.  The Hessian is F^T F plus (2/ball) I on the x
    block, where F has one row per affine constraint, a gradient row and two
    curvature rows per cap and a gradient row for the ball; the signed sum of
    F's rows is the barrier part of the gradient.
    """

    def __init__(self, G, b, R, eta, r2):
        self.G, self.b, self.R, self.eta, self.r2 = G, b, R, eta, r2
        K, d = G.shape
        L = R.shape[0] // 2
        self.K, self.L = K, L
        self.F = np.zeros((K + 3 * L + 1, d))
        self.H = np.empty((d, d))
        self.sign = np.concatenate([-np.ones(K), np.ones(L), np.zeros(2 * L),
                                    [1.0]])

    def center(self, z, mu, tol) -> bool:
        """Damped Newton minimisation at ``mu`` until the squared Newton
        decrement is at most 2*tol, updating ``z`` in place.

        Returns False when the stage runs out of steps or no step decreases
        the barrier, which only happens at the float64 floor.
        """
        K, L, F, H = self.K, self.L, self.F, self.H
        R3 = self.R.reshape(L, 2, self.R.shape[1])
        x = z[:-1]
        for _ in range(_MAX_NEWTON_PER_STAGE):
            lin = self.G @ z - self.b
            Rx = (self.R @ x).reshape(L, 2)
            quad = self.eta - np.einsum("li,li->l", Rx, Rx)
            ball = self.r2 - x @ x

            np.divide(self.G, lin[:, None], out=F[:K])
            F[K:K + L, :-1] = \
                2.0 * np.einsum("lij,li->lj", R3, Rx) / quad[:, None]
            F[K + L:-1, :-1] = \
                self.R * np.sqrt(2.0 / np.repeat(quad, 2))[:, None]
            F[-1, :-1] = (2.0 / ball) * x
            grad = self.sign @ F
            grad[-1] -= mu
            np.matmul(F.T, F, out=H)
            H.reshape(-1)[:-1:H.shape[0] + 1] += 2.0 / ball     # x block

            try:
                step = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:
                d = H.shape[0]
                H[np.arange(d), np.arange(d)] += \
                    1e-12 * max(1.0, np.trace(H) / d)
                step = np.linalg.solve(H, -grad)

            decrement = -grad @ step
            if decrement / 2.0 <= tol:
                return True
            alpha = self._line_search(x, lin, Rx, quad, ball, step, mu,
                                      -decrement)
            if alpha == 0.0:
                return False
            z += alpha * step
        return False

    def _line_search(self, x, lin, Rx, quad, ball, step, mu, slope):
        """Backtracking from the fraction-to-boundary step.

        Along z + alpha*step every slack is a polynomial in alpha: lin scales
        by 1 + alpha*dl and each quadratic slack s (caps, then the ball) by
        1 - alpha*qb - alpha^2*qa.  So the barrier change is an O(K+L) sum of
        log1p terms, exact to rounding however large mu*t is.
        """
        dx = step[:-1]
        dl = (self.G @ step) / lin
        Rdx = (self.R @ dx).reshape(self.L, 2)
        s = np.append(quad, ball)
        qa = np.append(np.einsum("li,li->l", Rdx, Rdx), dx @ dx) / s
        qb = 2.0 * np.append(np.einsum("li,li->l", Rx, Rdx), x @ dx) / s

        # 1/alpha at which each slack reaches zero (0 if it never does)
        reach = max(float((-dl).max()),
                    float((qb + np.sqrt(qb * qb + 4.0 * qa)).max()) / 2.0)
        alpha = _TO_BOUNDARY / max(reach, _TO_BOUNDARY)
        dt = step[-1]
        for _ in range(_MAX_HALVINGS):
            change = -mu * alpha * dt - np.log1p(alpha * dl).sum() \
                - np.log1p(-alpha * (qb + alpha * qa)).sum()
            if change <= _ARMIJO * alpha * slope:
                return alpha
            alpha *= 0.5
        return 0.0


def _residual(problem: EpigraphProblem, w: np.ndarray, t: float) -> float:
    """Worst constraint violation of (w, t); zero for interior points."""
    viol = [np.linalg.norm(w) - problem.ball_radius]
    for v in problem.quad_vectors:
        viol.append(abs(np.vdot(v, w)) ** 2 - problem.quad_cap)
    for c, b in zip(problem.linear_terms, problem.offsets):
        viol.append(t - (2.0 * np.real(np.vdot(c, w)) - b))
    return float(max(0.0, max(viol)))
