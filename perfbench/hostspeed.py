"""Host-speed calibration for the throughput metric.

On a shared machine the same round of work can take 1.4 s one minute and
2.1 s the next, while the program has not changed.  The benchmark therefore
times this fixed kernel between its rounds and reports throughput as it would
be on a host where the kernel takes ``REFERENCE_S``: each round's time is
scaled by ``REFERENCE_S / c``, where ``c`` is the mean of the kernel times
measured just before and just after the round.

The kernel is the benchmark's own code and uses only numpy, so a change to
the program cannot change it.  Its work is shaped like the convex core's:
small dense linear algebra (d = 31) and array assembly driven from a Python
loop, plus scalar Python arithmetic.
"""

import time

import numpy as np

REPS = 800
REFERENCE_S = 0.075     # the kernel's median time on the baseline machine


def _kernel(reps):
    rng = np.random.default_rng(12345)
    d = 31
    A = rng.standard_normal((8, d))
    R = rng.standard_normal((2, 2, d))
    x = np.zeros(d)
    acc = 0.0
    for _ in range(reps):
        lin = 1.0 + 0.1 * np.abs(A @ x)
        Rx = np.einsum("lij,j->li", R, x)
        F = np.vstack([np.hstack([A, -np.ones((8, 1))])[:, :d] / lin[:, None],
                       R.reshape(4, -1) * np.sqrt(2.0 / (1.0 + (Rx ** 2).sum()))])
        H = F.T @ F + np.eye(d)
        step = np.linalg.solve(H, -F.sum(axis=0))
        x = 0.5 * x + 0.01 * step / (1.0 + np.linalg.norm(step))
        for k in range(40):
            acc += (k * 0.5) % 3.0
    return acc


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    _kernel(REPS)
    return time.perf_counter() - t0
