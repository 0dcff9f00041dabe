"""Correctness checks the benchmark applies to the program's outputs.

A failed check raises ``CheckFailure``; run.py counts the operation as
failed and the command exits nonzero.
"""

import numpy as np

from ra_beamkit import experiments
from ra_beamkit.ao import solve_single_beam
from ra_beamkit.array_model import (ArrayGeometry, RadiationPattern,
                                    array_gain, full_array_gain,
                                    rotation_bounds)

CAP_TOL = 1e-8
NORM_TOL = 1e-8
HISTORY_TOL = 1e-6
RESIDUAL_TOL = 1e-8
PATTERN_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-9


class CheckFailure(RuntimeError):
    """An output of the program is wrong."""


def check_report(report, spec):
    """Feasibility and monotonicity of one seeded solve."""
    eta = spec.scenario.eta_max_linear
    if report.max_interference_gain > eta + CAP_TOL:
        raise CheckFailure(f"{report.scheme}: interference gain "
                           f"{report.max_interference_gain!r} exceeds cap {eta!r}")
    norm = float(np.linalg.norm(report.final_state.weights))
    if norm > 1.0 + NORM_TOL:
        raise CheckFailure(f"{report.scheme}: weight norm {norm!r} > 1")
    if not rotation_bounds(spec.pattern).contains(report.final_state.rotations_deg):
        raise CheckFailure(f"{report.scheme}: rotations outside rotation_bounds")
    drops = np.diff(np.asarray(report.objective_history, dtype=float))
    if drops.size and drops.min() < -HISTORY_TOL:
        raise CheckFailure(f"{report.scheme}: objective_history decreases by "
                           f"{-drops.min()!r}")


def guard_run_single():
    """Wrap ``experiments.run_single`` so every solve is checked where it runs.

    Sweep cells call ``run_single`` inside pool workers; the workers are
    forked from this process and inherit the wrapper, and a failed check
    propagates out of ``run_sweep`` as an exception.  Returns an undo.
    """
    inner = experiments.run_single

    def run_single(spec, scheme, seed, entropy=()):
        report = inner(spec, scheme, seed, entropy)
        check_report(report, spec)
        return report

    experiments.run_single = run_single
    return lambda: setattr(experiments, "run_single", inner)


def check_closed_form():
    """solve_single_beam(90 deg) reaches the full array gain."""
    pattern, geometry = RadiationPattern(), ArrayGeometry(15, 0.5)
    state = solve_single_beam(90.0, pattern, geometry)
    gain = array_gain(state.weights, pattern, geometry, state.rotations_deg, 90.0)
    full = full_array_gain(pattern, geometry)
    if abs(gain - full) > CLOSED_FORM_RTOL * full:
        raise CheckFailure(f"closed form reaches {gain!r}, full gain is {full!r}")


def check_pattern_csv(path, step_deg, state, pattern, geometry, desired_deg):
    """Row count, and the gains at the desired angles against array_gain."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expected_rows = int(round(180.0 / step_deg)) + 1
    if len(lines) - 1 != expected_rows:
        raise CheckFailure(f"{path}: {len(lines) - 1} rows, expected "
                           f"{expected_rows}")
    for angle in desired_deg:
        psi, gain = (float(x) for x in
                     lines[1 + int(round(angle / step_deg))].split(",")[:2])
        ref = array_gain(state.weights, pattern, geometry,
                         state.rotations_deg, psi)
        if abs(gain - ref) > PATTERN_RTOL * abs(ref):
            raise CheckFailure(f"{path}: gain {gain!r} at {psi} deg, "
                               f"array_gain gives {ref!r}")


def check_sweep_csv(path, results, schemes):
    """sweep.csv holds the returned means, all finite."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    if len(rows) != len(results) * len(schemes):
        raise CheckFailure(f"{path}: {len(rows)} rows for {len(results)} values")
    for value, scheme, mean_db, _ in rows:
        got = float(mean_db)
        if not np.isfinite(got) or got != results[float(value)][scheme]:
            raise CheckFailure(f"{path}: {scheme} at {value} reads {mean_db}")


def check_residuals(residuals):
    worst = max(residuals, default=0.0)
    if worst > RESIDUAL_TOL:
        raise CheckFailure(f"solve_epigraph residual {worst!r} > {RESIDUAL_TOL}")
