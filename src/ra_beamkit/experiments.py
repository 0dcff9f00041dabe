"""Experiment orchestration: seeded runs, sweeps, and file emission.

A run seed fixes everything random in one solve: the initial weight phases,
the swarm streams, and (for the rotating scheme) the starting rotations.
Seed 0 starts from zero rotations; higher seeds assign each element's start
to the clamped closed-form boresight of a randomly chosen desired direction,
which gives the alternating optimizer a portfolio of basins to refine.  The
weight-only baselines ignore the rotation start.

Every solve of a run or a sweep is one pool task; results are aggregated in
task order, so outputs are identical however many workers are used.
``RA_BEAMKIT_THREADS`` sets the worker count (see ``worker_count``).
"""

import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, replace
from itertools import islice

import numpy as np

from .ao import (RunReport, child_seed, random_initial_weights, solve_foa,
                 solve_ia, solve_ra)
from .array_model import (BeamformerState, full_array_gain, grid_gain,
                          rotation_bounds)
from .scenario import (MAX_TASKS, VALID_SCHEMES, ScenarioError, ScenarioSpec,
                       _json_object, _number_list, _read_json, _replace_field,
                       pattern_rows)

DB_FLOOR = -300.0
SWEEP_FIELDS = ("num_antennas", "spacing_wavelengths", "eta_max_db")
_FORMAT_ROW_BYTES = 384   # traced: three columns, three fields' temporaries
PATTERN_BLOCK_ROWS = 2 ** 21 // _FORMAT_ROW_BYTES


def initial_rotations(seed: int, desired_angles_deg, pattern, num_antennas,
                      stream_seed) -> np.ndarray:
    """Starting rotations for one seeded run (see module docstring)."""
    if seed == 0:
        return np.zeros(num_antennas)
    candidates = rotation_bounds(pattern).clip(
        np.subtract(desired_angles_deg, 90.0))
    rng = np.random.default_rng(stream_seed)
    return candidates[rng.integers(0, candidates.shape[0], num_antennas)]


def run_single(spec: ScenarioSpec, scheme: str, seed: int,
               entropy=()) -> RunReport:
    """One seeded solve of one scheme.  ``entropy`` namespaces the streams;
    the report carries the run seed ``seed``."""
    n = spec.num_antennas
    weights0 = random_initial_weights(n, child_seed(*entropy, seed, 1))
    scenario, config = spec.scenario, spec.solver
    if scheme == "RA":
        rotations0 = initial_rotations(seed, scenario.desired_angles_deg,
                                       spec.pattern, n,
                                       child_seed(*entropy, seed, 3))
        report = solve_ra(scenario, spec.pattern, spec.geometry,
                          BeamformerState(weights0, rotations0), config,
                          seed=child_seed(*entropy, seed, 2))
    elif scheme == "FOA":
        report = solve_foa(scenario, spec.pattern, spec.geometry, weights0,
                           config)
    elif scheme == "IA":
        report = solve_ia(scenario, spec.geometry, weights0, config)
    else:
        raise ValueError(f"unknown scheme '{scheme}'")
    return replace(report, seed=int(seed))


def _run_single_task(task):
    spec, scheme, seed, entropy = task
    return run_single(spec, scheme, seed, entropy)


def worker_count() -> int:
    """``RA_BEAMKIT_THREADS`` if set (an integer; below 1 means 1), else 4,
    and never more than the number of CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1            # the mask is not on every platform
    env = os.environ.get("RA_BEAMKIT_THREADS")
    if env is None:
        return min(cpus, 4)
    try:
        return min(max(1, int(env)), cpus)
    except ValueError:
        raise ScenarioError(
            f"RA_BEAMKIT_THREADS must be an integer, got {env!r}") from None


def best_report(reports) -> RunReport:
    """The report with the largest min desired gain; the first on a tie."""
    return max(reports, key=lambda r: r.min_desired_gain)


def _best_reports(cells, schemes, seeds, workers) -> list:
    """The best report per (cell, scheme), in cell then scheme order.

    A cell is a ``(spec, entropy)`` pair; each seeded solve in it is one task,
    run serially for one worker or one task, else in a pool of at most
    ``workers`` processes.  A group is reduced as its reports arrive.  A
    scheme that left weight-step subproblems uncertified, counted over every
    cell and seed, gets one line on stderr with the count.
    """
    tasks = [(spec, scheme, seed, entropy) for spec, entropy in cells
             for scheme in schemes for seed in seeds]
    serial = workers <= 1 or len(tasks) <= 1
    if not serial:      # imported here: serial runs never load the pool
        from concurrent.futures import ProcessPoolExecutor
    best, uncertified = [], dict.fromkeys(schemes, 0)
    with nullcontext() if serial else \
            ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        reports = map(_run_single_task, tasks) if serial else \
            pool.map(_run_single_task, tasks, chunksize=1)
        for _ in range(len(cells) * len(schemes)):
            group = list(islice(reports, len(seeds)))
            best.append(best_report(group))
            uncertified[group[0].scheme] += sum(r.nonoptimal_subproblems
                                                for r in group)
    for scheme, count in uncertified.items():
        if count:
            print(f"warning: {scheme}: {count} weight-step subproblems ended "
                  "uncertified (status 'max_iterations')", file=sys.stderr)
    return best


# ---------------------------------------------------------------------------
# gain pattern sampling

def sample_gain_pattern(state: BeamformerState, pattern, geometry,
                        step_deg: float, start: int = 0, stop=None):
    """Gains over psi in [0, 180] at the given step; returns (psi, gain).

    ``start`` and ``stop`` select rows of the grid, which is
    ``np.linspace(0, 180, round(180 / step_deg) + 1)`` to the bit: a block
    repeats linspace's arithmetic (row index times the step, the last row
    exactly 180) instead of slicing the whole grid.
    """
    rows = pattern_rows(step_deg)
    stop = rows if stop is None else min(stop, rows)
    psi = np.arange(start, stop, dtype=float)
    if rows > 1:
        psi *= 180.0 / (rows - 1)
        if stop == rows and stop > start:
            psi[-1] = 180.0
    return psi, grid_gain(state.weights, pattern, geometry,
                          state.rotations_deg, psi)


def gain_to_db(gain_linear) -> np.ndarray:
    g = np.asarray(gain_linear, dtype=float)
    return np.fmax(10.0 * np.log10(np.where(g > 0, g, np.nan)), DB_FLOOR)


# ---------------------------------------------------------------------------
# "%.17g" for arrays
#
# For finite |x| in [1e-4, 1e3), "%.17g" is fixed notation: the 17
# significant digits D, the integer nearest |x| * 10**(16 - e) with ties to
# even, where 10**e <= |x| < 10**(e + 1) with e in [-4, 2] comes from six
# exact comparisons, with the point after digit e and trailing fraction
# zeros and a bare point stripped.  10**k is exact in float64 for k <= 22,
# Dekker's product splits |x| * 10**k exactly into p + err, and
# p >= 10**16 > 2**53 is an even integer, so D = p + rint(err).
# Each field is laid out in a cell of seven NUL-padded words; one
# bytes.translate per block deletes the NULs.  Every other value (zero,
# |x| >= 1e3, exponent notation, nan, inf) is formatted by Python.

_POW10 = np.array([float(10 ** k) for k in range(22)])
_DECADES = np.array([1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2])


def _halves(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits."""
    t = a * 134217729.0           # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HALVES = _halves(_POW10)


def _significand(a, e):
    """round(a * 10**(16 - e)), ties to even, as int64 (Dekker 1971)."""
    k = 16 - e
    b = _POW10.take(k)
    bhi, blo = (h.take(k) for h in _POW10_HALVES)
    p = a * b
    ahi, alo = _halves(a)
    err = ahi * bhi
    err -= p
    err += ahi * blo
    err += alo * bhi
    err += alo * blo
    return p.astype(np.int64) + np.rint(err, out=err).astype(np.int64)


def _divmod(v, base):
    # floor division by a scalar is much faster than % or np.divmod
    q = v // base
    return q, v - q * base


def _words(texts, chars=4):
    """The texts, each NUL-padded to ``chars`` bytes, as uint32 words."""
    return np.array(texts, f"S{chars}").view(np.uint32)


# a field's cell, in 7 words: the sign and the integer part, or "0." (1);
# the point, or the leading fraction zeros and the first digit (1); the
# other fraction digits, left-aligned in 16 with trailing zeros stripped (4);
# the separator (1).  The head words are looked up by a code: the integer part,
# or for e < 0, 1000 + 10 * leading zeros + first digit.
_SHIFT10 = 10 ** np.arange(3, dtype=np.uint64)
_INTEGERS = [str(i) for i in range(1000)] + ["0."] * 40
_LEADING = ["0" * z + str(f) for z in range(4) for f in range(10)]
_QUADS = ["%04d" % v for v in range(10000)]
# _SIGN_INTEGER[negative * 1040 + code]
_SIGN_INTEGER = _words(_INTEGERS + ["-" + t for t in _INTEGERS])
# _POINT[fraction * 1040 + code]
_POINT = _words([""] * 1000 + _LEADING + ["."] * 1000 + _LEADING)
# _FRACTION4[v]: the four digits of v < 10**4; at v + 10**4 with trailing
# zeros stripped, for the last nonzero quad of a fraction and the zero quads
# after it
_FRACTION4 = _words(_QUADS + [q.rstrip("0") for q in _QUADS])
_SEPARATORS = _words([",", ",", "\n"])
del _INTEGERS, _LEADING, _QUADS


def _format_rows(columns) -> str:
    """``"".join("%.17g,%.17g,%.17g\n" % row for row in zip(*columns))``
    for three float arrays, byte for byte."""
    x = np.stack(columns, axis=1).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e3)
    a[~fast] = 1.0
    # the doubles 1e-4 to 1e-1 lie above their powers of ten and 1 to 100
    # equal theirs, so every comparison is exact and D lies in
    # [10**16, 10**17): no decade needs repair
    e = np.full(x.size, -4, np.int8)
    for decade in _DECADES:
        e += a >= decade
    e = e.astype(np.intp)        # the head code 990 - 10 * e needs intp
    d = _significand(a, e)
    del a
    # D * 10**max(e, 0), which may pass 2**63, is 10**16 times the integer
    # part (for e < 0 the first digit) plus the other digits, left-aligned
    d = d.view(np.uint64)
    d *= _SHIFT10.take(np.maximum(e, 0))
    integer = d // 10 ** 16
    d -= integer * 10 ** 16
    d, integer = d.view(np.int64), integer.view(np.int64)
    hi, lo = _divmod(d, 10 ** 8)
    quads = [*_divmod(hi, 10 ** 4), *_divmod(lo, 10 ** 4)]
    del hi, lo

    buf = bytearray(28 * x.size)
    cells = np.frombuffer(buf, np.uint32).reshape(x.size, 7)
    integer += (e < 0) * (990 - 10 * e)          # the head code
    cells[:, 0] = _SIGN_INTEGER.take(integer + 1040 * (x < 0))
    cells[:, 1] = _POINT.take(integer + 1040 * (d != 0))
    del d, e, integer
    trailing = np.ones(x.size, bool)     # every later digit is zero
    for j in (3, 2, 1, 0):
        cells[:, 2 + j] = _FRACTION4.take(quads[j] + 10000 * trailing)
        trailing &= quads[j] == 0
    del quads, trailing
    cells.reshape(-1, 3, 7)[:, :, -1] = _SEPARATORS

    slow = np.flatnonzero(~fast)
    # "%.17g" writes at most 24 characters: the six words before the separator
    cells[slow, :-1] = _words(
        ["%.17g" % v for v in x[slow].tolist()], 24).reshape(-1, 6)
    del cells, x
    return buf.translate(None, b"\0").decode("ascii")


def _pattern_csv_block(state, pattern, geometry, step_deg, start, stop) -> str:
    # a function of its own, so a block's arrays are freed when it returns
    psi, gains = sample_gain_pattern(state, pattern, geometry, step_deg,
                                     start, stop)
    return _format_rows((psi, gains, gain_to_db(gains)))


@contextmanager
def _rewrite(path):
    """open(path, "w") minus O_TRUNC: ext4 flushes files truncated on open."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
            fh.flush()
        finally:   # cut at the kernel's offset, even if the flush failed;
            st = os.fstat(fd)   # text still buffered lands after the cut
            if stat.S_ISREG(st.st_mode) and st.st_size > fh.buffer.raw.tell():
                fh.buffer.raw.truncate()


def write_pattern_csv(path, state: BeamformerState, pattern, geometry,
                      step_deg: float):
    """Sample the gain pattern and write it as CSV.

    ``path`` is a file path, or an open text stream, which is left open.
    The grid is streamed in blocks of ``PATTERN_BLOCK_ROWS`` rows: each
    block is sampled (``grid_gain`` bounds its own arrays), converted to dB,
    formatted and written before the next is sampled, so memory stays flat
    however fine the step and however large N.  Every number is
    written as ``"%.17g"`` writes it; the numbers with magnitudes in
    [1e-4, 1e3), nearly all of a pattern's angles, gains and dB values, are
    formatted by array arithmetic, the others by Python.
    """
    with (nullcontext(path) if hasattr(path, "write") else
          _rewrite(path)) as fh:
        fh.write("psi_deg,gain_linear,gain_db\n")
        for start in range(0, pattern_rows(step_deg), PATTERN_BLOCK_ROWS):
            fh.write(_pattern_csv_block(state, pattern, geometry, step_deg,
                                        start, start + PATTERN_BLOCK_ROWS))


# ---------------------------------------------------------------------------
# report (de)serialization

def report_to_dict(report: RunReport, spec: ScenarioSpec) -> dict:
    return {
        "scheme": report.scheme,
        "seed": report.seed,
        "min_desired_gain": report.min_desired_gain,
        "max_interference_gain": report.max_interference_gain,
        "objective_history": list(report.objective_history),
        "outer_iterations": report.outer_iterations,
        "final_state": {
            "weights_real": report.final_state.weights.real.tolist(),
            "weights_imag": report.final_state.weights.imag.tolist(),
            "rotations_deg": report.final_state.rotations_deg.tolist(),
        },
        "config": asdict(spec.solver),
        "scenario": asdict(spec.scenario),
        "geometry": asdict(spec.geometry),
        "pattern": asdict(spec.pattern),
    }


def write_report_json(path, report: RunReport, spec: ScenarioSpec):
    text = json.dumps(report_to_dict(report, spec), indent=2, sort_keys=True)
    with _rewrite(path) as fh:
        fh.write(text + "\n")        # one write, not json.dump's ~190


def load_report_state(path, num_antennas=None):
    """Read back (scheme, BeamformerState) from a run-report JSON file.

    Only the keys read are required: ``scheme``, one of ``VALID_SCHEMES``,
    and ``final_state`` with ``weights_real``, ``weights_imag`` and
    ``rotations_deg``, lists of finite numbers of one length, which is
    ``num_antennas`` when given.  A malformed report raises ScenarioError
    naming ``--state``, the CLI flag that carries the path.
    """
    doc = _read_json(path, "--state")
    scheme = _json_object(doc, "--state", ["scheme"])["scheme"]
    if scheme not in VALID_SCHEMES:
        raise ScenarioError(f"key 'scheme' in --state must be one of "
                            f"{', '.join(VALID_SCHEMES)}")
    context = "'final_state' in --state"
    fs = _json_object(doc, "--state", ["final_state"])["final_state"]
    # one key at a time, so a malformed key is reported before a later
    # missing one
    real, imag, rotations = (
        _number_list(_json_object(fs, context, [key])[key], key, context)
        for key in ("weights_real", "weights_imag", "rotations_deg"))
    n = len(real) if num_antennas is None else num_antennas
    if not len(real) == len(imag) == len(rotations) == n:
        raise ScenarioError(f"{context}: weights_real, weights_imag and "
                            f"rotations_deg must each hold {n} numbers, "
                            f"one per antenna")
    weights = np.asarray(real) + 1j * np.asarray(imag)
    return scheme, BeamformerState(weights, np.asarray(rotations))


# ---------------------------------------------------------------------------
# top-level experiment entry points

def write_scheme_pattern(path, scheme, state, spec):
    """``write_pattern_csv`` for one scheme's state on ``spec``'s array at
    its sample step; the isotropic scheme (IA) has no element pattern."""
    write_pattern_csv(path, state, None if scheme == "IA" else spec.pattern,
                      spec.geometry, spec.pattern_sample_step_deg)


def run_scenario(spec: ScenarioSpec, output_dir) -> dict:
    """Solve every scheme at every seed; write reports, patterns, summary.

    Returns the best report per scheme.  Files written into ``output_dir``:
    ``report_<scheme>.json`` and ``pattern_<scheme>.csv`` per scheme plus
    ``summary.csv``.  A scheme whose solves, over all its seeds, left any
    weight-step subproblem uncertified gets one line on stderr with the count.
    """
    workers = worker_count()
    os.makedirs(output_dir, exist_ok=True)
    best = dict(zip(spec.schemes, _best_reports([(spec, ())], spec.schemes,
                                                spec.seeds, workers)))

    full = full_array_gain(spec.pattern, spec.geometry)
    summary_rows = []
    for scheme in spec.schemes:
        rep = best[scheme]
        write_report_json(os.path.join(output_dir, f"report_{scheme.lower()}.json"),
                          rep, spec)
        write_scheme_pattern(
            os.path.join(output_dir, f"pattern_{scheme.lower()}.csv"),
            scheme, rep.final_state, spec)
        gain = rep.min_desired_gain
        summary_rows.append((scheme, gain, float(gain_to_db(gain)), gain / full))

    with _rewrite(os.path.join(output_dir, "summary.csv")) as fh:
        fh.write("scheme,min_desired_gain_linear,min_desired_gain_db,"
                 "fraction_of_full_gain\n")
        for scheme, lin, db, frac in summary_rows:
            fh.write(f"{scheme},{lin:.17g},{db:.17g},{frac:.17g}\n")

    print(f"{'scheme':<8}{'min gain':>14}{'min gain dB':>14}{'fraction':>12}")
    for scheme, lin, db, frac in summary_rows:
        print(f"{scheme:<8}{lin:>14.4f}{db:>14.3f}{frac:>12.4f}")
    return best


def random_scenario_angles(base_seed: int, index: int, num_desired: int,
                           num_interference: int):
    """Uniform direction draws for one Monte Carlo scenario (disjoint sets)."""
    rng = np.random.default_rng(np.random.SeedSequence((int(base_seed), int(index))))
    while True:
        angles = rng.uniform(0.0, 180.0, num_desired + num_interference)
        desired = angles[:num_desired]
        interference = angles[num_desired:]
        if not set(desired.tolist()) & set(interference.tolist()):
            return desired.tolist(), interference.tolist()


def run_sweep(spec: ScenarioSpec, field_name: str, values, num_scenarios: int,
              base_seed: int, output_dir):
    """Mean max-min gain per scheme over random scenarios, per sweep value.

    The same ``num_scenarios`` random direction sets (sizes taken from the
    base spec) are reused across sweep values so cells are paired.  The CSV
    reports the mean of per-scenario dB gains and each scheme's shortfall
    against the rotating scheme.  Returns ``{value: {scheme: mean_db}}``.
    Each value gets the checks of the scenario file key it replaces, no value
    may repeat, and every solve is queued as one task, at most ``MAX_TASKS``
    per scheme (values times scenarios times seeds); the messages name
    ``--values`` and ``--scenarios``, the CLI flags that carry them.
    Uncertified subproblems are reported on stderr as by ``run_scenario``.
    """
    if field_name not in SWEEP_FIELDS:
        raise ScenarioError(
            f"sweep field must be one of {', '.join(SWEEP_FIELDS)}")
    if num_scenarios < 1:
        raise ScenarioError("--scenarios (sweep scenarios) must be >= 1")
    if len(values) * num_scenarios * len(spec.seeds) > MAX_TASKS:
        raise ScenarioError(f"--scenarios times the number of --values and "
                            f"of seeds must be <= {MAX_TASKS}")
    swept = [_replace_field(spec, field_name, value, "--values")
             for value in values]
    if len(set(values)) < len(values):   # -5 and -5.0 are one value
        raise ScenarioError("--values repeats a value")
    workers = worker_count()
    os.makedirs(output_dir, exist_ok=True)
    angles = [random_scenario_angles(base_seed, j, len(spec.desired_angles_deg),
                                     len(spec.interference_angles_deg))
              for j in range(num_scenarios)]
    cells = [(replace(s, desired_angles_deg=desired,
                      interference_angles_deg=interference), (base_seed, vi, j))
             for vi, s in enumerate(swept)
             for j, (desired, interference) in enumerate(angles)]
    best = _best_reports(cells, spec.schemes, spec.seeds, workers)

    k, results = len(spec.schemes), {}
    for vi, value in enumerate(values):
        group = best[vi * num_scenarios * k:(vi + 1) * num_scenarios * k]
        results[value] = {   # scheme si's best reports, in scenario order
            scheme: float(np.mean([gain_to_db(r.min_desired_gain)
                                   for r in group[si::k]]))
            for si, scheme in enumerate(spec.schemes)}

    path = os.path.join(output_dir, "sweep.csv")
    with _rewrite(path) as fh:
        fh.write("sweep_value,scheme,mean_maxmin_gain_db,delta_vs_ra_db\n")
        for value in values:
            means = results[value]
            ra_db = means.get("RA")
            for scheme in spec.schemes:
                delta = 0.0 if ra_db is None or scheme == "RA" \
                    else ra_db - means[scheme]
                fh.write(f"{value:.17g},{scheme},{means[scheme]:.17g},"
                         f"{delta:.17g}\n")
    return results
