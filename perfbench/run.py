#!/usr/bin/env python3
"""The ra-beamkit benchmark: one command per workload, one JSON result line.

    python3 perfbench/run.py --workload paper_pairs --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` there and nowhere else, and exits 2 without a result if ``src/`` is
missing.  It writes only under ``.perfbench_work/`` in the checkout.

``--trace 0`` measures the end-to-end metrics with no instrumentation.  Round
0 is an untimed warm-up, and the throughput is scaled to a reference host
speed by a fixed kernel timed between rounds (see hostspeed.py).
``--trace 1`` replays every round twice, untraced and traced, on the same
inputs, alternating which goes first; the traced copy gives the per-layer
metrics and the pair gives the tracing overhead.  ``mc_sweep`` is traced serially (``RA_BEAMKIT_THREADS=1``)
because spans cannot leave pool workers; its untraced pooled round is also
timed, for ``experiments.pool_speedup``.

Every solve, sweep and pattern is checked (see checks.py).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when any check failed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1          # tuned against; seed 7 is held out (see README)
SETUP_REPEATS = 15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "RA_BEAMKIT_THREADS")

# name -> unit; must match BENCHMARK.json
END_TO_END = {"setup_s": "s", "norm_work_per_s": "1/s",
              "worst_gain_frac": "ratio", "peak_rss_mb": "MB"}


def import_program():
    """Put the checkout's ``src`` first on the path, or fail."""
    if not (SRC / "ra_beamkit" / "__init__.py").is_file():
        print(f"perfbench: no ra_beamkit package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ra_beamkit
    if SRC not in Path(ra_beamkit.__file__).resolve().parents:
        print("perfbench: imported ra_beamkit from outside src/", file=sys.stderr)
        raise SystemExit(2)


def environment() -> dict:
    import numpy
    from ra_beamkit import experiments
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "worker_count": experiments.worker_count()}


def measure_setup(paths) -> list:
    """Wall time of fresh interpreters that import the package and parse
    the workload's scenario files.  Called after the workload, so that
    these children stay out of ``peak_rss_mb``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                        *map(str, paths)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


@contextlib.contextmanager
def serial_pool():
    old = os.environ.get("RA_BEAMKIT_THREADS")
    os.environ["RA_BEAMKIT_THREADS"] = "1"
    try:
        yield
    finally:
        if old is None:
            del os.environ["RA_BEAMKIT_THREADS"]
        else:
            os.environ["RA_BEAMKIT_THREADS"] = old


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest pool worker's (Linux reports
    KiB).  Read before ``measure_setup`` starts any other child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, r):
        self.attempted += r.attempted
        self.failed += r.failed
        self.errors.extend(r.errors)

    def check(self, what, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a failed check is counted, not raised
            self.failed += 1
            self.errors.append(f"{what}: {exc}")


def run_untraced(wl, seconds, tally):
    """Round 0 warms the code paths up untimed; rounds 1, 2, ... are timed.
    The host-speed kernel runs before the first timed round and after each
    one, so ``calibs`` holds one time more than there are rounds."""
    tally.add(wl.round(0))
    rounds, calibs, t0 = [], [hostspeed.calibrate()], time.perf_counter()
    while True:
        r = wl.round(len(rounds) + 1)
        calibs.append(hostspeed.calibrate())
        tally.add(r)
        rounds.append(r)
        if time.perf_counter() - t0 >= seconds and len(rounds) >= wl.min_rounds:
            return rounds, calibs, time.perf_counter() - t0


def traced_round(wl, index, tracer):
    import layers
    layers.instrument(tracer)
    try:
        span = tracer.open("bench.round", f"round:{index}")
        traced = wl.round(index)
        tracer.close(span)
    finally:
        tracer.unwrap_all()
    return traced


def run_traced(wl, seconds, tally, tracer):
    i, base_s, pooled_s, ratios = 0, 0.0, 0.0, []
    t0 = time.perf_counter()
    while True:
        if wl.pooled:
            pooled = wl.round(i)
            tally.add(pooled)
            pooled_s += pooled.work_s
        with serial_pool():
            # alternate the order, so that neither copy is always the warm one
            if i % 2:
                traced = traced_round(wl, i, tracer)
                base = wl.round(i)
            else:
                base = wl.round(i)
                traced = traced_round(wl, i, tracer)
        tally.add(base)
        tally.add(traced)
        tally.attempted += 1
        if traced.outputs != base.outputs:
            tally.failed += 1
            tally.errors.append(f"round {i}: traced outputs differ from untraced")
        base_s += base.work_s
        if base.work_s:
            ratios.append(traced.work_s / base.work_s)
        i += 1
        if time.perf_counter() - t0 >= seconds:
            break
    pool_speedup = base_s / pooled_s if pooled_s else 0.0
    # the median of per-round ratios: the copies of a round run back to back,
    # so host drift over the run cancels
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    return pool_speedup, overhead


def end_to_end(wl, rounds, calibs, wall_s, rss_mb, setup_times) -> dict:
    """name -> (value, unit, note): the contract metrics first, then the
    workload's own names for them."""
    import tracing as tr
    lat = [x for r in rounds for x in r.latencies_ms]
    work_s = sum(r.work_s for r in rounds) or float("inf")
    # each round at reference host speed: the kernel times on its two sides
    ref_s = sum(r.work_s * 2.0 * hostspeed.REFERENCE_S / (before + after)
                for r, before, after in zip(rounds, calibs, calibs[1:])) \
        or float("inf")
    units = sum(r.units for r in rounds)
    solves = sum(r.solves for r in rounds)
    tail, pct, n = tr.tail(lat)
    m = {"setup_s": (statistics.median(setup_times), "s",
                     f"median of {len(setup_times)} fresh interpreters"),
         "norm_work_per_s": (units / ref_s, "1/s",
                             f"{wl.unit} per second at reference host speed"),
         "peak_rss_mb": (rss_mb, "MB", "self + largest pool worker"),
         "work_per_s": (units / work_s, "1/s", f"{wl.unit} per second"),
         "host_calib_ms": (statistics.median(calibs) * 1e3, "ms",
                           f"median of {len(calibs)} host-speed kernels"),
         "req_p50_ms": (tr.median(lat), "ms", f"n={len(lat)}"),
         "wall_s": (wall_s, "s", f"{len(rounds)} rounds"),
         "req_tail_ms": (tail, "ms", f"p{pct:g}, n={n}")}
    if solves:
        m["solves_per_s"] = (solves / work_s, "1/s", "")
    if wl.name in ("paper_pairs", "wide_swarm"):
        m["solve_p50_ms"] = (tr.median(lat), "ms", f"n={len(lat)}")
        m["solve_tail_ms"] = (tail, "ms", f"p{pct:g}, n={n}")
    if wl.name == "mc_sweep":
        m["cells_per_s"] = (units / work_s, "1/s", "")
    if wl.name == "pattern_dense":
        m["pattern_rows_per_s"] = (units / work_s, "1/s", "")
    for name, (value, unit) in wl.summary(rounds).items():
        m[name] = (value, unit, "")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    import_program()
    import checks
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload](args.seed, WORK,
                                            workloads.SIZES[args.size])
    env = environment()

    tally = Tally()
    tally.check("closed form", checks.check_closed_form)
    undo = checks.guard_run_single()
    tracer = tracing.Tracer()
    try:
        if args.trace:
            import layers
            layers.instrument(tracer)      # spans outside rounds: load_ms only
            try:
                wl.prepare()
            finally:
                tracer.unwrap_all()
            speedup, overhead = run_traced(wl, args.seconds, tally, tracer)
        else:
            wl.prepare()
            rounds, calibs, wall_s = run_untraced(wl, args.seconds, tally)
            rss_mb = peak_rss_mb()
            setup_times = measure_setup(wl.write_scenarios())
    finally:
        undo()

    if args.trace:
        tally.check("solve_epigraph residuals", checks.check_residuals,
                    [s.attrs["residual"] for s in tracer.spans
                     if s.name == "convex_core.solve_epigraph"])
        detail = {k: (v, u, "") for k, (v, u) in layers.layer_metrics(
            tracer.spans, speedup, overhead).items()}
        contract = {k: v for k, v in detail.items()
                    if k not in layers.SWEEP_ONLY}
        tracer.write(WORK / f"spans-{wl.name}-{args.seed}.jsonl")
        if wl.pooled:
            env["trace_note"] = ("traced serially with RA_BEAMKIT_THREADS=1; "
                                 "pool_speedup = untraced serial wall / "
                                 "untraced pooled wall on the same cells")
    else:
        detail = end_to_end(wl, rounds, calibs, wall_s, rss_mb, setup_times)
        contract = {k: detail[k] for k in END_TO_END}

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v[0], "unit": v[1]}
                          for k, v in contract.items()}}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds,
              "environment": env, "errors": tally.errors[:20],
              "failed_share": tally.failed / max(1, tally.attempted),
              "rounds": None if args.trace else {
                  "work_s": [r.work_s for r in rounds],
                  "units": [r.units for r in rounds],
                  "host_calib_s": calibs},
              "detail": {k: {"value": v, "unit": u, "note": note}
                         for k, (v, u, note) in detail.items()}}
    (WORK / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=2) + "\n",
        encoding="utf-8")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(env, sort_keys=True)}")
    for err in tally.errors[:20]:
        print(f"# FAILED {err}")
    print(f"#   {'failed_share':<40}{record['failed_share']:>16.6g} ratio")
    for name, (value, unit, note) in detail.items():
        print(f"#   {name:<40}{value:>16.6g} {unit:<6} {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
