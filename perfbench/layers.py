"""Where the traced run wraps the program, and the per-layer figures.

Every wrapper sits at the call site the program uses, so one layer's span
opens exactly where the layer above calls into it.  Layer names are the
package's module names.
"""

from collections import Counter, defaultdict

from ra_beamkit import ao, cli, experiments, pso, sca
from ra_beamkit import scenario as scenario_mod

import tracing as tr
from workloads import SIZES

SWEEP_SIZES = SIZES["full"]["sweep_values"]

# Figures that only mc_sweep makes nonzero.  mc_sweep is run by hand, so
# these are printed but kept out of the result line that BENCHMARK.json
# describes.
SWEEP_ONLY = tuple(f"convex_core.{m}.n{n}" for n in SWEEP_SIZES
                   for m in ("ms_p50", "nonoptimal_share")) + (
    "experiments.cell_ms_p50", "experiments.cell_ms_tail",
    "experiments.pool_speedup")


def _sca_attrs(report, args, kwargs):
    delta = args[4].delta_threshold
    h = report.objective_history
    return {"iterations": report.iterations,
            "useful": sum(1 for a, b in zip(h, h[1:]) if b - a >= delta),
            "judged": max(0, len(h) - 1)}


def instrument(tracer):
    """Install every wrapper; ``tracer.unwrap_all()`` removes them."""
    w = tracer.wrap

    def entropy(args, kwargs):
        return tuple(kwargs.get("entropy", args[3] if len(args) > 3 else ()))

    w(sca, "solve_epigraph", "convex_core.solve_epigraph",
      lambda res, a, k: {"n": a[0].dim, "status": res.status,
                         "residual": res.feasibility_residual})
    w(sca, "composite_response", "array_model.composite_response")
    w(sca, "array_gain", "array_model.array_gain")
    w(ao, "optimize_weights", "sca.optimize_weights", _sca_attrs)
    w(ao, "optimize_rotations", "pso.optimize_rotations",
      lambda res, a, k: {"particles": a[5].num_particles})
    w(pso, "step", "pso.step",
      lambda res, a, k: {"improved": res.global_best_fitness
                         > a[0].global_best_fitness})
    for fn in ("solve_ra", "solve_foa", "solve_ia"):
        w(experiments, fn, f"ao.{fn}",
          lambda res, a, k: {"scheme": res.scheme,
                             "outer_iterations": res.outer_iterations})
    w(experiments, "sample_gain_pattern", "array_model.sample_gain_pattern",
      lambda res, a, k: {"rows": int(res[0].shape[0])})
    w(experiments, "run_single", "experiments.run_single",
      lambda res, a, k: {"scheme": res.scheme, "n": a[0].num_antennas},
      request=lambda a, k: (f"cell:{entropy(a, k)}" if entropy(a, k)
                            else tracer.new_request("solve")))
    for fn in ("write_report_json", "write_pattern_csv", "load_report_state",
               "run_sweep"):
        w(experiments, fn, f"experiments.{fn}")
    w(scenario_mod, "load_scenario", "scenario.load_scenario")
    w(cli, "load_scenario", "scenario.load_scenario")
    w(cli, "main", "cli.main",
      request=lambda a, k: tracer.new_request("pattern"))


def _root(spans, i):
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def layer_metrics(spans, pool_speedup, overhead_frac) -> dict:
    """name -> (value, unit) over the spans under ``bench.round`` roots.

    A figure whose layer did no work on the workload reads 0.
    """
    selfs = tr.self_times(spans)
    keep = [i for i in range(len(spans))
            if spans[_root(spans, i)].name == "bench.round"]
    sub = [spans[i] for i in keep]
    self_s = tr.layer_self_s(spans, selfs, keep)
    incl = tr.layer_inclusive_s(spans, keep)
    round_s = sum(s.duration for s in sub if s.name == "bench.round") or 1.0
    by_name = defaultdict(list)
    for s in sub:
        by_name[s.name].append(s)
    m = {}

    cc = by_name["convex_core.solve_epigraph"]
    ms = [s.duration * 1e3 for s in cc]
    m["convex_core.calls"] = (len(cc), "count")
    m["convex_core.ms_p50"] = (tr.median(ms), "ms")
    m["convex_core.ms_tail"] = (tr.tail(ms)[0], "ms")
    m["convex_core.self_s"] = (self_s.get("convex_core", 0.0), "s")
    m["convex_core.share"] = (incl.get("convex_core", 0.0) / round_s, "ratio")
    m["convex_core.nonoptimal_share"] = (_nonoptimal(cc), "ratio")
    m["convex_core.max_residual"] = (
        max((s.attrs["residual"] for s in cc), default=0.0), "1")
    for n in SWEEP_SIZES:
        at_n = [s for s in cc if s.attrs["n"] == n]
        m[f"convex_core.ms_p50.n{n}"] = (
            tr.median([s.duration * 1e3 for s in at_n]), "ms")
        m[f"convex_core.nonoptimal_share.n{n}"] = (_nonoptimal(at_n), "ratio")

    sc = by_name["sca.optimize_weights"]
    judged = sum(s.attrs["judged"] for s in sc)
    m["sca.calls"] = (len(sc), "count")
    m["sca.iterations_per_call"] = (
        sum(s.attrs["iterations"] for s in sc) / len(sc) if sc else 0.0, "count")
    m["sca.self_s"] = (self_s.get("sca", 0.0), "s")
    m["sca.useful_ratio"] = (
        sum(s.attrs["useful"] for s in sc) / judged if judged else 0.0, "ratio")

    runs, steps = by_name["pso.optimize_rotations"], by_name["pso.step"]
    steps_in = Counter(s.parent for s in steps)
    step_s = sum(s.duration for s in steps)
    m["pso.calls"] = (len(runs), "count")
    m["pso.steps_per_call"] = (len(steps) / len(runs) if runs else 0.0, "count")
    m["pso.fitness_evals"] = (sum(spans[i].attrs["particles"] * (steps_in[i] + 1)
                                  for i in keep
                                  if spans[i].name == "pso.optimize_rotations"),
                              "count")
    m["pso.ms_per_step"] = (step_s * 1e3 / len(steps) if steps else 0.0, "ms")
    m["pso.self_s"] = (self_s.get("pso", 0.0), "s")
    m["pso.share"] = (incl.get("pso", 0.0) / round_s, "ratio")
    m["pso.useful_ratio"] = (sum(1 for s in steps if s.attrs["improved"])
                             / len(steps) if steps else 0.0, "ratio")

    solves = [s for s in sub if s.name.startswith("ao.")]
    for scheme in ("RA", "FOA", "IA"):
        outer = [s.attrs["outer_iterations"] for s in solves
                 if s.attrs["scheme"] == scheme]
        m[f"ao.outer_iterations_per_solve.{scheme}"] = (
            sum(outer) / len(outer) if outer else 0.0, "count")
    m["ao.self_s"] = (self_s.get("ao", 0.0), "s")

    samples = by_name["array_model.sample_gain_pattern"]
    sample_s = sum(s.duration for s in samples)
    m["array_model.response_calls"] = (
        len(by_name["array_model.composite_response"])
        + len(by_name["array_model.array_gain"]), "count")
    m["array_model.sample_s"] = (sample_s, "s")
    m["array_model.samples_per_s"] = (
        sum(s.attrs["rows"] for s in samples) / sample_s if sample_s else 0.0,
        "1/s")

    cells = defaultdict(float)
    for s in by_name["experiments.run_single"]:
        if s.request.startswith("cell:"):
            cells[s.request] += s.duration * 1e3
    emit = [i for i, s in zip(keep, sub) if s.name in (
        "experiments.write_report_json", "experiments.write_pattern_csv")]
    m["experiments.emit_s"] = (sum(selfs[i] for i in emit), "s")
    m["experiments.cell_ms_p50"] = (tr.median(list(cells.values())), "ms")
    m["experiments.cell_ms_tail"] = (tr.tail(list(cells.values()))[0], "ms")
    m["experiments.pool_speedup"] = (pool_speedup, "ratio")

    loads = [s.duration * 1e3 for s in spans if s.name == "scenario.load_scenario"]
    m["scenario.load_ms"] = (tr.median(loads), "ms")
    m["cli.pattern_s"] = (sum(s.duration for s in by_name["cli.main"]), "s")
    m["cli.self_s"] = (self_s.get("cli", 0.0), "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def _nonoptimal(spans) -> float:
    if not spans:
        return 0.0
    return sum(1 for s in spans if s.attrs["status"] != "optimal") / len(spans)
