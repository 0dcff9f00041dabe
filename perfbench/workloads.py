"""The benchmark's workloads.

Each workload is a closed loop with one client: a request starts only when
the previous one has returned.  The benchmark seed fixes every input (run
seeds, sweep base seeds and with them the swarm streams and the random
direction sets); the program receives only those generated inputs.
``round(i)`` runs the i-th batch of requests, whose inputs depend only on the
seed and ``i``, so a round can be replayed exactly.

paper_pairs    The paper's two-beam setups through ``run_single`` plus the
               report/pattern emission of ``run``.  The convex core does
               ~98% of the work, so convex-core, SCA and AO changes show here
               and PSO or pattern-kernel changes should not.
mc_sweep       ``run_sweep`` over N in {8, 32, 64} on random 2+2 direction
               sets, through the library's own process pool with BLAS
               threading left at its default (pinning it would hide the pool
               oversubscription loss).  The subproblem size d = 2N+1 spans the
               Python-bound to the linear-algebra-bound regime.
wide_swarm     RA with four beams, N = 32 and 4000 particles: the only input
               on which the rotation step does most of the work.
pattern_dense  ``ra-beamkit pattern`` at a fine step on saved far-pair
               reports: the array response on a dense grid plus CSV emission,
               and no solver at all.
"""

import copy
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ra_beamkit import cli, experiments
from ra_beamkit import scenario as scenario_mod
from ra_beamkit.array_model import full_array_gain

import checks

SCHEMES = ("RA", "FOA", "IA")
PAIRS = (("close", [55.0, 60.0]), ("far", [60.0, 140.0]))
CAPS = [20.0, 160.0]
WIDE_BEAMS = [40.0, 70.0, 110.0, 140.0]

# "tiny" keeps every code path but shrinks the problems; the benchmark's own
# tests use it.
SIZES = {
    "full": {"num_antennas": 15, "pair_quality_rounds": 4, "pattern_seeds": 8,
             "sweep_values": (8, 32, 64), "wide_antennas": 32,
             "wide_particles": 4000, "wide_quality_rounds": 8,
             "pattern_step": 0.001, "solver": {}},
    "tiny": {"num_antennas": 4, "pair_quality_rounds": 1, "pattern_seeds": 1,
             "sweep_values": (3, 4, 5), "wide_antennas": 5,
             "wide_particles": 40, "wide_quality_rounds": 1,
             "pattern_step": 0.5,
             "solver": {"max_outer_iterations": 2,
                        "sca": {"max_iterations": 3},
                        "pso": {"num_particles": 20, "max_iterations": 5}}},
}


@dataclass
class Round:
    """What one round did.  ``units`` is the workload's unit of work."""
    work_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    units: int = 0
    solves: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # for the replay check
    quality: dict = field(default_factory=dict)


def _run_seeds(seed, salt, index, count):
    """Program seeds for round ``index``; ``salt`` separates their uses."""
    rng = np.random.default_rng([int(seed), salt, int(index)])
    return [int(s) for s in rng.integers(1, 2 ** 31, count)]


def _write_scenario(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _solve(r: Round, spec, scheme, seed):
    """One timed run_single; a raising or failing solve counts as failed."""
    r.attempted += 1
    t0 = time.perf_counter()
    try:
        report = experiments.run_single(spec, scheme, seed)
    except Exception as exc:  # any failure is a counted, reported outcome
        r.failed += 1
        r.errors.append(f"{scheme} seed {seed}: {exc}")
        return None
    dt = time.perf_counter() - t0
    r.work_s += dt
    r.latencies_ms.append(dt * 1e3)
    r.units += 1
    r.solves += 1
    r.outputs.append(report.min_desired_gain)
    return report


class Workload:
    name = ""
    unit = ""           # what ``units`` counts
    pooled = False
    min_rounds = 1      # rounds that feed the deterministic quality figures

    def __init__(self, seed, work_dir: Path, size: dict):
        self.seed = seed
        self.dir = work_dir / self.name
        self.size = size

    def scenario_docs(self) -> dict:
        raise NotImplementedError

    def write_scenarios(self) -> list:
        return [_write_scenario(self.dir / f"{key}.json", doc)
                for key, doc in self.scenario_docs().items()]

    def prepare(self):
        """Parse the scenario files (and make any saved inputs)."""
        self.specs = {p.stem: scenario_mod.load_scenario(p)
                      for p in self.write_scenarios()}

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def summary(self, rounds) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        return {}

    def _doc(self, desired, n, **extra):
        doc = {"desired_angles_deg": desired, "interference_angles_deg": CAPS,
               "eta_max_db": -10.0, "num_antennas": n,
               "solver": copy.deepcopy(self.size["solver"])}
        doc.update(extra)
        return doc


class PaperPairs(Workload):
    name, unit = "paper_pairs", "solves"

    def __init__(self, seed, work_dir, size):
        super().__init__(seed, work_dir, size)
        self.min_rounds = size["pair_quality_rounds"]

    def scenario_docs(self):
        return {pair: self._doc(desired, self.size["num_antennas"])
                for pair, desired in PAIRS}

    def round(self, index):
        """Both pairs, all schemes, each solve with a run seed of its own;
        then the reports and patterns `run` would write for them.  Separate
        seeds make the solves of a round independent samples of the cost,
        which varies severalfold with the seed."""
        r = Round()
        seeds = iter(_run_seeds(self.seed, 1, index, len(PAIRS) * len(SCHEMES)))
        for pair, _ in PAIRS:
            spec = self.specs[pair]
            reports = {scheme: _solve(r, spec, scheme, next(seeds))
                       for scheme in SCHEMES}
            t0 = time.perf_counter()
            for scheme, rep in reports.items():
                if rep is None:
                    continue
                stem = self.dir / f"{pair}_{scheme.lower()}"
                experiments.write_report_json(f"{stem}.json", rep, spec)
                experiments.write_pattern_csv(
                    f"{stem}.csv", rep.final_state,
                    None if scheme == "IA" else spec.pattern, spec.geometry,
                    spec.pattern_sample_step_deg)
            r.work_s += time.perf_counter() - t0
            if reports["RA"] is not None:
                r.quality[pair] = reports["RA"].min_desired_gain / \
                    full_array_gain(spec.pattern, spec.geometry)
        return r

    def summary(self, rounds):
        """Best-of-seeds RA quality over the first ``min_rounds`` seeds."""
        fracs = {f"worst_gain_frac.{pair}": (
            max(r.quality.get(pair, 0.0) for r in rounds[:self.min_rounds]),
            "ratio") for pair, _ in PAIRS}
        mean = sum(v for v, _ in fracs.values()) / len(fracs)
        return {"worst_gain_frac": (mean, "ratio"), **fracs}


class McSweep(Workload):
    name, unit, pooled = "mc_sweep", "cells", True

    def scenario_docs(self):
        # the angles only fix the set sizes; run_sweep draws each cell's own
        return {"base": self._doc([60.0, 120.0], 8, interference_angles_deg=[
            30.0, 150.0], seeds=_run_seeds(self.seed, 2, 0, 1))}

    def round(self, index):
        r = Round(attempted=1)
        spec, values = self.specs["base"], self.size["sweep_values"]
        base_seed = _run_seeds(self.seed, 3, index, 1)[0]
        out = self.dir / "sweep"
        t0 = time.perf_counter()
        try:
            results = experiments.run_sweep(spec, "num_antennas", list(values),
                                            1, base_seed, out)
        except Exception as exc:  # includes checks failed inside workers
            r.failed, r.errors = 1, [f"base_seed {base_seed}: {exc}"]
            return r
        dt = time.perf_counter() - t0
        r.work_s, r.latencies_ms = dt, [dt * 1e3]
        r.units = len(values)
        r.solves = len(values) * len(spec.schemes) * len(spec.seeds)
        try:
            checks.check_sweep_csv(out / "sweep.csv", results, spec.schemes)
        except checks.CheckFailure as exc:
            r.failed, r.errors = 1, [str(exc)]
        r.outputs = [results[v][s] for v in values for s in spec.schemes]
        r.quality["ra_frac"] = float(np.mean(
            [10.0 ** (results[v]["RA"] / 10.0)
             / full_array_gain(spec.pattern, replace(spec, num_antennas=v).geometry)
             for v in values]))
        r.quality["lead_db"] = float(np.mean(
            [results[v]["RA"] - max(results[v]["FOA"], results[v]["IA"])
             for v in values]))
        return r

    def summary(self, rounds):
        done = [r.quality for r in rounds if r.quality]
        return {"worst_gain_frac": (float(np.mean([q["ra_frac"] for q in done]))
                                    if done else 0.0, "ratio"),
                "ra_lead_db": (float(np.mean([q["lead_db"] for q in done]))
                               if done else 0.0, "dB")}


class WideSwarm(Workload):
    name, unit = "wide_swarm", "solves"

    def __init__(self, seed, work_dir, size):
        super().__init__(seed, work_dir, size)
        self.min_rounds = size["wide_quality_rounds"]

    def scenario_docs(self):
        doc = self._doc(WIDE_BEAMS, self.size["wide_antennas"], schemes=["RA"])
        doc["solver"].setdefault("pso", {})["num_particles"] = \
            self.size["wide_particles"]
        return {"wide": doc}

    def round(self, index):
        r = Round()
        spec = self.specs["wide"]
        rep = _solve(r, spec, "RA", _run_seeds(self.seed, 4, index, 1)[0])
        if rep:
            r.quality["wide"] = rep.min_desired_gain / \
                full_array_gain(spec.pattern, spec.geometry)
        return r

    def summary(self, rounds):
        """Best-of-seeds RA quality over the first ``min_rounds`` seeds."""
        fracs = [r.quality.get("wide", 0.0) for r in rounds[:self.min_rounds]]
        return {"worst_gain_frac": (max(fracs, default=0.0), "ratio")}


class PatternDense(Workload):
    name, unit = "pattern_dense", "rows"

    def scenario_docs(self):
        return {"far": self._doc(dict(PAIRS)["far"], self.size["num_antennas"])}

    def prepare(self):
        """Solve the far pair per scheme and save each best-of-seeds report."""
        super().prepare()
        spec = self.specs["far"]
        seeds = _run_seeds(self.seed, 5, 0, self.size["pattern_seeds"])
        self.states = {}
        for scheme in SCHEMES:
            rep = experiments.best_report([experiments.run_single(spec, scheme, s)
                                           for s in seeds])
            experiments.write_report_json(self.dir / f"report_{scheme.lower()}.json",
                                          rep, spec)
            self.states[scheme] = rep.final_state
            if scheme == "RA":
                self.ra_frac = rep.min_desired_gain / full_array_gain(
                    spec.pattern, spec.geometry)

    def round(self, index):
        r = Round(attempted=1)
        spec, step = self.specs["far"], self.size["pattern_step"]
        scheme = SCHEMES[index % len(SCHEMES)]
        out = self.dir / f"pattern_{scheme.lower()}.csv"
        argv = ["pattern", str(self.dir / "far.json"), "--state",
                str(self.dir / f"report_{scheme.lower()}.json"),
                "--step", repr(step), "--out", str(out)]
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
        if code != 0:
            r.failed, r.errors = 1, [f"pattern exited {code}"]
            return r
        r.work_s, r.latencies_ms = dt, [dt * 1e3]
        r.units = int(round(180.0 / step)) + 1
        try:
            checks.check_pattern_csv(out, step, self.states[scheme],
                                     None if scheme == "IA" else spec.pattern,
                                     spec.geometry, spec.desired_angles_deg)
        except checks.CheckFailure as exc:
            r.failed, r.errors = 1, [str(exc)]
        r.outputs = [scheme, r.units]
        return r

    def summary(self, rounds):
        return {"worst_gain_frac": (self.ra_frac, "ratio")}


WORKLOADS = {cls.name: cls for cls in (PaperPairs, McSweep, WideSwarm,
                                        PatternDense)}
