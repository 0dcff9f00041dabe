"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests

Tiny-size runs of every workload check that each contract metric is printed
with its unit; the rest checks span arithmetic and the failure paths.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("paper_pairs", "mc_sweep", "wide_swarm", "pattern_dense")
OWN_NAMES = {"paper_pairs": ("solves_per_s", "solve_p50_ms", "solve_tail_ms",
                             "worst_gain_frac.close", "worst_gain_frac.far"),
             "mc_sweep": ("solves_per_s", "cells_per_s", "ra_lead_db"),
             "wide_swarm": ("solves_per_s", "solve_p50_ms", "solve_tail_ms",
                            "worst_gain_frac"),
             "pattern_dense": ("pattern_rows_per_s", "worst_gain_frac")}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        table = "\n".join(lines[:-1])
        for name in OWN_NAMES[workload] + ("wall_s", "failed_share"):
            assert f"#   {name} " in table


def test_end_to_end_names_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"]
                              for m in CONTRACT["end_to_end"]}
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]


def test_throughput_is_scaled_to_reference_host_speed():
    wl = SimpleNamespace(name="stub", unit="solves", summary=lambda rounds: {})
    rounds = [SimpleNamespace(work_s=1.0, latencies_ms=[1000.0], units=2,
                              solves=2) for _ in range(2)]
    ref = hostspeed.REFERENCE_S
    # the kernel ran at reference speed, then twice as slow: round 1 ran on a
    # host 1.5x slower than the reference, round 2 on one 2x slower
    m = run.end_to_end(wl, rounds, [ref, 2 * ref, 2 * ref], 2.0, 40.0, [0.3])
    assert m["work_per_s"][0] == pytest.approx(2.0)
    assert m["norm_work_per_s"][0] == pytest.approx(4 / (1 / 1.5 + 1 / 2))


def test_self_time_subtracts_covered_child_time():
    spans = [Span("ao.solve_ra", 0.0, 10.0),
             Span("sca.optimize_weights", 1.0, 4.0, parent=0),
             Span("convex_core.solve_epigraph", 2.0, 3.0, parent=1),
             Span("pso.optimize_rotations", 5.0, 7.0, parent=0),
             Span("pso.step", 6.0, 6.5, parent=3),
             # a child reaching past its parent only covers the overlap
             Span("array_model.array_gain", 9.5, 11.0, parent=0)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 3 - 2 - 0.5, 2.0, 1.0, 1.5, 0.5, 1.5])
    everything = range(len(spans))
    by_layer = tracing.layer_self_s(spans, selfs, everything)
    assert by_layer == pytest.approx({"ao": 4.5, "sca": 2.0, "convex_core": 1.0,
                                      "pso": 2.0, "array_model": 1.5})
    inclusive = tracing.layer_inclusive_s(spans, everything)
    assert inclusive["pso"] == pytest.approx(2.0)     # step counted once
    assert inclusive["ao"] == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    spans = [Span("bench.round", 0.0, 10.0),
             Span("a.x", 2.0, 6.0, parent=0),
             Span("b.y", 4.0, 8.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tail_needs_ten_samples_beyond_it():
    assert tracing.tail(list(range(1, 101)))[1:] == (90.0, 100)
    assert tracing.tail(list(range(1, 1001)))[1:] == (99.0, 1000)
    assert tracing.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)
    assert tracing.tail([]) == (0.0, 0.0, 0)


@pytest.mark.parametrize("workload,tolerance", [
    ("paper_pairs", "CAP_TOL"), ("pattern_dense", "PATTERN_RTOL")])
def test_failed_check_exits_nonzero(workload, tolerance, monkeypatch, capsys):
    run.import_program()
    import checks
    monkeypatch.setattr(checks, tolerance, -1.0)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper_pairs", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
