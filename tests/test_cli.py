import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ra_beamkit.array_model import (ArrayGeometry, BeamformerState,
                                    RadiationPattern, array_gain)
from ra_beamkit import experiments, sca
from ra_beamkit import scenario as scenario_mod
from ra_beamkit.cli import main
from ra_beamkit.experiments import (gain_to_db, load_report_state,
                                    sample_gain_pattern, write_pattern_csv)
from ra_beamkit.scenario import MAX_ANTENNAS

ROOT = Path(__file__).resolve().parents[1]
RUN_FILES = ["summary.csv"] + [f"{kind}_{scheme}.{ext}"
                               for scheme in ("ra", "foa", "ia")
                               for kind, ext in (("report", "json"),
                                                 ("pattern", "csv"))]


@pytest.fixture(autouse=True)
def serial_pool(monkeypatch):
    # deterministic single-worker runs inside the test process
    monkeypatch.setenv("RA_BEAMKIT_THREADS", "1")


FAST_SOLVER = {
    "pso": {"num_particles": 30, "max_iterations": 25},
    "max_outer_iterations": 8,
}


def write_scenario(tmp_path, name="scenario.json", **overrides):
    doc = {
        "num_antennas": 6,
        "desired_angles_deg": [80.0, 100.0],
        "interference_angles_deg": [30.0],
        "schemes": ["RA", "FOA", "IA"],
        "solver": FAST_SOLVER,
        "seeds": 2,
        "pattern_sample_step_deg": 1.0,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_produces_all_outputs(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 0
    for scheme in ("ra", "foa", "ia"):
        assert (out / f"report_{scheme}.json").exists()
        assert (out / f"pattern_{scheme}.csv").exists()
    rows = read_csv(out / "summary.csv")
    assert rows[0] == ["scheme", "min_desired_gain_linear",
                       "min_desired_gain_db", "fraction_of_full_gain"]
    assert [r[0] for r in rows[1:]] == ["RA", "FOA", "IA"]
    fractions = [float(r[3]) for r in rows[1:]]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert "scheme" in capsys.readouterr().out


def test_pattern_csv_matches_report_state(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 0
    scheme, state = load_report_state(out / "report_ra.json")
    pat = RadiationPattern()
    geo = ArrayGeometry(6)
    rows = read_csv(out / "pattern_ra.csv")[1:]
    table = {float(r[0]): float(r[1]) for r in rows}
    for angle in (80.0, 100.0, 30.0):
        expected = array_gain(state.weights, pat, geo, state.rotations_deg,
                              angle)
        assert table[angle] == pytest.approx(expected, abs=1e-9, rel=1e-9)


def test_report_json_contents(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 0
    with open(out / "report_ra.json") as fh:
        doc = json.load(fh)
    assert doc["scheme"] == "RA"
    assert doc["seed"] in (0, 1)
    assert len(doc["final_state"]["weights_real"]) == 6
    assert doc["config"]["pso"]["num_particles"] == 30
    assert doc["scenario"]["desired_angles_deg"] == [80.0, 100.0]
    hist = doc["objective_history"]
    assert doc["min_desired_gain"] == hist[-1]
    assert doc["max_interference_gain"] <= 0.1 + 1e-8


def test_run_determinism(tmp_path):
    scenario = write_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", scenario, "--out", str(out1)]) == 0
    assert main(["run", scenario, "--out", str(out2)]) == 0
    for name in ("summary.csv", "pattern_ra.csv", "report_ra.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_schemes_and_seed_count_flags(tmp_path, monkeypatch):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out), "--schemes", "foa",
                 "--seed-count", "1"]) == 0
    assert (out / "report_foa.json").exists()
    assert not (out / "report_ra.json").exists()
    # the flags replace the file's keys as a file would set them
    specs = []
    monkeypatch.setattr(experiments, "run_scenario",
                        lambda spec, output_dir: specs.append(spec))
    assert main(["run", scenario, "--schemes", "ia,ra",
                 "--seed-count", "3"]) == 0
    assert (specs[0].schemes, specs[0].seeds) == (("IA", "RA"), (0, 1, 2))


def test_malformed_angle_exits_1(tmp_path, capsys):
    scenario = write_scenario(tmp_path, desired_angles_deg=[200.0])
    assert main(["run", scenario, "--out", str(tmp_path / "o")]) == 1
    assert "desired_angles_deg" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"desired_angles_deg": [90.0], "bogus": 1}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key,literal", [("eta_max_db", "NaN"),
                                         ("pattern_sample_step_deg", "Infinity")])
def test_non_finite_number_exits_1(tmp_path, capsys, key, literal):
    # before, NaN reached the solver (exit 2) and Infinity wrote a one-row
    # pattern (exit 0)
    path = tmp_path / "bad.json"
    path.write_text(f'{{"desired_angles_deg": [90.0], "{key}": {literal}}}')
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err


def test_scenario_with_non_utf8_bytes_exits_1(tmp_path, capsys):
    # before: exit 2, "solver error: 'utf-8' codec can't decode byte 0xff"
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"desired_angles_deg": [90.0]}\xff')
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "scenario error" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_3(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 3


def test_unwritable_output_exits_3(tmp_path):
    scenario = write_scenario(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["run", scenario, "--out", str(blocker / "sub")]) == 3


def test_solver_failure_exits_2(tmp_path, monkeypatch):
    scenario = write_scenario(tmp_path)
    import ra_beamkit.experiments as experiments

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic solver failure")

    monkeypatch.setattr(experiments, "run_scenario", boom)
    assert main(["run", scenario, "--out", str(tmp_path / "o")]) == 2


def _foa_solves_marked_uncertified(tmp_path, capsys, monkeypatch, argv):
    """Run ``argv`` as is, then with every FOA weight-step subproblem given
    the status 'max_iterations'.  Only stderr may change, by one line that
    counts them; returns how many FOA solves ran."""
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""

    real_run, real_solve = experiments.run_single, sca.solve_epigraph
    running, flagged = [], Counter()

    def tagging(spec, scheme, seed, entropy=()):
        running.append(scheme)
        return real_run(spec, scheme, seed, entropy)

    def foa_uncertified(problem):
        sol = real_solve(problem)
        if running[-1] != "FOA":
            return sol
        flagged[running[-1]] += 1
        return dataclasses.replace(sol, status="max_iterations")

    monkeypatch.setattr(experiments, "run_single", tagging)
    monkeypatch.setattr(sca, "solve_epigraph", foa_uncertified)
    assert main(argv + ["--out", str(tmp_path / "flagged")]) == 0
    out = capsys.readouterr()
    assert flagged["FOA"] > 0
    assert out.err.splitlines() == [
        f"warning: FOA: {flagged['FOA']} weight-step subproblems ended "
        f"uncertified (status 'max_iterations')"]
    assert out.out == plain.out
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "flagged").iterdir())
    for name in files:
        assert (tmp_path / "flagged" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()
    return running.count("FOA")


def test_run_reports_uncertified_subproblems_on_stderr(tmp_path, capsys,
                                                      monkeypatch):
    # one stderr line per scheme whose subproblems, over all its seeds, were
    # not all certified; no file and no byte of stdout changes
    scenario = write_scenario(tmp_path, schemes=["FOA", "IA"])
    assert _foa_solves_marked_uncertified(tmp_path, capsys, monkeypatch,
                                          ["run", scenario]) == 2


def test_sweep_reports_uncertified_subproblems_on_stderr(tmp_path, capsys,
                                                        monkeypatch):
    # run's line, counted over every cell and seed; run_sweep's result, like
    # sweep.csv and stdout, does not change
    scenario = write_scenario(tmp_path, schemes=["FOA", "IA"])
    real_sweep, results = experiments.run_sweep, []
    monkeypatch.setattr(experiments, "run_sweep",
                        lambda *a: results.append(real_sweep(*a)))
    argv = ["sweep", scenario, "--field", "num_antennas", "--values", "4,5",
            "--scenarios", "2"]
    assert _foa_solves_marked_uncertified(tmp_path, capsys, monkeypatch,
                                          argv) == 2 * 2 * 2
    assert results[0] == results[1]


def test_pattern_subcommand_stdout(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["pattern", scenario, "--state",
                 str(out / "report_ia.json"), "--step", "45"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "psi_deg,gain_linear,gain_db"
    assert len(lines) == 1 + 5    # 0,45,90,135,180


def test_pattern_subcommand_regenerates_identical_csv(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 0
    regen = tmp_path / "regen.csv"
    assert main(["pattern", scenario, "--state", str(out / "report_ra.json"),
                 "--step", "1.0", "--out", str(regen)]) == 0
    assert regen.read_bytes() == (out / "pattern_ra.csv").read_bytes()


def test_sweep_csv_and_determinism(tmp_path):
    scenario = write_scenario(tmp_path, seeds=1)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sweep", scenario, "--field", "num_antennas", "--values", "4,6",
            "--scenarios", "2", "--base-seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    rows = read_csv(out1 / "sweep.csv")
    assert rows[0] == ["sweep_value", "scheme", "mean_maxmin_gain_db",
                       "delta_vs_ra_db"]
    assert len(rows) == 1 + 2 * 3
    ra_rows = [r for r in rows[1:] if r[1] == "RA"]
    assert all(float(r[3]) == 0.0 for r in ra_rows)
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_single_cell_matches_run(tmp_path):
    # a degenerate sweep (one value, one scenario) writes one row per scheme,
    # and the rotating scheme is not behind the isotropic one
    scenario = write_scenario(tmp_path, seeds=1)
    out = tmp_path / "sweep"
    assert main(["sweep", scenario, "--field", "eta_max_db", "--values",
                 "-10", "--scenarios", "1", "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    gains_db = {r[1]: float(r[2]) for r in rows[1:]}
    assert gains_db["RA"] >= gains_db["IA"] - 1e-9


def test_parallel_pool_matches_serial(tmp_path, monkeypatch):
    # two seeds, so each (cell, scheme) group of pool tasks is reduced
    scenario = write_scenario(tmp_path, seeds=2)
    sweep = ["sweep", scenario, "--field", "num_antennas", "--values", "4,5",
             "--scenarios", "2"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", scenario, "--out", str(serial)]) == 0
    assert main(sweep + ["--out", str(serial / "sweep")]) == 0
    monkeypatch.setenv("RA_BEAMKIT_THREADS", "2")
    assert main(["run", scenario, "--out", str(parallel)]) == 0
    assert main(sweep + ["--out", str(parallel / "sweep")]) == 0
    for name in ("summary.csv", "report_ra.json", "pattern_ra.csv",
                 "sweep/sweep.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sweep_means_do_not_depend_on_the_scheme_list(tmp_path):
    # every solve's streams depend on its cell and seed, not on the other
    # schemes, so a sweep of IA and RA finds the IA and RA means of a sweep
    # of all three
    means = []
    for schemes in (["IA", "RA"], ["RA", "FOA", "IA"]):
        scenario = write_scenario(tmp_path, schemes=schemes)
        out = tmp_path / "-".join(schemes)
        assert main(["sweep", scenario, "--field", "num_antennas", "--values",
                     "4,5", "--scenarios", "2", "--out", str(out)]) == 0
        means.append({(r[0], r[1]): r[2]
                      for r in read_csv(out / "sweep.csv")[1:]})
    assert means[0] == {key: db for key, db in means[1].items()
                        if key[1] != "FOA"}


def test_sweep_bad_field_exits_1(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main(["sweep", scenario, "--field", "nope", "--values", "1",
                 "--out", str(tmp_path / "o")]) == 1
    assert "sweep field" in capsys.readouterr().err


def test_sweep_bad_values_exit_1(tmp_path):
    scenario = write_scenario(tmp_path)
    assert main(["sweep", scenario, "--field", "num_antennas", "--values",
                 "abc", "--out", str(tmp_path / "o")]) == 1


def _paper_experiments():
    """The commands of the README's "Paper experiments" block, as argv."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Paper experiments", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("ra-beamkit ")]


def test_readme_and_scenarios_directory_agree():
    # every scenario file has a README command, and every scenarios/ path
    # the README names exists
    readme = (ROOT / "README.md").read_text()
    for path in re.findall(r"scenarios/[\w.-]*\w", readme):
        assert (ROOT / path).exists(), path
    files = {p.relative_to(ROOT).as_posix()
             for p in (ROOT / "scenarios").glob("*.json")}
    assert files == {argv[1] for argv in _paper_experiments()}


def test_paper_experiments_run(tmp_path):
    # each README command at its smallest size: the repeated flags win
    for argv in _paper_experiments():
        smallest = {"run": ["--seed-count", "1"],
                    "sweep": ["--values", "3", "--scenarios", "1"]}[argv[0]]
        out = tmp_path / Path(argv[1]).stem
        assert main([argv[0], str(ROOT / argv[1]), *argv[2:], *smallest,
                     "--out", str(out)]) == 0, argv
        for name in RUN_FILES if argv[0] == "run" else ["sweep.csv"]:
            assert (out / name).stat().st_size > 0, (argv, name)


def test_pattern_stdout_matches_out_file(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 0
    for scheme in ("ra", "ia"):
        state = str(out / f"report_{scheme}.json")
        regen = tmp_path / f"regen_{scheme}.csv"
        # 1801 rows: more than one formatting block
        assert main(["pattern", scenario, "--state", state, "--step", "0.1",
                     "--out", str(regen)]) == 0
        capsys.readouterr()
        assert main(["pattern", scenario, "--state", state,
                     "--step", "0.1"]) == 0
        assert capsys.readouterr().out.encode() == regen.read_bytes()


def test_pattern_writer_matches_row_by_row_formatting(tmp_path):
    # the reference is the row loop the block writer replaced
    geo = ArrayGeometry(5)
    rng = np.random.default_rng(4)
    state = BeamformerState(rng.normal(size=5) + 1j * rng.normal(size=5),
                            rng.uniform(-90.0, 90.0, 5))
    path = tmp_path / "pattern.csv"
    write_pattern_csv(path, state, RadiationPattern(), geo, 0.05)
    psi, gains = sample_gain_pattern(state, RadiationPattern(), geo, 0.05)
    expected = "psi_deg,gain_linear,gain_db\n" + "".join(
        f"{p:.17g},{g:.17g},{d:.17g}\n"
        for p, g, d in zip(psi, gains, gain_to_db(gains)))
    assert path.read_text() == expected


def _writer(tmp_path, command):
    """(write, names): ``write(out)`` runs ``command`` with its output in the
    directory ``out`` and returns the exit code; ``names`` are the files it
    writes there."""
    scenario = write_scenario(tmp_path, seeds=1)
    state = tmp_path / "state"
    if command == "pattern":
        assert main(["run", scenario, "--out", str(state)]) == 0
    argv, names = {
        "run": (["run", scenario], RUN_FILES),
        "sweep": (["sweep", scenario, "--field", "num_antennas", "--values",
                   "4,6", "--scenarios", "2"], ["sweep.csv"]),
        "pattern": (["pattern", scenario, "--state",
                     str(state / "report_ra.json"), "--step", "0.1"],
                    ["pattern.csv"]),
    }[command]

    def write(out):
        out.mkdir(exist_ok=True)
        target = out / "pattern.csv" if command == "pattern" else out
        return main(argv + ["--out", str(target)])
    return write, names


@pytest.mark.parametrize("command", ["run", "sweep", "pattern"])
@pytest.mark.parametrize("stale", ["longer", "shorter"])
def test_rewritten_outputs_equal_fresh_ones(tmp_path, capsys, command, stale):
    # every output already exists, holding twice its fresh bytes or only
    # their first 10; each ends with the fresh bytes, in the same inode with
    # the same permission bits
    write, names = _writer(tmp_path, command)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert write(fresh) == 0
    old.mkdir()
    for name in names:
        data = (fresh / name).read_bytes()
        (old / name).write_bytes(data * 2 if stale == "longer" else data[:10])
        (old / name).chmod(0o604)
    inodes = {name: (old / name).stat().st_ino for name in names}
    assert write(old) == 0
    for name in names:
        assert (old / name).read_bytes() == (fresh / name).read_bytes(), name
        st = (old / name).stat()
        assert (st.st_ino, stat.S_IMODE(st.st_mode)) == (inodes[name], 0o604)


@pytest.mark.parametrize("command", ["run", "sweep", "pattern"])
def test_writers_open_without_truncating(tmp_path, capsys, monkeypatch,
                                         command):
    # every output is opened by os.open without O_TRUNC, and a new file gets
    # the mode open(path, "w") gives it
    write, names = _writer(tmp_path, command)
    calls, real_open = [], os.open

    def recording_open(path, flags, mode=0o777, **kwargs):
        calls.append((os.path.basename(path), flags))
        return real_open(path, flags, mode, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    out = tmp_path / "out"
    assert write(out) == 0
    assert sorted(name for name, _ in calls) == sorted(names)
    assert not [name for name, flags in calls if flags & os.O_TRUNC]
    umask = os.umask(0)
    os.umask(umask)
    for name in names:
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o666 & ~umask


def test_failed_pattern_write_leaves_no_stale_tail(tmp_path, monkeypatch):
    # an exception on the second block cuts the old, longer file right after
    # the header and the first block
    path = tmp_path / "pattern.csv"
    path.write_bytes(b"stale\n" * 100_000)
    blocks, real_block = [], experiments._pattern_csv_block

    def failing_block(*args):
        if blocks:
            raise RuntimeError("second block")
        blocks.append(real_block(*args))
        return blocks[0]

    monkeypatch.setattr(experiments, "_pattern_csv_block", failing_block)
    with pytest.raises(RuntimeError, match="second block"):
        # 9001 rows at N = 5: two blocks
        write_pattern_csv(path, _random_state(5), RadiationPattern(),
                          ArrayGeometry(5), 0.02)
    assert path.read_bytes() == \
        ("psi_deg,gain_linear,gain_db\n" + blocks[0]).encode()


def test_failed_flush_still_cuts_the_old_tail(tmp_path, monkeypatch):
    # storage takes the first 100 bytes of a pattern and then fails, so the
    # error comes from the flush on exit; the file is cut after those bytes
    class FailingFile(io.FileIO):
        def write(self, data):
            if self.tell() >= 100:
                raise OSError(errno.EIO, "write failed")
            return super().write(bytes(data[:100 - self.tell()]))

    def failing_open(fd, mode, **kwargs):
        return io.TextIOWrapper(io.BufferedWriter(FailingFile(fd, "w")),
                                **kwargs)

    path = tmp_path / "pattern.csv"
    path.write_bytes(b"stale\n" * 100_000)
    args = _random_state(5), RadiationPattern(), ArrayGeometry(5), 5.0
    fresh = io.StringIO()
    write_pattern_csv(fresh, *args)
    assert 100 < len(fresh.getvalue()) < 8192   # held in the buffer till exit
    monkeypatch.setattr(experiments, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="write failed"):
        write_pattern_csv(path, *args)
    assert path.read_bytes() == fresh.getvalue().encode()[:100]


def test_pattern_to_a_device_exits_0(tmp_path):
    # a device such as the null device is written but never cut to length
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 0
    assert main(["pattern", scenario, "--state", str(out / "report_ra.json"),
                 "--out", os.devnull]) == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_pattern_to_a_pipe_is_written_whole(tmp_path):
    # a pipe has no offset to cut at; its reader gets every byte
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    args = _random_state(5), RadiationPattern(), ArrayGeometry(5), 0.02
    write_pattern_csv(fifo, *args)
    reader.join(60)
    fresh = io.StringIO()
    write_pattern_csv(fresh, *args)
    assert got == [fresh.getvalue().encode()]


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"],
                                  ["sweep", "--help"], ["pattern", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage: ra-beamkit" in capsys.readouterr().out


@pytest.mark.parametrize("argv,flag", [
    (["pattern", "--step", "inf"], "--step"),
    (["pattern", "--step", "1e-12"], "--step"),       # past MAX_PATTERN_SIZE
    (["sweep", "--field", "eta_max_db", "--values", "nan"], "--values"),
    (["sweep", "--field", "eta_max_db", "--values", "inf"], "--values"),
    (["sweep", "--field", "num_antennas", "--values", "4.7"], "--values"),
    (["sweep", "--field", "num_antennas", "--values", "0"], "--values"),
    (["sweep", "--field", "num_antennas", "--values", str(MAX_ANTENNAS + 1)],
     "--values"),
    (["sweep", "--field", "spacing_wavelengths", "--values", "-1"], "--values"),
    (["sweep", "--field", "eta_max_db", "--values", "-5", "--base-seed", "-1"],
     "--base-seed"),
    (["run", "--schemes", "foa,FOA"], "--schemes"),
    (["sweep", "--field", "eta_max_db", "--values=-5,-5,-5.0"], "--values"),
    (["sweep", "--field", "eta_max_db", "--values", "-5", "--scenarios", "0"],
     "--scenarios"),
    (["sweep", "--field", "eta_max_db", "--values", "4000"], "--values"),
    (["sweep", "--field", "eta_max_db", "--values", "-150"], "--values"),
    (["run", "--schemes", ""], "--schemes"),
    (["sweep", "--field", "spacing_wavelengths", "--values", "1e7"], "--values"),
    (["sweep", "--field", "num_antennas", "--values", ","], "--values"),
    (["pattern", "--step", "0"], "--step"),
    (["run", "--seed-count", "0"], "--seed-count"),
    (["run", "--schemes", "bogus"], "--schemes"),
    # usage errors that argparse finds itself
    (["run", "--seed-count", "abc"], "--seed-count"),
    (["sweep", "--field", "eta_max_db", "--values", "-5", "--scenarios",
      "two"], "--scenarios"),
    (["sweep", "--field", "eta_max_db", "--values", "-5", "--base-seed",
      "1.5"], "--base-seed"),
    (["sweep", "--values", "-5"], "--field"),
    (["pattern"], "--state"),
    (["run", "--bogus"], "--bogus"),
])
def test_bad_flag_value_exits_1(tmp_path, capsys, argv, flag):
    # before: --step inf and --values inf exited 0, 4.7 solved N = 4,
    # nan, 0 and -1 exited 2 from the solver, --base-seed -1 exited 2 and
    # --schemes foa,FOA solved and wrote every seed twice; --values -5,-5,-5.0
    # solved each copy and wrote the last one's cells three times; eta caps
    # of 4000 and -150 dB exited 2 from the solver; --schemes "" solved
    # every scheme; a spacing of 1e7 wavelengths swept on float64 noise;
    # the usage errors exited 2, the code of a solver failure
    scenario = write_scenario(tmp_path)
    state = tmp_path / "report.json"
    state.write_text(json.dumps({"scheme": "FOA", "final_state": {
        "weights_real": [0.4] * 6, "weights_imag": [0.0] * 6,
        "rotations_deg": [0.0] * 6}}))
    extra = ["--state", str(state)] \
        if argv[0] == "pattern" and flag != "--state" else []
    out = tmp_path / "o"
    assert main([argv[0], scenario, *extra, *argv[1:],
                 "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)


def _random_state(n, seed=4):
    rng = np.random.default_rng(seed)
    return BeamformerState(rng.normal(size=n) + 1j * rng.normal(size=n),
                           rng.uniform(-90.0, 90.0, n))


@pytest.mark.parametrize("element", ["patterned", "isotropic"])
@pytest.mark.parametrize("n,step", [(1, 0.005), (15, 0.015), (64, 0.02)])
def test_streamed_pattern_matches_one_shot_grid(n, step, element):
    # the reference samples the whole linspace grid in one call and formats
    # it row by row, as the writer did before it streamed blocks
    pattern = RadiationPattern() if element == "patterned" else None
    geo, state = ArrayGeometry(n), _random_state(n)
    rows = int(round(180.0 / step)) + 1
    block = experiments.pattern_block_rows(n)
    assert rows > 2 * block and rows % block    # >= 3 blocks, ragged last
    psi, gains = sample_gain_pattern(state, pattern, geo, step)
    expected = ["psi_deg,gain_linear,gain_db\n"] + [
        "%.17g,%.17g,%.17g\n" % row
        for row in zip(psi.tolist(), gains.tolist(), gain_to_db(gains).tolist())]
    out = io.StringIO()
    write_pattern_csv(out, state, pattern, geo, step)
    written = out.getvalue().splitlines(keepends=True)
    # name the first differing line, not a diff of two 36 001-line strings
    first = next((i for i, (a, b) in enumerate(zip(written, expected))
                  if a != b), min(len(written), len(expected)))
    same = first == len(written) == len(expected)
    assert same, (
        f"line {first + 1}: wrote {written[first:first + 1]}, "
        f"one-shot grid gives {expected[first:first + 1]}")


@pytest.mark.parametrize("step", [400.0, 180.0, 90.0, 180 / 39, 0.1, 0.0137,
                                  1 / 3, 0.001])
def test_pattern_blocks_rebuild_linspace_grid(step):
    # at 40 rows, 39 * (180 / 39) is not 180: linspace sets the last row
    rows = int(round(180.0 / step)) + 1
    state = _random_state(1)
    bounds = list(range(0, rows, 977)) + [rows]
    blocks = [sample_gain_pattern(state, None, ArrayGeometry(1), step, a, b)[0]
              for a, b in zip(bounds, bounds[1:])]
    whole = sample_gain_pattern(state, None, ArrayGeometry(1), step)[0]
    reference = np.linspace(0.0, 180.0, rows).tobytes()
    assert np.concatenate(blocks).tobytes() == reference
    assert whole.tobytes() == reference


@pytest.mark.parametrize("n", [1, 15, 64, MAX_ANTENNAS])
def test_pattern_writer_memory_is_bounded(n):
    # 180 001 rows x 15 elements: the one-shot writer peaked at about 65 MiB.
    # At N = 1024 the 0.001 deg grid is cut to the pattern-size ceiling,
    # 16 384 rows.
    step = max(0.001, 180.0 / (scenario_mod.MAX_PATTERN_SIZE // n - 1))
    state = _random_state(n)
    tracemalloc.start()
    try:
        write_pattern_csv(_Discard(), state, RadiationPattern(),
                          ArrayGeometry(n), step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _write_report(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    return path


_GOOD_STATE = {"weights_real": [0.4] * 6, "weights_imag": [0.0] * 6,
               "rotations_deg": [0.0] * 6}


@pytest.mark.parametrize("text", [
    json.dumps({"scheme": "RA", "final_state": {
        "weights_real": [0.4] * 4, "weights_imag": [0.0] * 4,
        "rotations_deg": [0.0] * 4}}),                    # N = 4, not 6
    json.dumps({"scheme": "RA", "final_state": {
        **_GOOD_STATE, "rotations_deg": [0.0] * 5}}),     # ragged lengths
    json.dumps({"scheme": "RA"}),                         # no final_state
    json.dumps({"final_state": _GOOD_STATE}),             # no scheme
    json.dumps({"scheme": "RA", "final_state": {
        "weights_real": [0.4] * 6, "weights_imag": [0.0] * 6}}),
    "{not json",
    json.dumps([1, 2, 3]),
    json.dumps({"scheme": "RA", "final_state": [0.4] * 6}),
    json.dumps({"scheme": "RA", "final_state": {
        **_GOOD_STATE, "weights_imag": "0"}}),
    json.dumps({"scheme": "RA", "final_state": {
        **_GOOD_STATE, "weights_real": [0.4] * 5 + [float("nan")]}}),
    json.dumps({"scheme": "FOA", "final_state": {
        **_GOOD_STATE, "rotations_deg": [0.0] * 5 + [1e999]}}),
    json.dumps({"scheme": "XYZ", "final_state": _GOOD_STATE}),
    json.dumps({"scheme": "ra", "final_state": _GOOD_STATE}),
], ids=["wrong-n", "ragged", "no-final-state", "no-scheme", "no-rotations",
        "not-json", "not-object", "state-not-object", "not-a-list", "nan",
        "infinity", "unknown-scheme", "lower-case-scheme"])
def test_malformed_state_exits_1(tmp_path, capsys, text):
    # before: exit 2 (solver error) for the first seven, exit 0 with nan
    # gains for the NaN weight, and exit 0 for an unknown scheme
    scenario = write_scenario(tmp_path)
    state = _write_report(tmp_path, text)
    out = tmp_path / "pattern.csv"
    assert main(["pattern", scenario, "--state", str(state),
                 "--out", str(out)]) == 1
    assert "--state" in capsys.readouterr().err
    assert not out.exists()
    assert main(["pattern", scenario, "--state", str(state)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--state" in captured.err


def test_state_with_non_utf8_bytes_exits_1(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    state = tmp_path / "report.json"
    state.write_bytes(b"\xff\xfe{}")
    assert main(["pattern", scenario, "--state", str(state)]) == 1
    assert "--state" in capsys.readouterr().err


def test_task_ceiling_checked_before_anything_is_queued(tmp_path, capsys,
                                                      monkeypatch):
    # MAX_TASKS lowered so that no large count is ever asked for
    monkeypatch.setattr(scenario_mod, "MAX_TASKS", 4)
    monkeypatch.setattr(experiments, "MAX_TASKS", 4)
    scenario = write_scenario(tmp_path)
    out = tmp_path / "o"
    assert main(["run", scenario, "--seed-count", "5", "--out", str(out)]) == 1
    assert "'seeds' in --seed-count" in capsys.readouterr().err
    assert main(["sweep", scenario, "--field", "num_antennas", "--values",
                 "4,6", "--scenarios", "3", "--out", str(out)]) == 1
    assert "--scenarios" in capsys.readouterr().err
    # 1 value times 3 scenarios fits, but every one of the 2 seeds is a task
    assert main(["sweep", scenario, "--field", "num_antennas", "--values",
                 "4", "--scenarios", "3", "--out", str(out)]) == 1
    assert "--scenarios" in capsys.readouterr().err
    assert not out.exists()


def test_minimal_state_is_accepted(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    state = _write_report(tmp_path, json.dumps({"scheme": "IA",
                                                "final_state": _GOOD_STATE}))
    assert main(["pattern", scenario, "--state", str(state),
                 "--step", "45"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", ["two", "", "1.5"])
def test_bad_thread_count_exits_1(tmp_path, capsys, monkeypatch, command,
                                  value):
    # before: exit 2 (solver error) after the output directory was made
    monkeypatch.setenv("RA_BEAMKIT_THREADS", value)
    scenario = write_scenario(tmp_path)
    extra = (["--field", "eta_max_db", "--values", "-5"]
             if command == "sweep" else [])
    out = tmp_path / "o"
    assert main([command, scenario, *extra, "--out", str(out)]) == 1
    assert "RA_BEAMKIT_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value,expected", [("3", 3), ("1", 1), ("0", 1),
                                            ("-2", 1)])
def test_thread_count_is_clamped_to_one(monkeypatch, value, expected):
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setenv("RA_BEAMKIT_THREADS", value)
    assert experiments.worker_count() == expected


def test_worker_count_follows_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("RA_BEAMKIT_THREADS")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    assert experiments.worker_count() == 3
    # a larger request starts no more workers than there are CPUs
    monkeypatch.setenv("RA_BEAMKIT_THREADS", "100000")
    assert experiments.worker_count() == 3
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    assert experiments.worker_count() == 64
    monkeypatch.delenv("RA_BEAMKIT_THREADS")
    assert experiments.worker_count() == 4


def _exact_tie(k, i):
    """(2i + 1) / 2**(k + 1): times 10**k it is an odd multiple of 1/2."""
    return (2 * i + 1) / 2 ** (k + 1)


def _tie_range(k):
    # the i with the tie in [10**(16 - k), 10**(17 - k)), where "%.17g"
    # keeps k decimals, and 2i + 1 < 2**53, so that the float is exact
    low = Fraction(10) ** (16 - k)
    high = min(Fraction(10) ** (17 - k), Fraction(2) ** (52 - k))
    return (math.ceil((low * 2 ** (k + 1) - 1) / 2),
            math.ceil((high * 2 ** (k + 1) - 1) / 2) - 1)


_ties = st.integers(1, 20).flatmap(
    lambda k: st.integers(*_tie_range(k)).map(lambda i: _exact_tie(k, i)))


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_numbers = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(                       # any bit pattern
        lambda b: float(np.array(b, np.uint64).view(np.float64))),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(1e-4, 1e3, exclude_max=True),                 # the array path
    st.integers(0, 1000).map(float),                        # no fraction
    st.builds(lambda p, steps: _ulps_from(float(f"1e{p}"), steps),
              st.integers(-6, 18), st.integers(-4, 4)),
    _ties,
    st.sampled_from([0.0, math.nan, math.inf, 180.0, -300.0]),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_numbers, _numbers, _numbers), min_size=1,
                max_size=40))
@example([(1e15 + 0.25, 1e15 + 0.75, 5e-5)])
@example([(float(np.nextafter(1e16, 0)), float(np.nextafter(1e-4, 0)),
           float(np.nextafter(0.1, 1)))])
# the doubles just below 1e3, the top edge (a < 1e3) of the array path,
# and 1e3 itself
@example([(_ulps_from(1e3, -1), 1e3, _ulps_from(1e3, -4)),
          (-_ulps_from(1e3, -2), _ulps_from(1e3, 1), -_ulps_from(1e3, -5))])
# negative values at every e in [-4, 2], some just below a power of ten
@example([(-1.2345678901234567 * 10.0 ** e, -9.8765432109876543 * 10.0 ** e,
           -(10.0 ** e) * 9.9999999999999982) for e in range(-4, 3)])
# no fraction; nothing after the first fraction digit; every field by Python
@example([(1.0, 100.0, 180.0), (0.001, -0.0001, 0.5), (0.0, 1e3, math.nan),
          (-0.0, 5e-5, -math.inf)])
def test_format_rows_matches_percent_17g(rows):
    columns = [np.array(c, dtype=float) for c in zip(*rows)]
    expected = "".join("%.17g,%.17g,%.17g\n" % row for row in rows)
    assert experiments._format_rows(columns) == expected


def test_format_rows_writes_every_head_word():
    # every entry of the head tables, which the draws above only sample:
    # each integer part with and without a point, and each run of leading
    # fraction zeros with each first digit, at both signs.  f * 10**-(z + 1)
    # may be written with first digit f - 1 ("0.00069999999999999999"), so
    # (f + 0.5) * 10**-(z + 1) is written too
    values = [v for i in range(1, 1000) for v in (i, i + 0.5)]
    values += [float(f"{f}{half}e-{z + 1}") for f in range(1, 10)
               for z in range(4) for half in ("", ".5")]
    values += [-v for v in values]
    rows = list(zip(*[iter(values)] * 3))
    assert len(rows) * 3 == len(values)
    columns = [np.array(c, dtype=float) for c in zip(*rows)]
    expected = "".join("%.17g,%.17g,%.17g\n" % row for row in rows)
    assert experiments._format_rows(columns) == expected


def test_format_rows_decades_are_exact():
    # the formatter finds the decade e, 10**e <= |x| < 10**(e + 1), by
    # comparing with 1e-4 and _DECADES; each of these doubles lies at or
    # above its power of ten, so every comparison is exact.  Every double
    # within 64 ulp of a power of ten, at both signs, is written as "%.17g"
    # writes it
    bounds = [1e-4, *experiments._DECADES.tolist()]
    for k, bound in zip(range(-4, 3), bounds, strict=True):
        assert Fraction(bound) >= Fraction(10) ** k
    centres = [p for k in range(-4, 4) for p in (10.0 ** k, float(f"1e{k}"))]
    bits = np.array(centres).view(np.int64)[:, None] + np.arange(-64, 65)
    values = bits.view(np.float64).ravel()
    values = np.concatenate([values, -values])
    assert values.size == 4128
    columns = [values[j::3] for j in range(3)]
    expected = "".join("%.17g,%.17g,%.17g\n" % row
                       for row in zip(*(c.tolist() for c in columns)))
    assert experiments._format_rows(columns) == expected


def test_gain_to_db_floors_what_has_no_decibels():
    # no gain, a negative one or nan, and any gain below 1e-30 give
    # DB_FLOOR; +inf stays +inf, and every other gain gives 10 log10(g)
    floored = [0.0, -0.0, -1.0, -1e300, -math.inf, math.nan,
               float(np.nextafter(1e-30, 0)), 1e-31, 1e-300, 5e-324]
    kept = np.array([1e-30, float(np.nextafter(1e-30, 1)), 2e-30, 1e-4, 0.5,
                     1.0, 24.76, 1e3, 1e300, math.inf])
    assert gain_to_db(floored).tolist() == [experiments.DB_FLOOR] * 10
    assert gain_to_db(kept).tolist() == (10.0 * np.log10(kept)).tolist()
    assert gain_to_db(math.inf) == math.inf
    assert gain_to_db(0.0) == experiments.DB_FLOOR


def test_format_rows_peak_fits_its_row_budget():
    # the formatting stage of one full block, its three columns included,
    # stays within the bytes per row that pattern_block_rows assumes
    rows = experiments.pattern_block_rows(15)
    tracemalloc.start()
    try:
        psi, gains = sample_gain_pattern(_random_state(15), RadiationPattern(),
                                         ArrayGeometry(15), 0.001, 0, rows)
        tracemalloc.reset_peak()
        experiments._format_rows((psi, gains, gain_to_db(gains)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.size == rows
    assert peak <= experiments._FORMAT_ROW_BYTES * rows


def test_format_rows_fallback_fits_its_row_budget():
    # the same block with every gain at 1e3 or more, as large arrays reach,
    # so that a whole column is formatted by Python: same budget, same bytes
    rows = experiments.pattern_block_rows(15)
    tracemalloc.start()
    try:
        psi, gains = sample_gain_pattern(_random_state(15), RadiationPattern(),
                                         ArrayGeometry(15), 0.001, 0, rows)
        gains = 1e3 + 100.0 * gains
        tracemalloc.reset_peak()
        db = gain_to_db(gains)
        text = experiments._format_rows((psi, gains, db))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= experiments._FORMAT_ROW_BYTES * rows
    assert text == "".join("%.17g,%.17g,%.17g\n" % row for row in
                           zip(psi.tolist(), gains.tolist(), db.tolist()))


@pytest.mark.parametrize("k", [1, 8, 16, 20])
def test_exact_ties_are_ties(k):
    # the tie strategy above draws what it claims to
    low, high = _tie_range(k)
    for i in (low, high):
        x = Fraction(_exact_tie(k, i))
        assert Fraction(10) ** (16 - k) <= x < Fraction(10) ** (17 - k)
        assert x * 10 ** k % 1 == Fraction(1, 2)


def test_cli_import_loads_no_process_pool():
    # only a pooled run imports the pool, so a serial command never pays it
    src = Path(experiments.__file__).resolve().parents[1]
    code = ("import sys, ra_beamkit.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]
