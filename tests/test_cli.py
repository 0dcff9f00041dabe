import csv
import json

import pytest

from ra_beamkit.array_model import (ArrayGeometry, RadiationPattern,
                                    array_gain)
from ra_beamkit.cli import main
from ra_beamkit.experiments import load_report_state


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


def test_schemes_and_seed_count_flags(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out), "--schemes", "foa",
                 "--seed-count", "1"]) == 0
    assert (out / "report_foa.json").exists()
    assert not (out / "report_ra.json").exists()


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
    # a degenerate sweep (one value, one scenario) must agree with run_scenario
    # on the same generated angles; here we just check it emits sane values
    scenario = write_scenario(tmp_path, seeds=1)
    out = tmp_path / "sweep"
    assert main(["sweep", scenario, "--field", "eta_max_db", "--values",
                 "-10", "--scenarios", "1", "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    gains_db = {r[1]: float(r[2]) for r in rows[1:]}
    assert gains_db["RA"] >= gains_db["IA"] - 1e-9


def test_parallel_pool_matches_serial(tmp_path, monkeypatch):
    scenario = write_scenario(tmp_path, seeds=2)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", scenario, "--out", str(serial)]) == 0
    monkeypatch.setenv("RA_BEAMKIT_THREADS", "2")
    assert main(["run", scenario, "--out", str(parallel)]) == 0
    for name in ("summary.csv", "report_ra.json", "pattern_ra.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sweep_bad_field_exits_1(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main(["sweep", scenario, "--field", "nope", "--values", "1",
                 "--out", str(tmp_path / "o")]) == 1
    assert "sweep field" in capsys.readouterr().err


def test_sweep_bad_values_exit_1(tmp_path):
    scenario = write_scenario(tmp_path)
    assert main(["sweep", scenario, "--field", "num_antennas", "--values",
                 "abc", "--out", str(tmp_path / "o")]) == 1
