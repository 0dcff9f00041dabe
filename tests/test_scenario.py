import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ra_beamkit.array_model import rotation_bounds
from ra_beamkit.experiments import run_single
from ra_beamkit.scenario import (MAX_ANTENNAS, MAX_PATTERN_SIZE, ScenarioError,
                                 ScenarioSpec, load_scenario, override_spec,
                                 parse_scenario)


def write(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {"desired_angles_deg": [60.0]}


def test_defaults(tmp_path):
    spec = load_scenario(write(tmp_path, MINIMAL))
    assert spec.num_antennas == 15
    assert spec.spacing_wavelengths == 0.5
    assert spec.eta_max_db == -10.0
    assert spec.schemes == ("RA", "FOA", "IA")
    assert spec.seeds == (0,)
    assert spec.pattern_sample_step_deg == 0.1
    assert spec.pattern.max_gain_dbi == 8.0
    assert spec.solver.pso.num_particles == 200
    assert spec.solver.sca.delta_threshold == 1e-2


def test_unknown_top_level_key_named():
    with pytest.raises(ScenarioError, match="unknown key 'frequency'"):
        parse_scenario({**MINIMAL, "frequency": 2.4e9})


def test_unknown_nested_key_named():
    with pytest.raises(ScenarioError, match="unknown key 'tilt'"):
        parse_scenario({**MINIMAL, "pattern": {"tilt": 3.0}})
    with pytest.raises(ScenarioError, match="unknown key 'alpha'"):
        parse_scenario({**MINIMAL, "solver": {"pso": {"alpha": 1.0}}})


def test_missing_desired_angles():
    with pytest.raises(ScenarioError, match="desired_angles_deg"):
        parse_scenario({})


def test_out_of_range_angle_rejected():
    with pytest.raises(ScenarioError, match="desired_angles_deg"):
        parse_scenario({"desired_angles_deg": [200.0]})


def test_overlapping_sets_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario({"desired_angles_deg": [60.0],
                        "interference_angles_deg": [60.0]})


def test_seed_count_expansion():
    spec = parse_scenario({**MINIMAL, "seeds": 4})
    assert spec.seeds == (0, 1, 2, 3)
    spec = parse_scenario({**MINIMAL, "seeds": [7, 9]})
    assert spec.seeds == (7, 9)
    with pytest.raises(ScenarioError, match="seeds"):
        parse_scenario({**MINIMAL, "seeds": [1.5]})
    with pytest.raises(ScenarioError, match="seeds"):
        parse_scenario({**MINIMAL, "seeds": 0})
    # a negative seed is a schema error, not a SeedSequence failure
    with pytest.raises(ScenarioError, match="'seeds'.*non-negative"):
        parse_scenario({**MINIMAL, "seeds": [3, -1]})


def test_partial_pattern_override():
    spec = parse_scenario({**MINIMAL, "pattern": {"max_gain_dbi": 5.0}})
    assert spec.pattern.max_gain_dbi == 5.0
    assert spec.pattern.beamwidth_3db_deg == 65.0


def test_invalid_pattern_value():
    with pytest.raises(ScenarioError, match="pattern"):
        parse_scenario({**MINIMAL, "pattern": {"max_gain_dbi": -2.0}})


def test_solver_overrides():
    spec = parse_scenario({**MINIMAL, "solver": {
        "max_outer_iterations": 5,
        "sca": {"max_iterations": 12},
        "pso": {"num_particles": 33, "inertia_final": 0.3}}})
    assert spec.solver.max_outer_iterations == 5
    assert spec.solver.sca.max_iterations == 12
    assert spec.solver.pso.num_particles == 33
    assert spec.solver.pso.inertia_final == 0.3
    assert spec.solver.pso.inertia_initial == 0.9


def test_scheme_normalization():
    spec = parse_scenario({**MINIMAL, "schemes": ["ra", "IA"]})
    assert spec.schemes == ("RA", "IA")
    with pytest.raises(ScenarioError, match="schemes"):
        parse_scenario({**MINIMAL, "schemes": ["XYZ"]})
    # a repeat would solve and write every seed twice
    with pytest.raises(ScenarioError, match="'schemes'.*repeats"):
        parse_scenario({**MINIMAL, "schemes": ["FOA", "foa"]})


def test_non_numeric_values_rejected():
    with pytest.raises(ScenarioError, match="eta_max_db"):
        parse_scenario({**MINIMAL, "eta_max_db": "loud"})
    with pytest.raises(ScenarioError, match="num_antennas"):
        parse_scenario({**MINIMAL, "num_antennas": 2.5})
    with pytest.raises(ScenarioError, match="desired_angles_deg"):
        parse_scenario({"desired_angles_deg": ["x"]})


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(path)


def test_override_spec():
    spec = parse_scenario(MINIMAL)
    out = override_spec(spec, schemes=["ra"], seed_count=3)
    assert out.schemes == ("RA",)
    assert out.seeds == (0, 1, 2)
    with pytest.raises(ScenarioError):
        override_spec(spec, schemes=["bogus"])
    with pytest.raises(ScenarioError):
        override_spec(spec, seed_count=0)


@pytest.mark.parametrize("doc,key", [
    ({**MINIMAL, "eta_max_db": float("nan")}, "eta_max_db"),
    ({**MINIMAL, "pattern_sample_step_deg": float("inf")},
     "pattern_sample_step_deg"),
    ({**MINIMAL, "spacing_wavelengths": 10 ** 400}, "spacing_wavelengths"),
    ({**MINIMAL, "pattern": {"max_gain_dbi": float("-inf")}}, "max_gain_dbi"),
    ({**MINIMAL, "solver": {"sca": {"subproblem_tolerance": float("nan")}}},
     "subproblem_tolerance"),
    ({**MINIMAL, "solver": {"pso": {"penalty_factor": float("inf")}}},
     "penalty_factor"),
    ({"desired_angles_deg": [float("nan")]}, "desired_angles_deg"),
    ({**MINIMAL, "interference_angles_deg": [float("inf")]},
     "interference_angles_deg"),
])
def test_non_finite_numbers_rejected(doc, key):
    with pytest.raises(ScenarioError, match=f"'{key}'.*finite"):
        parse_scenario(doc)


def test_non_finite_literals_in_file_rejected(tmp_path):
    # Python's json module reads NaN and Infinity, which strict JSON lacks
    path = tmp_path / "scenario.json"
    path.write_text('{"desired_angles_deg": [60.0], "eta_max_db": NaN}')
    with pytest.raises(ScenarioError, match="eta_max_db"):
        load_scenario(path)
    path.write_text('{"desired_angles_deg": [60.0], '
                    '"pattern_sample_step_deg": Infinity}')
    with pytest.raises(ScenarioError, match="pattern_sample_step_deg"):
        load_scenario(path)


def test_antenna_ceiling():
    # mc_sweep's largest array and the ceiling itself are accepted
    assert parse_scenario({**MINIMAL, "num_antennas": 64}).num_antennas == 64
    assert parse_scenario({**MINIMAL, "num_antennas": MAX_ANTENNAS}) \
        .num_antennas == MAX_ANTENNAS
    with pytest.raises(ScenarioError, match="'num_antennas'.*<="):
        parse_scenario({**MINIMAL, "num_antennas": MAX_ANTENNAS + 1})


def test_pattern_size_ceiling():
    # 16 antennas times 2**20 rows is exactly MAX_PATTERN_SIZE
    rows = MAX_PATTERN_SIZE // 16
    parse_scenario({**MINIMAL, "num_antennas": 16,
                    "pattern_sample_step_deg": 180.0 / (rows - 1)})
    with pytest.raises(ScenarioError, match="pattern_sample_step_deg"):
        parse_scenario({**MINIMAL, "num_antennas": 16,
                        "pattern_sample_step_deg": 180.0 / rows})
    # the benchmark's dense pattern, 180 001 rows x 15
    parse_scenario({**MINIMAL, "pattern_sample_step_deg": 0.001})
    # rejected when parsed, before anything is allocated
    with pytest.raises(ScenarioError, match="pattern_sample_step_deg"):
        parse_scenario({**MINIMAL, "pattern_sample_step_deg": 1e-12})
    with pytest.raises(ScenarioError, match="pattern_sample_step_deg"):
        parse_scenario({**MINIMAL, "pattern_sample_step_deg": 5e-324})


def test_readme_scenario_block_shows_the_defaults():
    # the README's listing is the one place defaults are written outside the
    # dataclasses; apart from its example angles and seeds it must match them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Scenario files", 1)[1]
    doc = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
    spec = parse_scenario(doc)
    defaults = ScenarioSpec(desired_angles_deg=spec.desired_angles_deg,
                            interference_angles_deg=spec.interference_angles_deg,
                            seeds=spec.seeds)
    assert spec == defaults

    def keys(d):
        return {k: keys(v) if isinstance(v, dict) else None for k, v in d.items()}

    schema = asdict(defaults)
    del schema["solver"]["pso"]["rng_seed"]     # derived per run, not read
    assert keys(doc) == keys(schema)


SMALL_SOLVER = {"max_outer_iterations": 3, "sca": {"max_iterations": 8},
                "pso": {"num_particles": 10, "max_iterations": 5}}
ANGLE = st.floats(0.0, 180.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), spacing=st.floats(0.1, 2.0),
       desired=st.lists(ANGLE, min_size=1, max_size=3, unique=True),
       interference=st.lists(ANGLE, max_size=2, unique=True),
       near=st.booleans(), eta_db=st.floats(-30.0, 0.0),
       seed=st.integers(0, 3))
@example(n=1, spacing=0.5, desired=[60.0], interference=[20.0], near=False,
         eta_db=-10.0, seed=1)
@example(n=6, spacing=2.0, desired=[55.0, 60.0], interference=[20.0],
         near=False, eta_db=-10.0, seed=1)
@example(n=4, spacing=0.5, desired=[180.0], interference=[], near=True,
         eta_db=-10.0, seed=0)
def test_runs_on_random_scenarios_stay_feasible(n, spacing, desired,
                                                interference, near, eta_db,
                                                seed):
    # near: an interferer 0.001 deg from the first desired direction
    if near:
        interference = interference + [desired[0] + (
            0.001 if desired[0] <= 179.0 else -0.001)]
    interference = [a for a in interference if a not in desired]
    spec = parse_scenario({"num_antennas": n, "spacing_wavelengths": spacing,
                           "desired_angles_deg": desired,
                           "interference_angles_deg": interference,
                           "eta_max_db": eta_db, "solver": SMALL_SOLVER})
    bounds = rotation_bounds(spec.pattern)
    for scheme in ("RA", "FOA", "IA"):
        report = run_single(spec, scheme, seed)
        report.final_state.validate(bounds)      # the ball and the range
        history = np.asarray(report.objective_history)
        tol = spec.solver.sca.subproblem_tolerance
        assert np.all(np.diff(history) >= -tol), (scheme, history)
