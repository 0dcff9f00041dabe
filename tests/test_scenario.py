import json

import pytest

from ra_beamkit.scenario import (ScenarioError, load_scenario,
                                 override_spec, parse_scenario)


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
