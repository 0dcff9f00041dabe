import json
import re
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ra_beamkit import scenario as scenario_mod
from ra_beamkit.ao import AoConfig
from ra_beamkit.array_model import (MAX_ETA_DB, MAX_GAIN_DBI,
                                    MAX_SPACING_WAVELENGTHS, ArrayGeometry,
                                    RadiationPattern, Scenario,
                                    rotation_bounds)
from ra_beamkit.convex_core import GAP_TARGET
from ra_beamkit.experiments import report_to_dict, run_single, run_sweep
from ra_beamkit.pso import PsoConfig
from ra_beamkit.sca import ScaConfig
from ra_beamkit.scenario import (MAX_ANTENNAS, MAX_DIRECTIONS,
                                 MAX_PATTERN_SIZE, MAX_SWARM_SIZE,
                                 ScenarioError, ScenarioSpec, load_scenario,
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


@pytest.mark.parametrize("path,key", [
    ("pattern", "tilt"),
    ("solver.pso", "alpha"),
    # constants of the method, no longer scenario keys
    ("solver.pso", "inertia_initial"),
    ("solver.pso", "inertia_final"),
    ("solver.pso", "learn_local"),
    ("solver.pso", "learn_global"),
    ("solver.pso", "penalty_factor"),
    ("solver.sca", "subproblem_tolerance"),
    ("solver", "delta_threshold"),
    ("solver.sca", "delta_threshold"),
    ("solver.pso", "delta_threshold"),
])
def test_unknown_nested_key_named(path, key):
    doc = {key: 1.0}
    for part in reversed(path.split(".")):
        doc = {part: doc}
    with pytest.raises(ScenarioError, match=f"unknown key '{key}' in '{path}'"):
        parse_scenario({**MINIMAL, **doc})


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


CONFIG_CLASSES = {"pattern": RadiationPattern, "solver": AoConfig,
                  "solver.sca": ScaConfig, "solver.pso": PsoConfig}


@pytest.mark.parametrize("path,key,value", [
    ("pattern", "max_gain_dbi", -2.0),
    ("solver", "max_outer_iterations", 0),
    ("solver.sca", "max_iterations", 0),
    ("solver.pso", "max_iterations", 0),
])
def test_invalid_pattern_value(path, key, value):
    # the dataclass rejects the value, and a scenario file holding it is a
    # schema error naming the object
    with pytest.raises(ValueError):
        CONFIG_CLASSES[path](**{key: value})
    doc = {key: value}
    for part in reversed(path.split(".")):
        doc = {part: doc}
    with pytest.raises(ScenarioError, match=f"'{path}'"):
        parse_scenario({**MINIMAL, **doc})


def test_solver_overrides():
    spec = parse_scenario({**MINIMAL, "solver": {
        "max_outer_iterations": 5,
        "sca": {"max_iterations": 12},
        "pso": {"num_particles": 33, "max_iterations": 7}}})
    assert spec.solver.max_outer_iterations == 5
    assert spec.solver.sca.max_iterations == 12
    assert spec.solver.pso.num_particles == 33
    assert spec.solver.pso.max_iterations == 7


def test_scheme_normalization():
    spec = parse_scenario({**MINIMAL, "schemes": ["ra", "IA"]})
    assert spec.schemes == ("RA", "IA")
    with pytest.raises(ScenarioError, match="schemes"):
        parse_scenario({**MINIMAL, "schemes": ["XYZ"]})
    # run_single, which takes a scheme past the schema, checks it too
    with pytest.raises(ValueError, match="unknown scheme 'XYZ'"):
        run_single(spec, "XYZ", 0)
    for schemes in ("RA", []):
        with pytest.raises(ScenarioError,
                           match="'schemes'.*must be a non-empty list"):
            parse_scenario({**MINIMAL, "schemes": schemes})
    # a repeat would solve and write every seed twice
    with pytest.raises(ScenarioError, match="'schemes'.*repeats"):
        parse_scenario({**MINIMAL, "schemes": ["FOA", "foa"]})
    # so would a repeated seed: each run is deterministic
    with pytest.raises(ScenarioError, match="'seeds'.*repeats"):
        parse_scenario({**MINIMAL, "seeds": [3, 3, 3]})


def test_non_numeric_values_rejected():
    with pytest.raises(ScenarioError, match="eta_max_db"):
        parse_scenario({**MINIMAL, "eta_max_db": "loud"})
    with pytest.raises(ScenarioError, match="num_antennas"):
        parse_scenario({**MINIMAL, "num_antennas": 2.5})
    with pytest.raises(ScenarioError, match="desired_angles_deg"):
        parse_scenario({"desired_angles_deg": ["x"]})
    with pytest.raises(ScenarioError, match="^'pattern' must be a JSON object"):
        parse_scenario({**MINIMAL, "pattern": 5})
    with pytest.raises(ScenarioError, match="^scenario must be a JSON object"):
        parse_scenario([60.0])


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(path)


@pytest.mark.parametrize("doc,key", [
    ({**MINIMAL, "eta_max_db": float("nan")}, "eta_max_db"),
    ({**MINIMAL, "pattern_sample_step_deg": float("inf")},
     "pattern_sample_step_deg"),
    ({**MINIMAL, "spacing_wavelengths": 10 ** 400}, "spacing_wavelengths"),
    ({**MINIMAL, "pattern": {"max_gain_dbi": float("-inf")}}, "max_gain_dbi"),
    ({**MINIMAL, "pattern": {"beamwidth_3db_deg": float("nan")}},
     "beamwidth_3db_deg"),
    ({**MINIMAL, "pattern": {"sidelobe_limit_db": float("inf")}},
     "sidelobe_limit_db"),
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


@pytest.mark.parametrize("eta_db", [-80.5, 80.5, -150.0, 4000])
def test_eta_range(eta_db):
    # before: 4000 overflowed the linear cap and -150 dB stalled the weight
    # step, both as solver errors
    for ok in (-MAX_ETA_DB, MAX_ETA_DB):
        assert parse_scenario({**MINIMAL, "eta_max_db": ok}).eta_max_db == ok
    with pytest.raises(ValueError, match="eta_max_db"):
        Scenario((60.0,), (), eta_db)
    with pytest.raises(ScenarioError, match="^key 'eta_max_db' in scenario"):
        parse_scenario({**MINIMAL, "eta_max_db": eta_db})


@pytest.mark.parametrize("gain_dbi", [20.5, 30.0, 4000])
def test_max_gain_bound(gain_dbi):
    # before: 4000 dBi overflowed the linear gain and exited 2
    doc = {**MINIMAL, "pattern": {"max_gain_dbi": MAX_GAIN_DBI}}
    assert parse_scenario(doc).pattern.max_gain_dbi == MAX_GAIN_DBI
    with pytest.raises(ValueError, match="max_gain_dbi"):
        RadiationPattern(max_gain_dbi=gain_dbi)
    with pytest.raises(ScenarioError, match="'pattern'.*max_gain_dbi"):
        parse_scenario({**MINIMAL, "pattern": {"max_gain_dbi": gain_dbi}})


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("pair", [(55.0, 60.0), (60.0, 140.0)])
def test_large_array_at_the_gain_ceiling_is_certified(pair, n):
    # 20 dBi: the weight-step objective reaches a few thousand, where an
    # absolute 1e-6 gap is below float64's resolution and left 18 (N = 256)
    # and 132 (N = 1024) subproblems of these runs uncertified; the gap now
    # grows with the offsets
    spec = parse_scenario({"desired_angles_deg": list(pair),
                           "interference_angles_deg": [20.0, 160.0],
                           "num_antennas": n,
                           "pattern": {"max_gain_dbi": MAX_GAIN_DBI}})
    for scheme in ("FOA", "IA"):
        assert run_single(spec, scheme, 0).nonoptimal_subproblems == 0


@pytest.mark.parametrize("spacing", [1.5e6, 1e300, 1e308])
def test_spacing_bound(spacing):
    # before: 1e308 wavelengths wrote nan gains and 1e300 steered on
    # float64 noise, both exiting 0
    doc = {**MINIMAL, "spacing_wavelengths": MAX_SPACING_WAVELENGTHS}
    assert parse_scenario(doc).spacing_wavelengths == MAX_SPACING_WAVELENGTHS
    with pytest.raises(ValueError, match="spacing_wavelengths"):
        ArrayGeometry(4, spacing)
    with pytest.raises(ScenarioError,
                       match="^key 'spacing_wavelengths' in scenario"):
        parse_scenario({**MINIMAL, "spacing_wavelengths": spacing})


def _schema_keys(cls, prefix=""):
    keys = set()
    for f in fields(cls):
        keys.add(prefix + f.name)
        if is_dataclass(f.type):
            keys |= _schema_keys(f.type, f"{prefix}{f.name}.")
    return keys


def test_docstring_key_list_matches_schema():
    # the scenario module docstring lists every key, nested ones included
    block = scenario_mod.__doc__.split("::", 1)[1].split("\n\n")[1]
    block = re.sub(r"\(required\)", "", block)
    keys, stack, name = set(), [], None
    for token in re.findall(r"\w+|[{}:]", block):
        if token == "{":
            stack.append(name)
        elif token == "}":
            stack.pop()
        elif token != ":":
            name = token
            keys.add(".".join(stack + [name]))
    assert keys == _schema_keys(ScenarioSpec)


def test_seed_ceiling(monkeypatch):
    # lowered so that no large count is ever asked for
    monkeypatch.setattr(scenario_mod, "MAX_TASKS", 4)
    assert parse_scenario({**MINIMAL, "seeds": 4}).seeds == (0, 1, 2, 3)
    assert parse_scenario({**MINIMAL, "seeds": [9, 8, 7, 6]}).seeds \
        == (9, 8, 7, 6)
    for seeds in (5, [0, 1, 2, 3, 4], 10 ** 30):
        with pytest.raises(ScenarioError, match="'seeds'.*at most 4"):
            parse_scenario({**MINIMAL, "seeds": seeds})


def test_antenna_ceiling():
    # mc_sweep's largest array and the ceiling itself are accepted
    assert parse_scenario({**MINIMAL, "num_antennas": 64}).num_antennas == 64
    assert parse_scenario({**MINIMAL, "num_antennas": MAX_ANTENNAS}) \
        .num_antennas == MAX_ANTENNAS
    with pytest.raises(ScenarioError, match="'num_antennas'.*<="):
        parse_scenario({**MINIMAL, "num_antennas": MAX_ANTENNAS + 1})


def _angles(count, offset):
    return [offset + 2.0 * i for i in range(count)]


def test_direction_ceiling():
    # the convex core's slack tensors grow as (K + L)**3: a solve at
    # K + L = N = 120 traced 162 MiB; these documents are only parsed
    half = MAX_DIRECTIONS // 2
    spec = parse_scenario({"desired_angles_deg": _angles(half, 1.0),
                           "interference_angles_deg": _angles(half, 2.0)})
    assert len(spec.desired_angles_deg + spec.interference_angles_deg) \
        == MAX_DIRECTIONS
    for desired, interference in ((half + 1, half), (MAX_DIRECTIONS + 1, 0)):
        with pytest.raises(ScenarioError, match="'desired_angles_deg'.*: "
                           f"K \\+ L must be <= {MAX_DIRECTIONS}"):
            parse_scenario({"desired_angles_deg": _angles(desired, 1.0),
                            "interference_angles_deg":
                                _angles(interference, 2.0)})


def test_swarm_size_ceiling(tmp_path):
    # (K + L) x particles x N: one direction, 1024 antennas and 4096
    # particles is exactly MAX_SWARM_SIZE
    doc = {**MINIMAL, "num_antennas": MAX_ANTENNAS,
           "solver": {"pso": {"num_particles": MAX_SWARM_SIZE // MAX_ANTENNAS}}}
    assert parse_scenario(doc).solver.pso.num_particles == 4096
    doc["solver"]["pso"]["num_particles"] += 1
    with pytest.raises(ScenarioError, match="'solver.pso.num_particles' in "
                       r"scenario: \(K \+ L\) x num_particles x N must be <="):
        parse_scenario(doc)
    # the benchmark's widest swarm: four beams, two caps, 4000 particles, N = 32
    parse_scenario({"desired_angles_deg": [40.0, 70.0, 110.0, 140.0],
                    "interference_angles_deg": [20.0, 160.0],
                    "num_antennas": 32,
                    "solver": {"pso": {"num_particles": 4000}}})
    # a swept antenna count is checked too, before anything is solved: 21
    # directions x 200 particles x 1024 antennas passes 2**22
    spec = parse_scenario({"desired_angles_deg": _angles(21, 1.0)})
    with pytest.raises(ScenarioError, match="'solver.pso.num_particles' in "
                       "--values"):
        run_sweep(spec, "num_antennas", [8, MAX_ANTENNAS], 1, 0, tmp_path / "o")
    assert not (tmp_path / "o").exists()


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

    assert keys(doc) == keys(asdict(defaults))


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1]
    code = block.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert (report.scheme, report.seed) == ("RA", 1)
    assert report.max_interference_gain <= 0.1 + 1e-8
    assert capsys.readouterr().out.split() == [
        repr(report.min_desired_gain), repr(report.max_interference_gain)]


def test_report_config_block_parses_back():
    # a report's config echo, used as a scenario's solver, is that solver
    spec = parse_scenario({**MINIMAL, "num_antennas": 4,
                           "solver": SMALL_SOLVER})
    report = json.loads(json.dumps(report_to_dict(run_single(spec, "RA", 1),
                                                  spec)))
    assert parse_scenario({**MINIMAL, "solver": report["config"]}).solver \
        == spec.solver


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
        assert np.all(np.diff(history) >= -GAP_TARGET), (scheme, history)
