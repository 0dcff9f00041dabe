"""Scenario file schema and validation.

Scenario files are JSON documents.  All keys are optional except
``desired_angles_deg``; unknown keys anywhere are rejected.  Numeric keys
carry their unit in the suffix (``_deg``, ``_db``) and must be finite: the
``NaN`` and ``Infinity`` literals that Python's json module reads are rejected.

Schema (defaults in parentheses)::

    {
      "num_antennas": 15,
      "spacing_wavelengths": 0.5,
      "pattern": {                      # element pattern overrides
        "max_gain_dbi": 8.0,
        "beamwidth_3db_deg": 65.0,
        "sidelobe_limit_db": 30.0,
        "front_to_back_db": 30.0
      },
      "desired_angles_deg": [...],      # required, K >= 1, within [0, 180]
      "interference_angles_deg": [],    # within [0, 180], disjoint from desired
      "eta_max_db": -10.0,              # interference array-gain cap
      "schemes": ["RA", "FOA", "IA"],
      "solver": {
        "delta_threshold": 1e-2,        # outer loop
        "max_outer_iterations": 50,
        "sca": {"delta_threshold": 1e-2, "max_iterations": 100,
                "subproblem_tolerance": 1e-6},
        "pso": {"num_particles": 200, "max_iterations": 100,
                "inertia_initial": 0.9, "inertia_final": 0.2,
                "learn_local": 1.4, "learn_global": 1.4,
                "penalty_factor": 1e6, "delta_threshold": 1e-2}
      },
      "seeds": [0],                     # list of ints, or an int count M -> 0..M-1
      "pattern_sample_step_deg": 0.1
    }
"""

import json
import math
from dataclasses import dataclass, field, replace

from .ao import AoConfig
from .array_model import ArrayGeometry, RadiationPattern, Scenario
from .pso import PsoConfig
from .sca import ScaConfig

VALID_SCHEMES = ("RA", "FOA", "IA")


class ScenarioError(ValueError):
    """Schema violation; the message names the offending key."""


@dataclass
class ScenarioSpec:
    desired_angles_deg: list
    interference_angles_deg: list = field(default_factory=list)
    eta_max_db: float = -10.0
    num_antennas: int = 15
    spacing_wavelengths: float = 0.5
    pattern: RadiationPattern = field(default_factory=RadiationPattern)
    schemes: tuple = VALID_SCHEMES
    solver: AoConfig = field(default_factory=AoConfig)
    seeds: tuple = (0,)
    pattern_sample_step_deg: float = 0.1

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.num_antennas, self.spacing_wavelengths)

    @property
    def scenario(self) -> Scenario:
        return Scenario(tuple(self.desired_angles_deg),
                        tuple(self.interference_angles_deg),
                        self.eta_max_db)


def _require_keys(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{key}' in {context}")


def _is_finite(value) -> bool:
    """A JSON number that is a finite float (NaN, Infinity and integers
    beyond the float range are not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(mapping, key, default, context, positive=False):
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"key '{key}' in {context} must be a number")
    if not _is_finite(value):
        raise ScenarioError(f"key '{key}' in {context} must be finite")
    if positive and not value > 0:
        raise ScenarioError(f"key '{key}' in {context} must be > 0")
    return float(value)


def _integer(mapping, key, default, context, minimum=1):
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"key '{key}' in {context} must be an integer")
    if value < minimum:
        raise ScenarioError(f"key '{key}' in {context} must be >= {minimum}")
    return value


def _angle_list(mapping, key, default, context, required=False):
    if required and key not in mapping:
        raise ScenarioError(f"missing required key '{key}' in {context}")
    value = mapping.get(key, default)
    if not isinstance(value, list) or \
            any(isinstance(a, bool) or not isinstance(a, (int, float)) for a in value):
        raise ScenarioError(f"key '{key}' in {context} must be a list of numbers")
    if not all(_is_finite(a) for a in value):
        raise ScenarioError(f"key '{key}' in {context} must hold finite numbers")
    return [float(a) for a in value]


def parse_scenario(doc: dict) -> ScenarioSpec:
    """Validate a decoded scenario document and build a ScenarioSpec."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    top_keys = ("num_antennas", "spacing_wavelengths", "pattern",
                "desired_angles_deg", "interference_angles_deg", "eta_max_db",
                "schemes", "solver", "seeds", "pattern_sample_step_deg")
    _require_keys(doc, top_keys, "scenario")

    desired = _angle_list(doc, "desired_angles_deg", None, "scenario", required=True)
    interference = _angle_list(doc, "interference_angles_deg", [], "scenario")
    eta_max_db = _number(doc, "eta_max_db", -10.0, "scenario")

    num_antennas = _integer(doc, "num_antennas", 15, "scenario")
    spacing = _number(doc, "spacing_wavelengths", 0.5, "scenario", positive=True)

    pat_doc = doc.get("pattern", {})
    if not isinstance(pat_doc, dict):
        raise ScenarioError("key 'pattern' must be an object")
    pat_keys = ("max_gain_dbi", "beamwidth_3db_deg", "sidelobe_limit_db",
                "front_to_back_db")
    _require_keys(pat_doc, pat_keys, "'pattern'")
    try:
        pattern = RadiationPattern(
            max_gain_dbi=_number(pat_doc, "max_gain_dbi", 8.0, "'pattern'"),
            beamwidth_3db_deg=_number(pat_doc, "beamwidth_3db_deg", 65.0, "'pattern'"),
            sidelobe_limit_db=_number(pat_doc, "sidelobe_limit_db", 30.0, "'pattern'"),
            front_to_back_db=_number(pat_doc, "front_to_back_db", 30.0, "'pattern'"))
    except ValueError as exc:
        raise ScenarioError(f"key 'pattern': {exc}") from exc

    schemes_doc = doc.get("schemes", list(VALID_SCHEMES))
    if not isinstance(schemes_doc, list) or not schemes_doc:
        raise ScenarioError("key 'schemes' must be a non-empty list")
    schemes = []
    for s in schemes_doc:
        if not isinstance(s, str) or s.upper() not in VALID_SCHEMES:
            raise ScenarioError(f"key 'schemes' contains invalid scheme '{s}'")
        schemes.append(s.upper())

    solver = _parse_solver(doc.get("solver", {}))

    seeds_doc = doc.get("seeds", [0])
    if isinstance(seeds_doc, bool):
        raise ScenarioError("key 'seeds' must be an integer count or a list")
    if isinstance(seeds_doc, int):
        if seeds_doc < 1:
            raise ScenarioError("key 'seeds' count must be >= 1")
        seeds = tuple(range(seeds_doc))
    elif isinstance(seeds_doc, list) and seeds_doc and \
            all(isinstance(s, int) and not isinstance(s, bool) for s in seeds_doc):
        seeds = tuple(seeds_doc)
    else:
        raise ScenarioError("key 'seeds' must be an integer count or a list of integers")

    step = _number(doc, "pattern_sample_step_deg", 0.1, "scenario", positive=True)

    spec = ScenarioSpec(desired_angles_deg=desired,
                        interference_angles_deg=interference,
                        eta_max_db=eta_max_db,
                        num_antennas=num_antennas,
                        spacing_wavelengths=spacing,
                        pattern=pattern,
                        schemes=tuple(schemes),
                        solver=solver,
                        seeds=seeds,
                        pattern_sample_step_deg=step)
    # surfaces range/disjointness violations with the offending key named
    try:
        spec.scenario
    except ValueError as exc:
        raise ScenarioError(
            f"key 'desired_angles_deg'/'interference_angles_deg': {exc}") from exc
    return spec


def _parse_solver(doc) -> AoConfig:
    if not isinstance(doc, dict):
        raise ScenarioError("key 'solver' must be an object")
    _require_keys(doc, ("delta_threshold", "max_outer_iterations", "sca", "pso"),
                  "'solver'")
    sca_doc = doc.get("sca", {})
    pso_doc = doc.get("pso", {})
    if not isinstance(sca_doc, dict) or not isinstance(pso_doc, dict):
        raise ScenarioError("keys 'solver.sca' and 'solver.pso' must be objects")
    _require_keys(sca_doc, ("delta_threshold", "max_iterations",
                            "subproblem_tolerance"), "'solver.sca'")
    _require_keys(pso_doc, ("num_particles", "max_iterations", "inertia_initial",
                            "inertia_final", "learn_local", "learn_global",
                            "penalty_factor", "delta_threshold"), "'solver.pso'")
    try:
        sca = ScaConfig(
            delta_threshold=_number(sca_doc, "delta_threshold", 1e-2, "'solver.sca'"),
            max_iterations=_integer(sca_doc, "max_iterations", 100, "'solver.sca'"),
            subproblem_tolerance=_number(sca_doc, "subproblem_tolerance", 1e-6,
                                         "'solver.sca'"))
        pso = PsoConfig(
            num_particles=_integer(pso_doc, "num_particles", 200, "'solver.pso'"),
            max_iterations=_integer(pso_doc, "max_iterations", 100, "'solver.pso'"),
            inertia_initial=_number(pso_doc, "inertia_initial", 0.9, "'solver.pso'"),
            inertia_final=_number(pso_doc, "inertia_final", 0.2, "'solver.pso'"),
            learn_local=_number(pso_doc, "learn_local", 1.4, "'solver.pso'"),
            learn_global=_number(pso_doc, "learn_global", 1.4, "'solver.pso'"),
            penalty_factor=_number(pso_doc, "penalty_factor", 1e6, "'solver.pso'"),
            delta_threshold=_number(pso_doc, "delta_threshold", 1e-2, "'solver.pso'"))
        return AoConfig(
            sca=sca, pso=pso,
            delta_threshold=_number(doc, "delta_threshold", 1e-2, "'solver'"),
            max_outer_iterations=_integer(doc, "max_outer_iterations", 50, "'solver'"))
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"key 'solver': {exc}") from exc


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in scenario file: {exc}") from exc
    return parse_scenario(doc)


def override_spec(spec: ScenarioSpec, schemes=None, seed_count=None) -> ScenarioSpec:
    """Apply CLI-level overrides on top of a parsed spec."""
    out = spec
    if schemes is not None:
        normalized = []
        for s in schemes:
            if s.upper() not in VALID_SCHEMES:
                raise ScenarioError(f"invalid scheme '{s}' in --schemes")
            normalized.append(s.upper())
        out = replace(out, schemes=tuple(normalized))
    if seed_count is not None:
        if seed_count < 1:
            raise ScenarioError("--seed-count must be >= 1")
        out = replace(out, seeds=tuple(range(seed_count)))
    return out
