"""Scenario file schema and validation.

Scenario files are JSON documents whose keys are the fields of
:class:`ScenarioSpec`::

    num_antennas, spacing_wavelengths, desired_angles_deg (required),
    interference_angles_deg, eta_max_db, schemes, seeds,
    pattern_sample_step_deg,
    pattern: {max_gain_dbi, beamwidth_3db_deg, sidelobe_limit_db,
              front_to_back_db},
    solver: {max_outer_iterations, sca: {max_iterations},
             pso: {num_particles, max_iterations}}

The nested objects are the fields of ``RadiationPattern``, ``AoConfig``,
``ScaConfig`` and ``PsoConfig``.  The dataclasses hold the defaults, which
the README lists; an absent key takes its default, and unknown keys anywhere
are rejected.  A key typed ``int`` takes an integer >= 1 and any other
scalar a finite number: the ``NaN`` and ``Infinity`` literals that Python's
json module reads are rejected.  Angles lie in [0, 180], the desired and
interference sets are disjoint, ``eta_max_db`` lies in [-80, 80],
``max_gain_dbi`` is at most 20, ``spacing_wavelengths`` is at most 1e6, and
no scheme or seed is listed twice.  ``seeds`` is a list of ints >= 0 or a count
M, meaning 0..M-1.

Three resource ceilings bound what a scenario may ask for:
``num_antennas`` <= ``MAX_ANTENNAS``; the sampled pattern,
(round(180 / pattern_sample_step_deg) + 1) rows times ``num_antennas``,
<= ``MAX_PATTERN_SIZE`` entries; and at most ``MAX_TASKS`` seeds, also the
bound on a sweep's values times scenarios times seeds (each solve of a run or
a sweep is one pool task).  Patterns are written in blocks of bounded size,
so the second ceiling bounds output size and time, not memory.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

from .ao import AoConfig
from .array_model import ArrayGeometry, RadiationPattern, Scenario

VALID_SCHEMES = ("RA", "FOA", "IA")
MAX_ANTENNAS = 1024
MAX_PATTERN_SIZE = 2 ** 24     # about 1 GB of CSV at N = 1
MAX_TASKS = 2 ** 16            # solves per scheme of a run or a sweep


class ScenarioError(ValueError):
    """Schema violation; the message names the offending key or flag."""


@dataclass
class ScenarioSpec:
    """A parsed scenario file; its field defaults are the schema's defaults."""

    desired_angles_deg: list
    interference_angles_deg: list = field(default_factory=list)
    eta_max_db: float = Scenario.eta_max_db
    num_antennas: int = 15
    spacing_wavelengths: float = ArrayGeometry.spacing_wavelengths
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


def _is_finite(value) -> bool:
    """A JSON number that is a finite float (NaN, Infinity and integers
    beyond the float range are not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, key, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"key '{key}' in {context} must be a number")
    if not _is_finite(value):
        raise ScenarioError(f"key '{key}' in {context} must be finite")
    return float(value)


def _positive(value, key, context):
    value = _number(value, key, context)
    if not value > 0:
        raise ScenarioError(f"key '{key}' in {context} must be > 0")
    return value


def _integer(value, key, context):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"key '{key}' in {context} must be an integer")
    if value < 1:
        raise ScenarioError(f"key '{key}' in {context} must be >= 1")
    return value


def _number_list(value, key, context):
    if not isinstance(value, list) or \
            any(isinstance(a, bool) or not isinstance(a, (int, float)) for a in value):
        raise ScenarioError(f"key '{key}' in {context} must be a list of numbers")
    if not all(_is_finite(a) for a in value):
        raise ScenarioError(f"key '{key}' in {context} must hold finite numbers")
    return [float(a) for a in value]


def _schemes(value, key, context):
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"key '{key}' in {context} must be a non-empty list")
    for s in value:
        if not isinstance(s, str) or s.upper() not in VALID_SCHEMES:
            raise ScenarioError(f"key '{key}' in {context} contains invalid "
                                f"scheme '{s}'")
    schemes = tuple(s.upper() for s in value)
    if len(set(schemes)) < len(schemes):
        raise ScenarioError(f"key '{key}' in {context} repeats a scheme")
    return schemes


def _seeds(value, key, context):
    too_many = f"key '{key}' in {context} must hold at most {MAX_TASKS} seeds"
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 1:
            raise ScenarioError(f"key '{key}' in {context}: a count must be >= 1")
        if value > MAX_TASKS:       # checked before the range is expanded
            raise ScenarioError(too_many)
        return tuple(range(value))
    if isinstance(value, list) and value and \
            all(type(s) is int and s >= 0 for s in value):
        if len(value) > MAX_TASKS:
            raise ScenarioError(too_many)
        if len(set(value)) < len(value):
            raise ScenarioError(f"key '{key}' in {context} repeats a seed")
        return tuple(value)
    raise ScenarioError(f"key '{key}' in {context} must be an integer count "
                        f"or a list of non-negative integers")


# keys checked by more than their type
_PARSERS = {"desired_angles_deg": _number_list,
            "interference_angles_deg": _number_list,
            "pattern_sample_step_deg": _positive,
            "schemes": _schemes,
            "seeds": _seeds}


def _parse(f, value, path, context):
    """One key's value, by its named parser or else by its field's type."""
    if is_dataclass(f.type):
        return _build(f.type, value, f"{path}.{f.name}" if path else f.name)
    parse = _PARSERS.get(f.name, _integer if f.type is int else _number)
    return parse(value, f.name, context)


def _json_object(doc, context, required=()):
    """``doc``, checked to be a JSON object that holds every key of
    ``required``; ``context`` names it in messages."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{context} must be a JSON object")
    for key in required:
        if key not in doc:
            raise ScenarioError(f"missing required key '{key}' in {context}")
    return doc


def _build(cls, doc, path=""):
    """Build the dataclass ``cls`` from the keys of ``doc``; an absent key
    takes the field's default.  ``path`` names the object in messages."""
    context = f"'{path}'" if path else "scenario"
    schema = {f.name: f for f in fields(cls)}
    for key in _json_object(doc, context):
        if key not in schema:
            raise ScenarioError(f"unknown key '{key}' in {context}")
    _json_object(doc, context, [f.name for f in schema.values()
                                if f.default is MISSING
                                and f.default_factory is MISSING])
    values = {key: _parse(schema[key], value, path, context)
              for key, value in doc.items()}
    try:
        return cls(**values)
    except ValueError as exc:    # the dataclass's own range checks
        raise ScenarioError(f"key {context}: {exc}") from exc


def pattern_rows(step_deg) -> int:
    """Rows of a pattern sampled over [0, 180] at ``step_deg``:
    round(180 / step_deg) + 1, capped at MAX_PATTERN_SIZE + 1, a count no
    scenario accepts, so that a tiny step cannot overflow."""
    return round(min(180.0 / step_deg, MAX_PATTERN_SIZE)) + 1


def _check_spec(spec, context="scenario"):
    """The ``Scenario`` and ``ArrayGeometry`` checks and the resource ceilings."""
    try:
        spec.scenario, spec.geometry
    except ValueError as exc:
        key = str(exc).split()[0]
        keys = (f"'{key}'" if key in ("eta_max_db", "spacing_wavelengths")
                else "'desired_angles_deg'/'interference_angles_deg'")
        raise ScenarioError(f"key {keys} in {context}: {exc}") from exc
    if spec.num_antennas > MAX_ANTENNAS:
        raise ScenarioError(f"key 'num_antennas' in {context} must be "
                            f"<= {MAX_ANTENNAS}")
    if pattern_rows(spec.pattern_sample_step_deg) * spec.num_antennas \
            > MAX_PATTERN_SIZE:
        raise ScenarioError(
            f"key 'pattern_sample_step_deg' in {context}: the pattern would "
            f"exceed {MAX_PATTERN_SIZE} entries (rows times num_antennas)")
    return spec


def parse_scenario(doc: dict) -> ScenarioSpec:
    """Validate a decoded scenario document and build a ScenarioSpec."""
    return _check_spec(_build(ScenarioSpec, doc))


def _replace_field(spec: ScenarioSpec, name, value, context) -> ScenarioSpec:
    """``spec`` with the top-level key ``name`` set to ``value``, under the
    checks a scenario file gets; messages name ``context`` (a CLI flag)."""
    f = next(f for f in fields(ScenarioSpec) if f.name == name)
    return _check_spec(replace(spec, **{name: _parse(f, value, "", context)}),
                       context)


def _read_json(path, context):
    """The JSON document in the file ``path``; ``context`` names the file
    in the message when it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:    # not JSON, or not UTF-8
            raise ScenarioError(f"invalid JSON in {context}: {exc}") from exc


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario file."""
    return parse_scenario(_read_json(path, "scenario file"))

