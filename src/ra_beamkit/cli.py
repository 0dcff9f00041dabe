"""Command-line interface.

Subcommands::

    ra-beamkit run <scenario.json> [--out DIR] [--seed-count M] [--schemes ra,foa,ia]
    ra-beamkit sweep <scenario.json> --field NAME --values V1,V2,... \
                     [--scenarios M] [--out DIR] [--base-seed S]
    ra-beamkit pattern <scenario.json> --state report.json [--step DEG] [--out FILE]

Exit codes: 0 success, 1 scenario schema error or bad command line, 2 solver
failure, 3 I/O error.
"""

import argparse
import json
import sys

from . import experiments
from .scenario import ScenarioError, _replace_field, load_scenario

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit ``EXIT_SCHEMA``, not 2; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ra-beamkit",
        description="Max-min beamforming for rotatable-antenna arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one scenario and emit reports")
    run.add_argument("scenario")
    run.add_argument("--out", default="out")
    run.add_argument("--seed-count", type=int)
    run.add_argument("--schemes", type=lambda value: value.split(","),
                     help="comma-separated subset of ra,foa,ia")

    sweep = sub.add_parser("sweep", help="sweep one field over random scenarios")
    sweep.add_argument("scenario")
    sweep.add_argument("--field", required=True)
    sweep.add_argument("--values", required=True,
                       help="comma-separated numeric values")
    sweep.add_argument("--scenarios", type=int, default=30)
    sweep.add_argument("--out", default="out")
    sweep.add_argument("--base-seed", type=int, default=0)

    pattern = sub.add_parser("pattern",
                             help="re-sample the gain pattern of a saved report")
    pattern.add_argument("scenario")
    pattern.add_argument("--state", required=True, help="run-report JSON path")
    pattern.add_argument("--step", type=float, default=None)
    pattern.add_argument("--out", default=None,
                         help="output CSV path (default: stdout)")
    return parser


def _cmd_run(args) -> int:
    spec = load_scenario(args.scenario)
    if args.schemes is not None:
        spec = _replace_field(spec, "schemes", args.schemes, "--schemes")
    if args.seed_count is not None:
        spec = _replace_field(spec, "seeds", args.seed_count, "--seed-count")
    experiments.run_scenario(spec, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.base_seed < 0:
        raise ScenarioError("--base-seed must be >= 0")
    spec = load_scenario(args.scenario)
    try:   # each value is read as it would be in a scenario file
        values = [json.loads(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ScenarioError(f"--values must be numeric: {exc}") from exc
    if not values:
        raise ScenarioError("--values must list at least one value")
    experiments.run_sweep(spec, args.field, values, args.scenarios,
                          args.base_seed, args.out)
    return EXIT_OK


def _cmd_pattern(args) -> int:
    spec = load_scenario(args.scenario)
    if args.step is not None:
        spec = _replace_field(spec, "pattern_sample_step_deg", args.step,
                              "--step")
    scheme, state = experiments.load_report_state(args.state,
                                                  spec.num_antennas)
    experiments.write_pattern_csv(sys.stdout if args.out is None else args.out,
                                  state, None if scheme == "IA" else spec.pattern,
                                  spec.geometry, spec.pattern_sample_step_deg)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "sweep": _cmd_sweep,
               "pattern": _cmd_pattern}[args.command]
    try:
        return handler(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # solver-side failure
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
