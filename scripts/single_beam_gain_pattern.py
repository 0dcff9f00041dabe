#!/usr/bin/env python3
"""Gain-vs-angle comparison for a single desired direction.

Solves the one-beam, no-interference problem at a configurable desired angle
for the rotating, fixed-orientation, and isotropic schemes, then writes the
per-scheme gain patterns and a summary into the output directory.
"""

import argparse

from ra_beamkit.experiments import run_scenario
from ra_beamkit.scenario import ScenarioError, parse_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--angle", type=float, default=60.0,
                    help="desired direction in degrees (default 60)")
    ap.add_argument("--num-antennas", type=int, default=15)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--out", default="out/single_beam")
    args = ap.parse_args()

    # the flags enter the scenario schema one at a time, so a rejected
    # value is reported under its own flag
    doc = {}
    for flag, key, value in (("--angle", "desired_angles_deg", [args.angle]),
                             ("--num-antennas", "num_antennas",
                              args.num_antennas),
                             ("--seeds", "seeds", args.seeds)):
        doc[key] = value
        try:
            spec = parse_scenario(doc)
        except ScenarioError as exc:
            ap.error(f"argument {flag}: {exc}")
    run_scenario(spec, args.out)
    print(f"wrote gain patterns and summary to {args.out}")


if __name__ == "__main__":
    main()
