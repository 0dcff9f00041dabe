#!/usr/bin/env python3
"""Mean max-min gain versus antenna count over random scenarios.

For each antenna count, draws random desired/interference direction sets
(two of each, uniform over [0, 180] degrees), solves all three schemes, and
averages the per-scenario max-min gains in dB.  Emits sweep.csv with the
per-scheme means and the shortfall of each baseline against the rotating
scheme.
"""

import argparse

from ra_beamkit.experiments import run_sweep
from ra_beamkit.scenario import ScenarioError, parse_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--values", default="5,10,15,20",
                    help="comma-separated antenna counts")
    ap.add_argument("--scenarios", type=int, default=30)
    ap.add_argument("--seeds", type=int, default=5,
                    help="starts per scheme per scenario (best kept)")
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default="out/antenna_sweep")
    args = ap.parse_args()

    try:
        base = parse_scenario({"desired_angles_deg": [55.0, 60.0],
                               "interference_angles_deg": [20.0, 160.0],
                               "eta_max_db": -10.0, "seeds": args.seeds})
    except ScenarioError as exc:
        ap.error(f"argument --seeds: {exc}")
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        ap.error(f"argument --values: not a list of integers: {args.values!r}")
    if args.base_seed < 0:
        ap.error("argument --base-seed: must be >= 0")
    try:    # its messages name --values or --scenarios
        results = run_sweep(base, "num_antennas", values, args.scenarios,
                            args.base_seed, args.out)
    except ScenarioError as exc:
        ap.error(str(exc))
    for value in values:
        means = results[value]
        line = "  ".join(f"{s}={means[s]:7.2f} dB" for s in base.schemes)
        print(f"N={value:>3}: {line}")
    print(f"wrote {args.out}/sweep.csv")


if __name__ == "__main__":
    main()
