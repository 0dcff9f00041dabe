#!/usr/bin/env python3
"""Multi-beam gain patterns with interference caps, two setups.

Setup "close": desired directions 55 and 60 degrees (adjacent beams share the
element boresights).  Setup "far": desired directions 60 and 140 degrees (the
array must split into element groups).  Both cap the gain toward 20 and 160
degrees at -10 dB.  Writes per-scheme reports, gain-pattern CSVs, and
summaries under <out>/<setup>/.
"""

import argparse
import os

from ra_beamkit.experiments import run_scenario
from ra_beamkit.scenario import ScenarioError, parse_scenario

SETUPS = {
    "close": ([55.0, 60.0], [20.0, 160.0]),
    "far": ([60.0, 140.0], [20.0, 160.0]),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--setups", default="close,far")
    ap.add_argument("--out", default="out/multibeam")
    args = ap.parse_args()

    specs = {}      # every setup is checked before the first one runs
    for name in args.setups.split(","):
        if name not in SETUPS:
            ap.error(f"argument --setups: unknown setup '{name}' "
                     f"(choose from {', '.join(SETUPS)})")
        desired, interference = SETUPS[name]
        try:
            specs[name] = parse_scenario({
                "desired_angles_deg": desired,
                "interference_angles_deg": interference,
                "eta_max_db": -10.0, "seeds": args.seeds})
        except ScenarioError as exc:
            ap.error(f"argument --seeds: {exc}")

    for name, spec in specs.items():
        outdir = os.path.join(args.out, name)
        print(f"--- setup '{name}': desired {spec.desired_angles_deg}, "
              f"interference {spec.interference_angles_deg}")
        run_scenario(spec, outdir)
        print(f"wrote {outdir}")


if __name__ == "__main__":
    main()
