"""Set-up probe: import the package and parse scenario files, then exit.

    python3 perfbench/setup_probe.py SCENARIO.json [SCENARIO.json ...]

run.py times whole runs of this script in fresh interpreters; that is the
set-up a user pays before the first solve.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ra_beamkit import load_scenario  # noqa: E402

for path in sys.argv[1:]:
    load_scenario(path)
