"""Each experiment script runs end to end with its smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_FILES = ["summary.csv"] + [f"{kind}_{scheme}.{ext}"
                               for scheme in ("ra", "foa", "ia")
                               for kind, ext in (("report", "json"),
                                                 ("pattern", "csv"))]


@pytest.mark.parametrize("script,args,written", [
    ("antenna_count_sweep.py", ["--values", "3", "--scenarios", "1",
                                "--seeds", "1"], ["sweep.csv"]),
    ("multibeam_gain_patterns.py", ["--seeds", "1", "--setups", "close"],
     [f"close/{name}" for name in RUN_FILES]),
    ("single_beam_gain_pattern.py", ["--seeds", "1", "--num-antennas", "4"],
     RUN_FILES),
])
def test_script_runs(tmp_path, script, args, written):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "RA_BEAMKIT_THREADS": "1"}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in written:
        assert (out / name).stat().st_size > 0, name
