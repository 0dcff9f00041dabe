"""Each experiment script runs end to end with its smallest arguments, and
rejects a bad argument as a usage error naming its flag."""

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


def _run_script(tmp_path, script, args):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "RA_BEAMKIT_THREADS": "1"}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    return proc, out


@pytest.mark.parametrize("script,args,written", [
    ("antenna_count_sweep.py", ["--values", "3", "--scenarios", "1",
                                "--seeds", "1"], ["sweep.csv"]),
    ("multibeam_gain_patterns.py", ["--seeds", "1", "--setups", "close"],
     [f"close/{name}" for name in RUN_FILES]),
    ("single_beam_gain_pattern.py", ["--seeds", "1", "--num-antennas", "4"],
     RUN_FILES),
])
def test_script_runs(tmp_path, script, args, written):
    proc, out = _run_script(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr
    for name in written:
        assert (out / name).stat().st_size > 0, name


@pytest.mark.parametrize("script,args,flag", [
    ("antenna_count_sweep.py", ["--seeds", "0"], "--seeds"),
    ("multibeam_gain_patterns.py", ["--seeds", "0"], "--seeds"),
    ("multibeam_gain_patterns.py", ["--setups", "close,nope"], "--setups"),
    ("single_beam_gain_pattern.py", ["--angle", "200"], "--angle"),
    ("single_beam_gain_pattern.py", ["--num-antennas", "1025"],
     "--num-antennas"),
])
def test_bad_argument_is_a_usage_error(tmp_path, script, args, flag):
    # before: --seeds 0 raised IndexError after solving, an unknown setup a
    # KeyError, --angle 200 a ValueError from the process pool after the
    # output directory was made, and --num-antennas skipped MAX_ANTENNAS
    proc, out = _run_script(tmp_path, script, args)
    assert proc.returncode == 2
    assert flag in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
