"""Smoke tests: each experiment script runs to completion on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("dimension_grid.py", ["--rmax", "3", "--nmax", "2", "--details"],
         "correspondence holds in 9/9 cells"),
        ("oracle_sweep.py", ["--rmax", "3", "--torsion", "0", "2"], "0 disagreements"),
        ("multiplicity_growth.py", ["--mmax", "4"], "largest multiplicity"),
    ],
)
def test_script_runs(script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
