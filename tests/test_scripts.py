"""Smoke runs of the experiment scripts at toy sizes: each exits 0 and
writes its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, csv_name",
    [
        ("uncertainty_demo.py", ["--steps", "5", "--n-traj", "2"], "calibration.csv"),
        ("kolmogorov_experiment.py", ["--trajectories", "5", "--grid", "16", "--epochs", "1"],
         "rollout_metrics.csv"),
    ],
)
def test_script_runs_and_writes_csv(script, args, csv_name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), "--out", str(out), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (out / csv_name).read_text().splitlines()
    assert len(rows) > 1
