"""The example scripts run end to end, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_pipeline_demo_runs(tmp_path):
    out = run_script("pipeline_demo.py", "--n1", "200", "--n2", "200", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "shift test: T_n=" in out.stdout
    assert "chosen model:" in out.stdout


def test_simulation_grid_writes_one_row_per_parameter(tmp_path):
    csv = tmp_path / "grid.csv"
    out = run_script("run_simulation_grid.py", "--cells", "60x60", "--reps", "3",
                     "--threads", "1", "--out", str(csv), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = csv.read_text().splitlines()
    assert lines[0] == "n1,n2,param,MSE,Bias,SE,SE_hat,CP"
    # ph-weibull with two covariate slots: beta1, beta2, lambda, gamma
    assert len(lines) == 5
    assert all(line.startswith("60,60,") for line in lines[1:])


def test_simulation_grid_keeps_finished_cells_when_a_later_one_fails(tmp_path):
    # the 120x80 cell fails 1 of its 4 replications, more than the 10% a
    # study tolerates; the 200x200 cell before it is already on disk
    csv = tmp_path / "grid.csv"
    out = run_script("run_simulation_grid.py", "--cells", "200x200,120x80", "--reps", "4",
                     "--threads", "1", "--out", str(csv), cwd=tmp_path)
    assert out.returncode != 0
    assert "TooManyFailures" in out.stderr
    lines = csv.read_text().splitlines()
    assert lines[0] == "n1,n2,param,MSE,Bias,SE,SE_hat,CP"
    assert len(lines) == 5
    assert all(line.startswith("200,200,") for line in lines[1:])
