"""Smoke test of the example scripts in scripts/, which drive `solve` with
warm starts: each runs as its own process at a small size."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                          *args], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_quartic_feasibility():
    lines = run_script("quartic_feasibility.py", "--alphas", "0.5",
                       "--sizes", "6", "--bisections", "3")
    assert lines[0].split() == ["alpha", "N", "fold", "amplitude"]
    assert lines[1].split()[:2] == ["0.5", "6"]


def test_oscillator_alpha_sweep():
    lines = run_script("oscillator_alpha_sweep.py", "--N", "8",
                       "--alphas", "0.5,0.9")
    runs = [line for line in lines if line.startswith("alpha=")
            and "converged=" in line]
    assert len(runs) == 2
    assert all("converged=True" in line for line in runs)
