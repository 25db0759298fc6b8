"""Smoke test of the example scripts in scripts/, which drive `solve` and
its continuation path: each runs as its own process at a small size."""
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
    # at A = 1, alpha = 1/2 the trace from zero passes folds of lam before
    # it reaches lam = 1
    lines = run_script("quartic_feasibility.py", "--alphas", "0.5",
                       "--sizes", "6")
    assert lines[0].split() == ["alpha", "N", "point", "lam", "negative"]
    rows = [line.split() for line in lines[1:]]
    assert all(row[:2] == ["0.5", "6"] for row in rows)
    assert [row[2] for row in rows] == ["fold"] * (len(rows) - 1) + ["end"]
    assert len(rows) > 1 and float(rows[-1][3]) >= 1
    # a fold changes the count of J's negative eigenvalues by one
    counts = [int(row[4]) for row in rows]
    assert counts[0] == 1
    assert all(abs(a - b) == 1 for a, b in zip(counts, counts[1:-1]))


def test_oscillator_alpha_sweep():
    lines = run_script("oscillator_alpha_sweep.py", "--N", "8",
                       "--alphas", "0.5,0.9")
    runs = [line for line in lines if line.startswith("alpha=")
            and "converged=" in line]
    assert len(runs) == 2
    assert all("converged=True" in line for line in runs)
