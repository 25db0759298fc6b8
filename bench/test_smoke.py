"""Smoke test of the benchmark: every workload at a tiny size, through the
same command line and code path as a full run.

    python -m pytest -q bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable if part == "python3" else part
           for part in SPEC["command"]] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def run_tiny(workload, seed, trace):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload):
    digests = set()
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        info, result = run_tiny(workload, 3, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert 0 <= result["failed"] < result["attempted"]
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if trace == 0:
            assert result["attempted"] >= 100
            assert all(result["metrics"][m]["value"] > 0 for m in want)
        digests.add(info["input_digest"])
    assert len(digests) == 1    # the same seed gives the same inputs


def test_seed_changes_inputs():
    first, _ = run_tiny("solve_newton", 3, 1)
    other, _ = run_tiny("solve_newton", 4, 1)
    assert first["input_digest"] != other["input_digest"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
