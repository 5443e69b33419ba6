"""The benchmark's tracer (perfbench/tracing.py) wraps package functions
by the names it looks up; a name the package drops or renames must fail
here instead of breaking ``perfbench/run.py --trace 1``.  The benchmark's
miniature configs run here too, traced, so that a workload whose ops go
wrong or fail fails tier-1."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import tracing; tracing.install(tracing.Recorder())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["ladder", "spectrum", "kernel_suite", "propagate"])
def test_tiny_workload_runs_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
