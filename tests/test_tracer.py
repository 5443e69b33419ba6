"""The benchmark's tracer (perfbench/tracing.py) wraps package functions
by the names it looks up; a name the package drops or renames must fail
here instead of breaking ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import tracing; tracing.install(tracing.Recorder())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
