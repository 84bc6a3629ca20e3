"""Each demo script runs to completion. A copy runs in a temporary
directory, so the demo's output files land there and not in the tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rssiloc

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(rssiloc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
