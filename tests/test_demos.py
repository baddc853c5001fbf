"""Each demo runs to completion and ends with its expected verdict."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demo 05 validates a deliberately broken bracket last.
LAST_LINE = {
    "03_yang_mills_brst.py": "result pass",
    "04_graded_yang_mills.py": "result pass",
    "05_model_files.py": "result fail",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.name in LAST_LINE:
        assert proc.stdout.strip().splitlines()[-1] == LAST_LINE[demo.name]
