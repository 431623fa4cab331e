"""The quick demo scripts run to completion and print what they describe.

Demo 03 runs a reduced sweep for about a minute and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("01_power_model.py", "critical speed: 0.4005 of f_max (grid minimum at 0.4012)"),
    ("02_reallocation_walkthrough.py",
     "energy 6.949 mJ  wakes 3  failed sleeps 2  reallocations 1"),
])
def test_demo_runs(script, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout.splitlines()
