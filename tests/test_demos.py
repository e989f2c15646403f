"""Smoke test of the demo scripts: each runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("script", [
    "01_blocking_and_harmonics.py",
    "02_optimal_prediction.py",
    "03_spectral_factorization.py",
    "04_minimax_robust.py",
    "05_monte_carlo_validation.py",
    "06_field_on_the_sphere.py",
])
def test_demo_exits_cleanly(script, tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
