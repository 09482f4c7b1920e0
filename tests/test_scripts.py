"""The experiment scripts run end to end at a tiny size."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script", ["batch_size_sweep.py", "bubble_cache_gain.py", "pivot_benchmark.py"]
)
def test_script_runs(script):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--queries", "2", "--n", "12"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "2 queries, n=12" in result.stdout
