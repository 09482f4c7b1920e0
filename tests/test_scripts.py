"""The experiment script and every experiment config run end to end at a
tiny size."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from prp_sort import load_config
from prp_sort.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("script", ["bubble_cache_gain.py"])
def test_script_runs(script):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--queries", "2", "--n", "12"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "2 queries, n=12" in result.stdout


def test_cross_python_compares_every_score_and_noisy_report():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "cross_python.py"), sys.executable, "--queries", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    compared = [line for line in result.stdout.splitlines() if f"({sys.executable})" in line]
    # Every config is a score or noisy sweep, written as CSV and JSON lines.
    assert len(compared) == 2 * len(CONFIGS)
    assert all(line.endswith("  identical") for line in compared)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_config_runs(path, tmp_path, capsys):
    labels = [algo.label() for algo in load_config(path).algorithms]
    assert len(set(labels)) == len(labels)
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["dataset"] = {"synthetic": {"queries": 2, "n": 12}}
    small = tmp_path / path.name
    small.write_text(json.dumps(raw), encoding="utf-8")
    report = tmp_path / "report"
    assert cli_main(["run", "--config", str(small), "--out", str(report)]) == 0
    assert report.exists()
    # The summary: a "wrote" line, a header, a rule, then one line per label.
    table = capsys.readouterr().out.splitlines()[3:]
    assert [re.split(r"\s{2,}", line)[0] for line in table] == labels
