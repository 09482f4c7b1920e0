"""The committed perf records (``BENCH_*.json`` at the repo root) hold what
their summaries claim.

A record holds alternated parent/change runs of ``benchmark/run.py
--workload all``, one pair per seed, and a summary per end-to-end metric
that ``BENCHMARK.json`` names. Each check recomputes what the summary states
from the runs it was made from, by the one rule in
``scripts/bench_summary.py``.
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from bench_summary import end_to_end_metrics, summary  # noqa: E402

RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


@pytest.fixture(params=RECORDS, ids=[p.name for p in RECORDS])
def record(request):
    return json.loads(request.param.read_text(encoding="utf-8"))


def test_there_are_records():
    assert RECORDS


def test_one_run_per_seed_on_ten_or_more_seeds(record):
    seeds = record["seeds"]
    assert len(set(seeds)) == len(seeds) >= 10
    assert sorted(run["seed"] for run in record["runs"]) == sorted(seeds)
    assert all(run["first"] in SIDES for run in record["runs"])


def test_every_run_is_correct_and_failed_nothing(record):
    for run in record["runs"]:
        for side in SIDES:
            assert run[side]["correct"] is True, (run["seed"], side)
            assert run[side]["failed"] == 0, (run["seed"], side)


def test_summary_covers_exactly_the_end_to_end_metrics(record):
    assert set(record["summary"]) == set(end_to_end_metrics())


def _close(stated, computed):
    if isinstance(stated, list):
        return len(stated) == len(computed) and all(map(_close, stated, computed))
    return math.isclose(stated, computed, rel_tol=1e-9, abs_tol=1e-12)


def test_summary_recounts_from_the_runs(record):
    # Summaries written before the rule had a script were derived by hand,
    # so a stated figure may differ from the rule's in its last bits.
    for metric, computed in summary(record["runs"]).items():
        stated = record["summary"][metric]
        assert set(stated) == set(computed), metric
        for field in ("change_wins", "ties"):
            assert stated[field] == computed[field], (metric, field)
        for field, value in computed.items():
            assert _close(stated[field], value), (metric, field, stated[field], value)
        for side in SIDES:
            runs = [run[side]["metrics"][metric]["value"] for run in record["runs"]]
            median = stated[f"{side}_q1_median_q3"][1]
            assert math.isclose(median, statistics.median(runs), rel_tol=1e-9), (metric, side)


def test_the_script_prints_a_records_summary():
    path = RECORDS[-1]
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_summary.py"), str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert json.loads(result.stdout) == summary(runs)
