"""The committed perf records (``BENCH_*.json`` at the repo root) hold what
their summaries claim.

A record holds alternated parent/change runs of ``benchmark/run.py
--workload all``, one pair per seed, and a summary per end-to-end metric
that ``BENCHMARK.json`` names. Each check recomputes what the summary states
from the runs it was made from.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    return {f"{w}.{name}": how for w in workloads for name, how in better.items()}


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
    assert set(record["summary"]) == set(_benchmark())


def test_summary_recounts_from_the_runs(record):
    for metric, better in _benchmark().items():
        summary = record["summary"][metric]
        values = {
            side: [run[side]["metrics"][metric]["value"] for run in record["runs"]]
            for side in SIDES
        }
        for side in SIDES:
            median = summary[f"{side}_q1_median_q3"][1]
            assert math.isclose(median, statistics.median(values[side]), rel_tol=1e-9), (
                metric,
                side,
            )
        pairs = list(zip(values["parent"], values["change"]))
        ties = sum(change == parent for parent, change in pairs)
        if better == "higher":
            wins = sum(change > parent for parent, change in pairs)
        else:
            wins = sum(change < parent for parent, change in pairs)
        assert (summary["change_wins"], summary["ties"]) == (wins, ties), metric
