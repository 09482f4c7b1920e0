#!/usr/bin/env python3
"""Print the summary of a perf record (``BENCH_*.json``) from its runs.

    python3 scripts/bench_summary.py BENCH_N.json

A record holds alternated parent/change runs of ``benchmark/run.py
--workload all``, one pair per seed. Its summary gives, for each end-to-end
metric that ``BENCHMARK.json`` names on each workload, the inclusive
quartiles of each side, the pairs the change won and the ties, the percent
change of the medians, the parent's IQR and the bound in percent; ``summary``
is the one statement of that rule, and ``tests/test_bench_records.py`` checks
every committed record against it. Prints the summary as one JSON object,
to be stored as the record's ``summary``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end_metrics() -> dict[str, tuple[str, float]]:
    """Each ``<workload>.<metric>`` that ``BENCHMARK.json`` names, with the
    direction that is better and its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        f"{workload['name']}.{metric['name']}": (metric["better"], metric["bound"])
        for workload in spec["workloads"]
        for metric in spec["end_to_end"]
    }


def summary(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The summary of ``runs``, a record's list of parent/change pairs."""
    out = {}
    for metric, (better, bound) in end_to_end_metrics().items():
        values = {side: [run[side]["metrics"][metric]["value"] for run in runs] for side in SIDES}
        parent, change = (
            statistics.quantiles(values[side], n=4, method="inclusive") for side in SIDES
        )
        pairs = list(zip(values["parent"], values["change"]))
        if better == "higher":
            wins = sum(new > old for old, new in pairs)
        else:
            wins = sum(new < old for old, new in pairs)
        out[metric] = {
            "parent_q1_median_q3": parent,
            "change_q1_median_q3": change,
            "change_wins": wins,
            "ties": sum(new == old for old, new in pairs),
            "median_change_pct": 100.0 * (change[1] - parent[1]) / parent[1],
            "parent_iqr": parent[2] - parent[0],
            "bound_pct": 100.0 * bound,
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: bench_summary.py BENCH_N.json", file=sys.stderr)
        return 2
    record = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    print(json.dumps(summary(record["runs"]), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
