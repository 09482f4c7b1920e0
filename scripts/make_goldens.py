#!/usr/bin/env python3
"""Regenerate the committed golden files under tests/golden/.

    python3 scripts/make_goldens.py

Writes what tests/goldens.py computes, the one module that states what the
goldens pin:

* cost_model.json: the aggregates of the reference sweep
  (configs/cost_model.json: 200 synthetic queries, n=100, k=10,
  deterministic score oracle);
* pivot_benchmark_noisy.json: the aggregates of the first 40 queries of
  configs/pivot_benchmark_noisy.json (flip probability 0.15), whose
  rankings depend on which pairs each sorter asks;
* report_digests.json: the sha256 of the CSV and the JSON-lines report of
  every score or noisy config under configs/, each at its first
  REPORT_QUERIES queries, so the suite pins every report byte.

The test suite asserts exact equality against these files, so regenerating
them is only legitimate when the cost accounting, the pairs the sorters
ask or the report format intentionally change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from goldens import GOLDENS, REPORT_QUERIES, aggregate_records, pinned_digests, sweep  # noqa: E402


def write(name: str, payload: dict) -> None:
    golden = ROOT / "tests" / "golden" / name
    golden.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {golden.relative_to(ROOT)}")


def main() -> int:
    for name, queries in GOLDENS:
        payload = {"source_config": f"configs/{name}"}
        if queries is not None:
            payload["queries"] = queries
        aggregates = aggregate_records(sweep(ROOT / "configs" / name, queries).aggregates)
        payload["aggregates"] = aggregates
        write(name, payload)
        for label, record in aggregates.items():
            gain = record["gain_pct"]
            print(
                f"  {label:42s} comp={record['mean_comparisons']:8.2f} "
                f"inf={record['mean_inference_calls']:8.2f} gain={'-' if gain is None else gain}"
            )
    digests = pinned_digests()
    write("report_digests.json", {"queries": REPORT_QUERIES, "sha256": digests})
    print(f"  {2 * len(digests)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
