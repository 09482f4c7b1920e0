#!/usr/bin/env python3
"""Regenerate the committed golden aggregates.

Runs each golden sweep and freezes every aggregate into its file under
tests/golden/:

* cost_model.json: the reference sweep (configs/cost_model.json: 200
  synthetic queries, n=100, k=10, deterministic score oracle);
* pivot_benchmark_noisy.json: the first 40 queries of
  configs/pivot_benchmark_noisy.json (flip probability 0.15). Query ids and
  per-query seeds do not depend on the query count, so these are the full
  sweep's first 40 queries. Its rankings depend on which pairs each sorter
  asks.

It also writes report_digests.json: the sha256 of the CSV and the JSON-lines
report of every score or noisy config under configs/, each at its first
REPORT_QUERIES queries, so the suite pins every report byte.

The test suite asserts exact equality against these files, so regenerating
them is only legitimate when the cost accounting, the pairs the sorters
ask or the report format intentionally change.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from prp_sort import emit_report, load_config, run_experiment  # noqa: E402

# (config, number of queries to run, or None for the config's own)
GOLDENS = [("cost_model.json", None), ("pivot_benchmark_noisy.json", 40)]
REPORT_QUERIES = 10


def write_golden(name: str, queries: int | None) -> None:
    source = ROOT / "configs" / name
    golden = ROOT / "tests" / "golden" / name
    config = load_config(str(source))
    if queries is not None:
        config = replace(config, dataset=replace(config.dataset, num_queries=queries))
    aggregates = {}
    for agg in run_experiment(config).aggregates:
        record = asdict(agg)
        record.pop("algorithm")
        aggregates[agg.algorithm] = record
    payload = {"source_config": str(source.relative_to(ROOT))}
    if queries is not None:
        payload["queries"] = queries
    payload["aggregates"] = aggregates
    golden.parent.mkdir(parents=True, exist_ok=True)
    golden.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {golden.relative_to(ROOT)}")
    for label, record in aggregates.items():
        print(
            f"  {label:42s} comp={record['mean_comparisons']:8.2f} "
            f"inf={record['mean_inference_calls']:8.2f} "
            f"gain={record['gain_pct'] if record['gain_pct'] is not None else '-'}"
        )


def write_report_digests() -> None:
    golden = ROOT / "tests" / "golden" / "report_digests.json"
    digests = {}
    with tempfile.TemporaryDirectory(prefix="prp-sort-goldens-") as tmp:
        for source in sorted((ROOT / "configs").glob("*.json")):
            config = load_config(str(source))
            if config.oracle.kind not in ("score", "noisy"):
                continue
            config = replace(config, dataset=replace(config.dataset, num_queries=REPORT_QUERIES))
            report = run_experiment(config)
            name = str(source.relative_to(ROOT))
            digests[name] = {}
            for out_format in ("csv", "jsonl"):
                out = Path(tmp) / f"{source.stem}.{out_format}"
                emit_report(report, out_format, str(out))
                digests[name][out_format] = hashlib.sha256(out.read_bytes()).hexdigest()
    payload = {"queries": REPORT_QUERIES, "sha256": digests}
    golden.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {golden.relative_to(ROOT)}: {2 * len(digests)} reports")


def main() -> int:
    for name, queries in GOLDENS:
        write_golden(name, queries)
    write_report_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())
