"""What ``tests/golden/`` pins, computed in one place: ``scripts/make_goldens.py``
writes it and the golden tests compare it with the committed files.
``python tests/goldens.py [QUERIES]`` prints the interpreter's version and the
report digests at QUERIES queries per config (0 for each config's own) as one
JSON object, which ``scripts/cross_python.py`` compares across interpreters.
"""

import hashlib
import io
import json
import platform
import sys
from collections.abc import Iterable
from contextlib import redirect_stdout
from dataclasses import asdict, replace
from pathlib import Path

from prp_sort import emit_report, load_config, run_experiment
from prp_sort.experiment import AggregateRow, ExperimentReport

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("csv", "jsonl")
# The golden aggregate files: each names its config under configs/ and the
# number of its first queries it runs, or None for the config's own.
GOLDENS = (("cost_model.json", None), ("pivot_benchmark_noisy.json", 40))
REPORT_QUERIES = 10  # per config in report_digests.json


def sweep(path: Path, queries: int | None = None) -> ExperimentReport:
    """The report of the config at ``path``, at its first ``queries``
    synthetic queries when that is given. Query ids and per-query seeds do
    not depend on the query count, so these are the full sweep's first rows."""
    config = load_config(str(path))
    if queries:
        config = replace(config, dataset=replace(config.dataset, num_queries=queries))
    return run_experiment(config)


def pinned_configs() -> list[Path]:
    """The configs whose reports are pinned: those whose sweeps need no
    backend, with a ``score`` or ``noisy`` oracle."""
    paths = sorted((ROOT / "configs").glob("*.json"))
    return [path for path in paths if load_config(str(path)).oracle.kind in ("score", "noisy")]


def report_digests(report: ExperimentReport) -> dict[str, str]:
    """The sha256 of the text ``emit_report`` writes, per format."""
    digests = {}
    for out_format in FORMATS:
        with redirect_stdout(io.StringIO()) as text:
            emit_report(report, out_format, None)
        digests[out_format] = hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()
    return digests


def pinned_digests(queries: int = REPORT_QUERIES) -> dict[str, dict[str, str]]:
    """Every pinned config's report digests, keyed by its path in the repo."""
    return {
        str(path.relative_to(ROOT)): report_digests(sweep(path, queries))
        for path in pinned_configs()
    }


def aggregate_records(aggregates: Iterable[AggregateRow]) -> dict[str, dict]:
    """Each aggregate's fields but its label, keyed by the label, as the
    golden aggregate files hold them."""
    records = {}
    for agg in aggregates:
        records[agg.algorithm] = record = asdict(agg)
        del record["algorithm"]
    return records


if __name__ == "__main__":
    queries = int(sys.argv[1]) if len(sys.argv) > 1 else REPORT_QUERIES
    print(json.dumps({"python": platform.python_version(), "sha256": pinned_digests(queries)}))
