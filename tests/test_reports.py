"""Report bytes are pinned: every score and noisy config's CSV and JSON-lines
report hashes to its digest in ``tests/golden/report_digests.json``, and one
hand-built report writes exactly the text below. Regenerate the digests
with ``scripts/make_goldens.py`` only on an intentional format change."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from prp_sort import AlgoConfig, Algorithm, emit_report, load_config, run_experiment
from prp_sort.experiment import ExperimentReport, QueryRow

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "tests" / "golden" / "report_digests.json").read_text("utf-8"))
FORMATS = ("csv", "jsonl")


def test_every_score_and_noisy_config_has_digests():
    configs = sorted((ROOT / "configs").glob("*.json"))
    pinned = [
        str(path.relative_to(ROOT))
        for path in configs
        if load_config(str(path)).oracle.kind in ("score", "noisy")
    ]
    assert sorted(DIGESTS["sha256"]) == pinned


@pytest.mark.parametrize("name", sorted(DIGESTS["sha256"]))
def test_report_bytes_match_the_digests(name, tmp_path):
    config = load_config(str(ROOT / name))
    config = replace(config, dataset=replace(config.dataset, num_queries=DIGESTS["queries"]))
    report = run_experiment(config)
    for out_format in FORMATS:
        path = tmp_path / f"report.{out_format}"
        emit_report(report, out_format, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == DIGESTS["sha256"][name][out_format], out_format


def _hand_built_report() -> ExperimentReport:
    """Heapsort with one ok and one failed row, and a quicksort whose only
    row failed, so its aggregate has no statistics and no baseline."""
    heap = AlgoConfig(Algorithm.HEAPSORT, k=3)
    quick = AlgoConfig(Algorithm.QUICKSORT, k=3, batch_size=2)
    failed = dict(
        status="failed",
        comparisons=None,
        inference_calls=None,
        cache_hits=None,
        batch_groups=None,
        ndcg=None,
    )
    return ExperimentReport(
        rows=[
            QueryRow(heap.label(), "q1", "ok", 7, 7, 0, 7, ndcg=0.123456789, config=heap),
            QueryRow(heap.label(), "q2", **failed, config=heap),
            QueryRow(quick.label(), "q1", **failed, config=quick),
        ]
    )


HEADER = (
    "kind,algorithm,query_id,status,k,batch_size,pivot,cached,partial,comparisons,"
    "inference_calls,cache_hits,batch_groups,ndcg,n_queries,failures,mean_comparisons,"
    "sd_comparisons,mean_inference_calls,sd_inference_calls,mean_cache_hits,mean_ndcg,"
    "baseline,gain_pct\n"
)

EXPECTED_CSV = HEADER + (
    "query,heapsort,q1,ok,3,1,,false,,7,7,0,7,0.1235,,,,,,,,,,\n"
    "query,heapsort,q2,failed,3,1,,false,,,,,,,,,,,,,,,,\n"
    "query,\"quicksort (median-of-three, b=2)\",q1,failed,3,2,median-of-three,false,true,"
    ",,,,,,,,,,,,,,\n"
    "aggregate,heapsort,,,3,1,,false,,,,,,,1,1,7.0000,0.0000,7.0000,0.0000,0.0000,0.1235,,\n"
    "aggregate,\"quicksort (median-of-three, b=2)\",,,3,2,median-of-three,false,true,"
    ",,,,,0,1,,,,,,,,\n"
)

EXPECTED_JSONL = (
    '{"kind": "query", "algorithm": "heapsort", "query_id": "q1", "status": "ok", '
    '"k": 3, "batch_size": 1, "pivot": null, "cached": false, "partial": null, '
    '"comparisons": 7, "inference_calls": 7, "cache_hits": 0, "batch_groups": 7, '
    '"ndcg": 0.123456789, "n_queries": null, "failures": null, "mean_comparisons": null, '
    '"sd_comparisons": null, "mean_inference_calls": null, "sd_inference_calls": null, '
    '"mean_cache_hits": null, "mean_ndcg": null, "baseline": null, "gain_pct": null}\n'
    '{"kind": "query", "algorithm": "heapsort", "query_id": "q2", "status": "failed", '
    '"k": 3, "batch_size": 1, "pivot": null, "cached": false, "partial": null, '
    '"comparisons": null, "inference_calls": null, "cache_hits": null, "batch_groups": null, '
    '"ndcg": null, "n_queries": null, "failures": null, "mean_comparisons": null, '
    '"sd_comparisons": null, "mean_inference_calls": null, "sd_inference_calls": null, '
    '"mean_cache_hits": null, "mean_ndcg": null, "baseline": null, "gain_pct": null}\n'
    '{"kind": "query", "algorithm": "quicksort (median-of-three, b=2)", "query_id": "q1", '
    '"status": "failed", "k": 3, "batch_size": 2, "pivot": "median-of-three", '
    '"cached": false, "partial": true, "comparisons": null, "inference_calls": null, '
    '"cache_hits": null, "batch_groups": null, "ndcg": null, "n_queries": null, '
    '"failures": null, "mean_comparisons": null, "sd_comparisons": null, '
    '"mean_inference_calls": null, "sd_inference_calls": null, "mean_cache_hits": null, '
    '"mean_ndcg": null, "baseline": null, "gain_pct": null}\n'
    '{"kind": "aggregate", "algorithm": "heapsort", "query_id": null, "status": null, '
    '"k": 3, "batch_size": 1, "pivot": null, "cached": false, "partial": null, '
    '"comparisons": null, "inference_calls": null, "cache_hits": null, "batch_groups": null, '
    '"ndcg": null, "n_queries": 1, "failures": 1, "mean_comparisons": 7.0, '
    '"sd_comparisons": 0.0, "mean_inference_calls": 7.0, "sd_inference_calls": 0.0, '
    '"mean_cache_hits": 0.0, "mean_ndcg": 0.123456789, "baseline": null, "gain_pct": null}\n'
    '{"kind": "aggregate", "algorithm": "quicksort (median-of-three, b=2)", '
    '"query_id": null, "status": null, "k": 3, "batch_size": 2, '
    '"pivot": "median-of-three", "cached": false, "partial": true, "comparisons": null, '
    '"inference_calls": null, "cache_hits": null, "batch_groups": null, "ndcg": null, '
    '"n_queries": 0, "failures": 1, "mean_comparisons": null, "sd_comparisons": null, '
    '"mean_inference_calls": null, "sd_inference_calls": null, "mean_cache_hits": null, '
    '"mean_ndcg": null, "baseline": null, "gain_pct": null}\n'
)


@pytest.mark.parametrize("out_format", FORMATS)
def test_hand_built_report_is_written_exactly(out_format, tmp_path):
    expected = {"csv": EXPECTED_CSV, "jsonl": EXPECTED_JSONL}[out_format]
    path = tmp_path / f"report.{out_format}"
    emit_report(_hand_built_report(), out_format, str(path))
    assert path.read_bytes() == expected.encode("utf-8")
