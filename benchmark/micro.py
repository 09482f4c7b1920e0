"""Fixed-input layer microbenchmarks and the stub's self-check.

Each figure is the median over a few repeats of one timed loop; the inputs
never depend on the workload seed. A figure whose function a later version
of the program no longer offers reads 0, with a note on stderr.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import prp_sort

import stub

REPEATS = 5
DOCS = [f"d{i:03d}" for i in range(100)]
SCORES = {doc: ((i * 37) % 100 + 1) / 100 for i, doc in enumerate(DOCS)}
QUERY = "which passage explains how pairwise ranking prompts are batched"


def passage(doc: str, score: float) -> str:
    filler = " ".join(["ranking passage relevance evidence"] * 6)
    return f"{doc} {filler} {stub.SCORE_OPEN}{score:.6f}] {filler}"


def comparison_requests(count: int = 1000) -> list:
    # (7i + 1) - i is never a multiple of 100, so no request pairs a doc with itself.
    return [
        prp_sort.ComparisonRequest(DOCS[i % 100], DOCS[(i * 7 + 1) % 100]) for i in range(count)
    ]


def per_call(fn, items) -> float:
    """Median over REPEATS of the seconds one ``fn(item)`` takes in a loop."""
    runs = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for item in items:
            fn(item)
        runs.append((time.perf_counter() - started) / len(items))
    return statistics.median(runs)


def prompts(count: int) -> list[str]:
    cands = [prp_sort.Candidate(d, text=passage(d, SCORES[d])) for d in DOCS]
    return [prp_sort.build_prp_prompt(QUERY, cands[i + 1], cands[0]) for i in range(count)]


def round_trip_ms(url: str, width: int, calls: int) -> list[float]:
    """Wall time of ``calls`` llm_compare_batch calls of ``width`` prompts."""
    endpoint = prp_sort.LlmEndpoint(url=url, retries=0, timeout_s=10.0)
    batch = prompts(width)
    times = []
    for _ in range(calls):
        started = time.perf_counter()
        prp_sort.llm_compare_batch(endpoint, batch)
        times.append((time.perf_counter() - started) * 1000.0)
    return times


def _fixed_report():
    raw = {
        "dataset": {"synthetic": {"queries": 20, "n": 30}},
        "oracle": {"kind": "score"},
        "k": 10,
        "seed": 7,
        "algorithms": [
            {"algorithm": "heapsort"},
            {"algorithm": "quicksort", "pivot": "median-of-three", "batch_size": 2},
            {"algorithm": "quicksort", "pivot": "random", "batch_size": 128},
            {"algorithm": "bubblesort"},
            {"algorithm": "bubblesort", "use_cache": True},
        ],
    }
    return prp_sort.run_experiment(prp_sort.config_from_dict(raw))


def layer_microbenchmarks(zero_latency_url: str, work: Path) -> dict:
    """Per-call cost of each layer on fixed inputs, as {name: (value, unit)}."""
    reqs = comparison_requests()
    score = prp_sort.ScoreOracle(SCORES)
    wide_group = [prp_sort.ComparisonRequest(d, DOCS[0]) for d in DOCS[1:]]
    loops = range(200)

    def score_compare():
        return per_call(score.compare, reqs) * 1e6

    def noisy_compare():
        return per_call(prp_sort.NoisyOracle(score, 0.1, 7).compare, reqs) * 1e6

    def canonical_pair():
        return per_call(lambda r: prp_sort.canonical_pair(r.first, r.second), reqs) * 1e6

    def submit_singleton():
        submit = prp_sort.BatchExecutor(1).submit_group
        return per_call(lambda r: submit(score, (r,)), reqs) * 1e6

    def submit_cached_singleton():
        memo = prp_sort.MemoizedOracle(score)
        for r in reqs:
            memo.compare(r)
        submit = prp_sort.BatchExecutor(1).submit_group
        return per_call(lambda r: submit(memo, (r,)), reqs) * 1e6

    def submit_wide():
        submit = prp_sort.BatchExecutor(128).submit_group
        return per_call(lambda _: submit(score, wide_group), loops) * 1e6

    def select_pivot():
        executor = prp_sort.BatchExecutor(1)
        m3 = prp_sort.PivotStrategy.MEDIAN_OF_THREE
        return (
            per_call(lambda _: prp_sort.select_pivot(DOCS, 0, 99, m3, 0, executor, score), loops)
            * 1e6
        )

    def batch_partition():
        order, executor = list(DOCS), prp_sort.BatchExecutor(128)
        return (
            per_call(lambda _: prp_sort.batch_partition(order, 0, 99, 0, executor, score), loops)
            * 1e6
        )

    def build_prompt():
        a = prp_sort.Candidate("d001", text=passage("d001", 0.25))
        b = prp_sort.Candidate("d002", text=passage("d002", 0.75))
        return per_call(lambda _: prp_sort.build_prp_prompt(QUERY, a, b), range(1000)) * 1e6

    def parse_label():
        completions = ["Passage B", "passage a is more relevant", "Passage B.", "neither"] * 250
        return per_call(prp_sort.parse_preference_label, completions) * 1e6

    def llm_w1():
        return statistics.median(round_trip_ms(zero_latency_url, 1, 30))

    def llm_w99():
        return statistics.median(round_trip_ms(zero_latency_url, 99, 10))

    def emit():
        report, path = _fixed_report(), str(work / "micro-report.csv")
        return per_call(lambda _: prp_sort.emit_report(report, "csv", path), range(3)) * 1e3

    benches = {
        "micro.score_compare_us": (score_compare, "us"),
        "micro.noisy_compare_us": (noisy_compare, "us"),
        "micro.canonical_pair_us": (canonical_pair, "us"),
        "micro.submit_group_singleton_us": (submit_singleton, "us"),
        "micro.submit_group_cached_singleton_us": (submit_cached_singleton, "us"),
        "micro.submit_group_wide99_b128_us": (submit_wide, "us"),
        "micro.select_pivot_m3_us": (select_pivot, "us"),
        "micro.batch_partition_w99_us": (batch_partition, "us"),
        "micro.build_prp_prompt_us": (build_prompt, "us"),
        "micro.parse_preference_label_us": (parse_label, "us"),
        "micro.llm_compare_batch_w1_ms": (llm_w1, "ms"),
        "micro.llm_compare_batch_w99_ms": (llm_w99, "ms"),
        "micro.emit_report_ms": (emit, "ms"),
    }
    metrics = {}
    for name, (bench, unit) in benches.items():
        try:
            value = bench()
        except (AttributeError, TypeError) as exc:
            print(f"note: {name} unavailable in this version: {exc!r}", file=sys.stderr)
            value = 0.0
        metrics[name] = (value, unit)
    return metrics
