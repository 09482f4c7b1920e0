"""Per-layer figures: a traced sweep and fixed-input layer microbenchmarks.

The traced sweep wraps the public functions of each layer in spans, from the
benchmark's side only: for the length of one sweep every module of
``prp_sort`` that binds one of those functions sees a wrapper that records
name, start, end, parent span and cell id, then calls the original. A cell is
one ``run_algorithm`` call. Spans stay in memory and are written out when the
sweep ends. A span's self time is its duration minus that of its child
spans. Functions a later version of the program no longer has are skipped
and their figures read 0.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute)
FUNCTIONS = [
    ("experiment.run_experiment", "prp_sort.experiment", "run_experiment"),
    ("experiment.emit_report", "prp_sort.experiment", "emit_report"),
    ("experiment.compute_aggregates", "prp_sort.experiment", "compute_aggregates"),
    ("algorithms.run_algorithm", "prp_sort.algorithms", "run_algorithm"),
    ("algorithms.heapsort_topk", "prp_sort.algorithms", "heapsort_topk"),
    ("algorithms.bubblesort_topk", "prp_sort.algorithms", "bubblesort_topk"),
    ("algorithms.quicksort_topk", "prp_sort.algorithms", "quicksort_topk"),
    ("algorithms.select_pivot", "prp_sort.algorithms", "select_pivot"),
    ("algorithms.batch_partition", "prp_sort.algorithms", "batch_partition"),
    ("oracles.build_prp_prompt", "prp_sort.oracles", "build_prp_prompt"),
    ("oracles.llm_compare_batch", "prp_sort.oracles", "llm_compare_batch"),
    ("oracles.parse_preference_label", "prp_sort.oracles", "parse_preference_label"),
    ("model.canonical_pair", "prp_sort.model", "canonical_pair"),
    ("seeding.stable_seed", "prp_sort.seeding", "stable_seed"),
    ("metrics.ndcg_at_k", "prp_sort.metrics", "ndcg_at_k"),
    ("datasets.generate_synthetic", "prp_sort.datasets", "generate_synthetic"),
    ("datasets.load_run_file", "prp_sort.datasets", "load_run_file"),
    ("datasets.load_qrels", "prp_sort.datasets", "load_qrels"),
    ("datasets.load_id_text_tsv", "prp_sort.datasets", "load_id_text_tsv"),
]
# (span name, module, class, method)
METHODS = [
    ("oracles.submit_group", "prp_sort.oracles", "BatchExecutor", "submit_group"),
    ("oracles.compare", "prp_sort.oracles", "ScoreOracle", "compare"),
    ("oracles.compare", "prp_sort.oracles", "NoisyOracle", "compare"),
    ("oracles.compare", "prp_sort.oracles", "MemoizedOracle", "compare"),
    # Every HTTP attempt, whichever requests API the client uses.
    ("transport.http_request", "requests.sessions", "Session", "request"),
]


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.cell = array("i")
        self.parent = array("q")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.current_cell = -1
        self._stack = [-1]
        self._depth: list[int] = []
        self._undo: list = []

    def _id(self, span_name: str) -> int:
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
            self._depth.append(0)
        return self._ids[span_name]

    def wrap(self, span_name, fn, enter=None, leave=None):
        """``fn`` inside a span; ``enter(args, kwargs)`` runs before it and its
        value reaches ``leave(state, args, kwargs, result, seconds)``."""
        nid = self._id(span_name)
        names, cells, parents, outers = self.name, self.cell, self.parent, self.outer
        starts, ends, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = enter(args, kwargs) if enter else None
            index = len(names)
            names.append(nid)
            cells.append(self.current_cell)
            parents.append(stack[-1])
            outers.append(depth[nid] == 0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(index)
            started = clock()
            starts.append(started)
            try:
                result = fn(*args, **kwargs)
            finally:
                finished = clock()
                ends[index] = finished
                stack.pop()
                depth[nid] -= 1
            if leave:
                leave(state, args, kwargs, result, finished - started)
            return result

        return traced

    def install(self) -> None:
        hooks = self._hooks()
        for span_name, module_name, attr in FUNCTIONS:
            original = getattr(_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original, *hooks.get(span_name, ()))
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "prp_sort"]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, value))
                        setattr(module, name, wrapper)
        for span_name, module_name, class_name, method in METHODS:
            cls = getattr(_module(module_name), class_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(span_name, original, *hooks.get(span_name, ())))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _hooks(self) -> dict:
        counters, samples = self.counters, self.samples

        def new_cell(args, kwargs):
            self.current_cell += 1

        def cell_done(state, args, kwargs, result, seconds):
            samples["cell"].append(seconds)

        def ledger_before(args, kwargs):
            ledger = getattr(args[0], "ledger", None)
            return (ledger.inference_calls, ledger.cache_hits) if ledger else (0, 0)

        def group_done(state, args, kwargs, result, seconds):
            executor, size = args[0], len(_arg(args, kwargs, 2, "group"))
            ledger = getattr(executor, "ledger", None)
            calls, hits = (
                (ledger.inference_calls - state[0], ledger.cache_hits - state[1])
                if ledger
                else (0, 0)
            )
            counters["group_size"] += size
            counters["singletons"] += size == 1
            counters["chunk_misses"] += size - hits
            counters["chunk_slots"] += calls * getattr(executor, "batch_size", 1)

        def partition_done(state, args, kwargs, result, seconds):
            counters["partition_width"] += _arg(args, kwargs, 2, "hi") - _arg(args, kwargs, 1, "lo")

        def llm_done(state, args, kwargs, result, seconds):
            prompts = len(_arg(args, kwargs, 1, "prompts"))
            counters["llm_prompts"] += prompts
            samples["llm_w1" if prompts == 1 else "llm_wide"].append(seconds)

        def label_done(state, args, kwargs, result, seconds):
            counters["label_fallbacks"] += not result[1]

        return {
            "algorithms.run_algorithm": (new_cell, cell_done),
            "oracles.submit_group": (ledger_before, group_done),
            "algorithms.batch_partition": (None, partition_done),
            "oracles.llm_compare_batch": (None, llm_done),
            "oracles.parse_preference_label": (None, label_done),
        }

    def layer_times(self) -> dict:
        """Per span name: calls, inclusive seconds of outermost spans, self seconds."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        figures = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            duration = self.end[i] - self.start[i]
            entry = figures[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration - child[i]
            if self.outer[i]:
                entry["s"] += duration
        return figures

    def write(self, directory: Path) -> None:
        """Spans as raw arrays (int32 name, int32 cell, int64 parent, int8
        outer, float64 start, float64 end), with their layout in JSON."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = ("name", "cell", "parent", "outer", "start", "end")
        with open(directory / "spans.bin", "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        layout = {
            "spans": len(self.name),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "names": self.names,
        }
        (directory / "spans.json").write_text(json.dumps(layout), encoding="utf-8")


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def traced_sweep(workload, work: Path):
    """Run one sweep with every layer wrapped; return the sweep and its tracer."""
    tracer = Tracer()
    tracer.install()
    try:
        sweep = workload.sweep()
    finally:
        tracer.uninstall()
    tracer.write(work / "trace")
    return sweep, tracer


def layer_metrics(sweep, tracer: Tracer, untraced_s: float) -> dict:
    """The per-layer metrics of one traced sweep, as {name: (value, unit)}."""
    times = tracer.layer_times()
    counters, samples = tracer.counters, tracer.samples

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    def ms(name, key="s"):
        return times.get(name, {}).get(key, 0.0) * 1000.0

    def ratio(num, den):
        return num / den if den else 0.0

    groups = calls("oracles.submit_group")
    partitions = calls("algorithms.batch_partition")
    llm_calls = calls("oracles.llm_compare_batch")
    totals = sweep.totals()
    stub = sweep.stub or {}
    requests_seen = stub.get("requests", 0)
    http = calls("transport.http_request")
    w1 = [s * 1000.0 for s in samples["llm_w1"]]
    wide = [s * 1000.0 for s in samples["llm_wide"]]
    cell_ms = [s * 1000.0 for s in samples["cell"]]
    metrics = {
        "oracles.submit_group.calls": (groups, "count"),
        "oracles.submit_group.self_ms": (ms("oracles.submit_group", "self_s"), "ms"),
        "oracles.submit_group.singleton_share": (ratio(counters["singletons"], groups), "ratio"),
        "oracles.submit_group.group_size_mean": (ratio(counters["group_size"], groups), "count"),
        "oracles.compare.calls": (calls("oracles.compare"), "count"),
        "oracles.compare.ms": (ms("oracles.compare"), "ms"),
        "model.canonical_pair.calls": (calls("model.canonical_pair"), "count"),
        "model.canonical_pair.ms": (ms("model.canonical_pair"), "ms"),
        "seeding.stable_seed.calls": (calls("seeding.stable_seed"), "count"),
        "seeding.stable_seed.ms": (ms("seeding.stable_seed"), "ms"),
        "algorithms.heapsort_topk.self_ms": (ms("algorithms.heapsort_topk", "self_s"), "ms"),
        "algorithms.bubblesort_topk.self_ms": (ms("algorithms.bubblesort_topk", "self_s"), "ms"),
        "algorithms.quicksort_topk.self_ms": (ms("algorithms.quicksort_topk", "self_s"), "ms"),
        "algorithms.select_pivot.calls": (calls("algorithms.select_pivot"), "count"),
        "algorithms.select_pivot.ms": (ms("algorithms.select_pivot"), "ms"),
        "algorithms.batch_partition.calls": (partitions, "count"),
        "algorithms.batch_partition.ms": (ms("algorithms.batch_partition"), "ms"),
        "algorithms.batch_partition.width_mean": (
            ratio(counters["partition_width"], partitions),
            "count",
        ),
        "oracles.cache_hit_ratio": (ratio(totals["cache_hits"], totals["comparisons"]), "ratio"),
        "oracles.cache_hit_base": (totals["comparisons"], "count"),
        "oracles.chunk_fill": (ratio(counters["chunk_misses"], counters["chunk_slots"]), "ratio"),
        "oracles.llm_compare_batch.w1.calls": (len(w1), "count"),
        "oracles.llm_compare_batch.w1.ms_p50": (_quantile(w1, 0.5), "ms"),
        "oracles.llm_compare_batch.w1.ms_p90": (_quantile(w1, 0.9), "ms"),
        "oracles.llm_compare_batch.wide.calls": (len(wide), "count"),
        "oracles.llm_compare_batch.wide.ms_p50": (_quantile(wide, 0.5), "ms"),
        "oracles.llm_compare_batch.wide.ms_p90": (_quantile(wide, 0.9), "ms"),
        "oracles.llm_compare_batch.prompts_mean": (
            ratio(counters["llm_prompts"], llm_calls),
            "count",
        ),
        "oracles.http_overhead_ms": (
            ratio(ms("transport.http_request"), http)
            - ratio(stub.get("service_s", 0.0) * 1000.0, requests_seen),
            "ms",
        ),
        "oracles.build_prp_prompt.calls": (calls("oracles.build_prp_prompt"), "count"),
        "oracles.build_prp_prompt.ms": (ms("oracles.build_prp_prompt"), "ms"),
        "oracles.parse_preference_label.calls": (
            calls("oracles.parse_preference_label"),
            "count",
        ),
        "oracles.parse_preference_label.fallbacks": (counters["label_fallbacks"], "count"),
        "oracles.transport_retries": (max(0, http - llm_calls), "count"),
        "stub.connections_per_request": (
            ratio(stub.get("connections", 0), requests_seen),
            "ratio",
        ),
        "stub.service_ms": (ratio(stub.get("service_s", 0.0) * 1000.0, requests_seen), "ms"),
        "stub.request_kb": (ratio(stub.get("bytes_in", 0) / 1024.0, requests_seen), "kB"),
        "stub.response_kb": (ratio(stub.get("bytes_out", 0) / 1024.0, requests_seen), "kB"),
        "experiment.cells": (len(cell_ms), "count"),
        "experiment.cell_ms_p50": (_quantile(cell_ms, 0.5), "ms"),
        "experiment.cell_ms_p90": (_quantile(cell_ms, 0.9), "ms"),
        "experiment.compute_aggregates.ms": (ms("experiment.compute_aggregates"), "ms"),
        "experiment.emit_report.ms": (ms("experiment.emit_report"), "ms"),
        "metrics.ndcg_at_k.calls": (calls("metrics.ndcg_at_k"), "count"),
        "metrics.ndcg_at_k.ms": (ms("metrics.ndcg_at_k"), "ms"),
        "datasets.generate_synthetic.ms": (ms("datasets.generate_synthetic"), "ms"),
        "datasets.load_run_file.ms": (ms("datasets.load_run_file"), "ms"),
        "datasets.load_qrels.ms": (ms("datasets.load_qrels"), "ms"),
        "datasets.load_id_text_tsv.ms": (ms("datasets.load_id_text_tsv"), "ms"),
        "trace.spans": (len(tracer.name), "count"),
        "trace.untraced_sweep_s": (untraced_s, "s"),
        "trace.traced_sweep_s": (sweep.seconds, "s"),
        "trace.overhead_pct": (100.0 * (sweep.seconds / untraced_s - 1.0), "%"),
    }
    return metrics
