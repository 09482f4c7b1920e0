"""Benchmark workloads: inputs made from the seed, the sweep, and its output checks.

Every workload runs the harness's own serial sweep through the public API,
``config_from_dict -> run_experiment -> emit_report`` (CSV), and checks every
cell of every sweep. A cell that failed, or whose output check fails, counts
as failed.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

import prp_sort
from prp_sort.seeding import stable_seed

import stub

ROOT = Path(__file__).resolve().parents[1]
COST_MODEL_CONFIG = ROOT / "configs" / "cost_model.json"
COST_MODEL_GOLDEN = ROOT / "tests" / "golden" / "cost_model.json"
GOLDEN_SEED = 1729
K = 10
# Timed sweeps of sweep-score run the first 10 queries of the reference
# config. The generator seeds each query from (seed, query id) alone, so these
# cells are exactly those of the full sweep; a sweep of 80 cells is short
# enough that a run holds hundreds of them.
TIMED_QUERIES = 10

# Graded relevance by hidden-score rank, as in the synthetic datasets: the
# top 10% grade 3, the next 20% grade 2, the next 30% grade 1, the rest 0.
GRADE_CUTOFFS = ((10, 3), (30, 2), (60, 1))

WORDS = (
    "ranking retrieval passage relevance query document judge model pairwise "
    "sort heap bubble quick pivot batch cache index corpus token score neural "
    "sparse dense vector signal answer evidence source topic context river "
    "mountain harbor engine protein market archive climate orbit"
).split()

# Query counts keep one sweep near 9 s on a 2-vCPU host, so a 30 s run
# measures three sweeps, while the counts vary little from seed to seed.
LLM_WORKLOADS = {
    "llm-sequential": {
        "queries": 4,
        "n": 50,
        "algorithms": [
            {"algorithm": "heapsort"},
            {"algorithm": "bubblesort", "use_cache": True},
        ],
    },
    "llm-batched": {
        "queries": 24,
        "n": 100,
        "algorithms": [
            {"algorithm": "quicksort", "pivot": "median-of-three", "batch_size": 8},
            {"algorithm": "quicksort", "pivot": "median-of-three", "batch_size": 128},
            {"algorithm": "quicksort", "pivot": "random", "batch_size": 128},
            {"algorithm": "quicksort", "pivot": "middle", "batch_size": 32},
        ],
    },
}

CELL_FIELDS = ("status", "comparisons", "inference_calls", "cache_hits", "batch_groups", "ndcg")


def cell_key(row) -> tuple[str, str]:
    return row.algorithm, row.query_id


def cell_values(row) -> tuple:
    return tuple(getattr(row, name) for name in CELL_FIELDS)


@dataclass
class Sweep:
    """One measured sweep: its report rows, wall time and stub counters."""

    rows: list
    aggregates: list
    seconds: float
    stub: dict | None

    def cells(self) -> dict:
        return {cell_key(r): cell_values(r) for r in self.rows}

    def counts(self) -> tuple:
        """Everything a repeat of the same sweep must reproduce exactly."""
        stub_counts = {k: v for k, v in (self.stub or {}).items() if k != "service_s"}
        return self.cells(), stub_counts

    def totals(self) -> dict:
        ok = [r for r in self.rows if r.status == "ok"]
        totals = {
            name: sum(getattr(r, name) for r in ok)
            for name in ("comparisons", "inference_calls", "cache_hits", "batch_groups")
        }
        ndcgs = [r.ndcg for r in ok if r.ndcg is not None]
        totals["ndcg_mean"] = sum(ndcgs) / len(ndcgs) if ndcgs else 0.0
        return totals


class Workload:
    """One benchmark workload: a raw config document plus its output check.

    ``raw`` is the workload's full config; ``timed_raw`` is the config of each
    timed sweep. Timed sweeps run in blocks of ``block``. A ``cpu_bound``
    workload's sweep time is given in reference seconds (see calibrate.py).
    """

    block = 1
    cpu_bound = False
    full = None  # the untimed sweep of ``raw``, where it differs from a timed one

    def __init__(
        self, raw: dict, stub_client: stub.StubClient | None = None, timed_raw: dict | None = None
    ):
        self.raw = raw
        self.timed_raw = raw if timed_raw is None else timed_raw
        self.stub = stub_client
        self.config = prp_sort.config_from_dict(raw)

    def sweep(self, raw: dict | None = None) -> Sweep:
        """One closed-loop sweep: parse, run every cell, emit the report."""
        before = self.stub.stats() if self.stub else None
        started = time.perf_counter()
        config = prp_sort.config_from_dict(self.timed_raw if raw is None else raw)
        report = prp_sort.run_experiment(config)
        prp_sort.emit_report(report, config.out_format, config.out_path)
        seconds = time.perf_counter() - started
        delta = stub.stats_delta(before, self.stub.stats()) if self.stub else None
        return Sweep(report.rows, report.aggregates, seconds, delta)

    def failed_cells(self, sweep: Sweep) -> set:
        """Keys of the cells whose output is wrong; the workload's own check."""
        raise NotImplementedError


class SweepScore(Workload):
    """The paper's reference sweep, configs/cost_model.json at the given seed.

    The full sweep runs once, untimed: its counts are the run's figures, and
    at the golden seed its aggregates must equal the golden file. Timed sweeps
    run its first TIMED_QUERIES queries and must reproduce its cells.
    """

    block = 5
    cpu_bound = True

    def __init__(self, seed: int, work: Path):
        raw = json.loads(COST_MODEL_CONFIG.read_text(encoding="utf-8"))
        raw["seed"] = seed
        raw["output"] = {"path": str(work / "report.csv"), "format": "csv"}
        timed = copy.deepcopy(raw)
        timed["dataset"]["synthetic"]["queries"] = TIMED_QUERIES
        super().__init__(raw, timed_raw=timed)
        self.seed = seed
        self.golden = json.loads(COST_MODEL_GOLDEN.read_text(encoding="utf-8"))["aggregates"]
        self.full = self.sweep(raw)

    def failed_cells(self, sweep: Sweep) -> set:
        rows = sweep.rows
        by_key = {cell_key(r): r for r in rows}
        failed = set()
        for row in rows:
            if row.status != "ok" or row.ndcg != 1.0:
                failed.add(cell_key(row))
            elif row.batch_size == 1 and not row.cached and row.inference_calls != row.comparisons:
                failed.add(cell_key(row))  # the B=1 law
        bubble = [a for a in self.config.algorithms if a.algorithm is prp_sort.Algorithm.BUBBLESORT]
        classic = {a.k: a.label() for a in bubble if not a.use_cache}
        for cached in (a for a in bubble if a.use_cache):
            for row in rows:
                if row.algorithm != cached.label() or row.status != "ok":
                    continue
                base = by_key.get((classic.get(cached.k), row.query_id))
                if base is None or row.inference_calls + row.cache_hits != base.comparisons:
                    failed.add(cell_key(row))  # cache invariance
        if sweep is not self.full:
            full = self.full.cells()
            failed |= {key for key, values in sweep.cells().items() if full.get(key) != values}
        elif self.seed == GOLDEN_SEED:
            aggregates = {a.algorithm: a for a in sweep.aggregates}
            for label in set(aggregates) | set(self.golden):
                agg, expected = aggregates.get(label), self.golden.get(label)
                if (
                    agg is None
                    or expected is None
                    or any(getattr(agg, f) != v for f, v in expected.items())
                ):
                    failed |= {cell_key(r) for r in rows if r.algorithm == label}
        return failed


def write_trec_inputs(work: Path, seed: int, queries: int, n: int) -> dict:
    """Write run, qrels, query and passage files for ``queries`` queries of
    ``n`` candidates each; every passage hides a distinct ground-truth score."""
    paths = {name: work / f"{name}.txt" for name in ("run", "qrels", "queries", "passages")}
    run, qrels, texts, passages = [], [], [], []
    for qi in range(1, queries + 1):
        qid = f"q{qi:03d}"
        rng = Random(stable_seed("bench-inputs", seed, qid))
        texts.append(f"{qid}\t{qid} " + " ".join(rng.choices(WORDS, k=8)))
        docs = [f"{qid}-d{j:03d}" for j in range(n)]
        values = [(j + 1) / n for j in range(n)]
        rng.shuffle(values)
        for doc, value in zip(docs, values):
            head, tail = rng.choices(WORDS, k=24), rng.choices(WORDS, k=24)
            passages.append(
                f"{doc}\t{doc} {' '.join(head)} {stub.SCORE_OPEN}{value:.6f}] {' '.join(tail)}"
            )
        score = dict(zip(docs, values))
        by_value = sorted(docs, key=score.get, reverse=True)
        for rank, doc in enumerate(by_value):
            grade = next((g for pct, g in GRADE_CUTOFFS if rank < n * pct // 100), 0)
            qrels.append(f"{qid} 0 {doc} {grade}")
        first_stage = list(docs)
        rng.shuffle(first_stage)
        for rank, doc in enumerate(first_stage, start=1):
            run.append(f"{qid} Q0 {doc} {rank} {1.0 - rank / (n + 1):.6f} bench")
    for name, lines in (("run", run), ("qrels", qrels), ("queries", texts), ("passages", passages)):
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


class JudgeOracle(prp_sort.Oracle):
    """In-process reference judge: the stub's ``judge`` without HTTP. Keeps
    the pairs it was asked, in order."""

    def __init__(self, query: str, passages: dict, extra_flips=frozenset()):
        self.query = query
        self.passages = passages
        self.extra_flips = extra_flips
        self.asked = []

    def compare(self, req):
        a, b = self.passages[req.first], self.passages[req.second]
        self.asked.append((a, b) if a < b else (b, a))
        a_wins = stub.judge(self.query, a, b, self.extra_flips)
        return prp_sort.Preference.FIRST if a_wins else prp_sort.Preference.SECOND


class LlmSweep(Workload):
    """Generated TREC files ranked by the llm oracle against the stub backend."""

    def __init__(self, name: str, seed: int, work: Path, stub_client: stub.StubClient):
        spec = LLM_WORKLOADS[name]
        paths = write_trec_inputs(work, seed, spec["queries"], spec["n"])
        raw = {
            "dataset": {
                "run": paths["run"],
                "qrels": paths["qrels"],
                "queries": paths["queries"],
                "passages": paths["passages"],
                "depth": spec["n"],
            },
            "oracle": {"kind": "llm", "endpoint": {"url": stub_client.url}},
            "k": K,
            "seed": seed,
            "algorithms": spec["algorithms"],
            "output": {"path": str(work / "report.csv"), "format": "csv"},
        }
        super().__init__(raw, stub_client)
        source = self.config.dataset
        self.queries = prp_sort.load_run_file(source.run_path, depth=source.depth)
        self.grades = prp_sort.load_qrels(source.qrels_path)
        self.query_texts = prp_sort.load_id_text_tsv(source.queries_path)
        self.passages = prp_sort.load_id_text_tsv(source.passages_path)
        self.reference = self.reference_cells()

    def reference_cell(self, algo, query, extra_flips=frozenset()) -> tuple[tuple, list]:
        """One cell's values from an in-process run with the stub's judge,
        and the pairs it asked. run_experiment derives each cell's seed from
        (master seed, query id) the same way."""
        oracle = JudgeOracle(self.query_texts[query.qid], self.passages, extra_flips)
        cell = replace(algo, seed=stable_seed("run", self.config.master_seed, query.qid))
        ranking, ledger = prp_sort.run_algorithm([c.doc for c in query.candidates], cell, oracle)
        ndcg = prp_sort.ndcg_at_k(ranking, self.grades, query.qid, self.config.k)
        values = (
            "ok",
            ledger.comparisons,
            ledger.inference_calls,
            ledger.cache_hits,
            ledger.batch_groups,
            ndcg,
        )
        return values, oracle.asked

    def reference_cells(self) -> dict:
        return {
            (algo.label(), query.qid): self.reference_cell(algo, query)[0]
            for algo in self.config.algorithms
            for query in self.queries
        }

    def failed_cells(self, sweep: Sweep, reference: dict | None = None) -> set:
        reference = self.reference if reference is None else reference
        cells = sweep.cells()
        failed = {key for key, values in cells.items() if reference.get(key) != values}
        failed |= set(reference) - set(cells)
        totals = sweep.totals()
        if (
            sweep.stub["requests"] != totals["inference_calls"]
            or sweep.stub["prompts"] != totals["comparisons"] - totals["cache_hits"]
        ):
            failed |= set(cells)
        return failed

    def negative_self_test(self, sweep: Sweep) -> bool:
        """A judge with one extra flipped pair must make the check fail.

        The pair is the first one asked by the first cell whose flip changes
        that cell's reference values at all; the check must then reject the
        measured sweep against the flipped reference.
        """
        algo, query = self.config.algorithms[0], self.queries[0]
        key = (algo.label(), query.qid)
        for pair in self.reference_cell(algo, query)[1]:
            flipped, _ = self.reference_cell(algo, query, frozenset([pair]))
            if flipped != self.reference[key]:
                return key in self.failed_cells(sweep, {**self.reference, key: flipped})
        return False


def make(name: str, seed: int, work: Path, stub_client: stub.StubClient | None) -> Workload:
    if name == "sweep-score":
        return SweepScore(seed, work)
    return LlmSweep(name, seed, work, stub_client)
