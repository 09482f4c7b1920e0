"""End-to-end experiment runner and report emission.

A run takes a dataset (TREC files or synthetic), an algorithm matrix and an
oracle spec, executes every (query, algorithm) cell with a fresh executor and
cache, and emits per-query rows plus aggregates with percentage gains against
each variant's ``AlgoConfig.baseline()``.
Everything is deterministic for non-LLM oracles: per-query seeds are derived
from (master_seed, qid), so neither adding queries nor permuting their input
order changes any existing per-query value.
"""

from __future__ import annotations

import io
import json
import sys
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Sequence

from .algorithms import Algorithm, AlgoConfig, PivotStrategy, run_algorithm
from .datasets import (
    Dataset,
    generate_synthetic,
    load_id_text_tsv,
    load_qrels,
    load_run_file,
)
from .errors import BackendFailure, InvalidConfig
from .metrics import ndcg_at_k
from .model import Candidate, CostLedger
from .oracles import LlmEndpoint, LlmOracle, NoisyOracle, Oracle, ScoreOracle
from .seeding import stable_seed

# Cells of an llm sweep in flight at once. Each worker thread gets its own
# malloc arena, so peak RSS grows with the pool. Twelve stay at the RSS that
# eight took when every call built its prompts as strings, then a JSON str,
# then its bytes: ``LlmOracle`` now joins each body once from bytes escaped
# when the cell starts. Sixteen cost about 3 MB more and were not clearly
# faster on 2 vCPUs (README, "peak RSS").
LLM_CONCURRENCY = 12


@dataclass(frozen=True)
class SyntheticSpec:
    num_queries: int
    n: int

    def __post_init__(self) -> None:
        if self.num_queries < 1 or self.n < 1:
            raise InvalidConfig(f"queries and n must be >= 1, got {self.num_queries}, {self.n}")


@dataclass(frozen=True)
class FileSource:
    """TREC-format inputs. The optional TSV maps are only needed when the
    llm oracle is selected (run files carry no text)."""

    run_path: str
    qrels_path: str
    queries_path: str | None = None
    passages_path: str | None = None
    depth: int = 100

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise InvalidConfig(f"depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class OracleSpec:
    """Which judge answers the comparisons; the noisy judge's flips are keyed
    on the sweep's seed. Checked on construction, like ``ExperimentConfig``."""

    kind: str = "score"  # score | noisy | llm
    flip_probability: float = 0.0
    endpoint: LlmEndpoint | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("score", "noisy", "llm"):
            raise InvalidConfig(f"oracle kind must be score, noisy or llm, got {self.kind!r}")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise InvalidConfig(f"flip_probability must be in [0, 1], got {self.flip_probability}")
        if self.kind == "llm" and self.endpoint is None:
            raise InvalidConfig("llm oracle requires an endpoint")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: dataset, algorithm matrix, oracle, k, seed and output; every
    entry has the sweep's k and the default seed, since each cell's seed
    derives from the sweep's. The checks run on construction, so an invalid
    config (also one made with ``dataclasses.replace``) cannot exist; the
    matrix is stored as a tuple, so it cannot be changed in place either."""

    dataset: SyntheticSpec | FileSource
    algorithms: Sequence[AlgoConfig]
    oracle: OracleSpec = field(default_factory=OracleSpec)
    k: int = 10
    master_seed: int = 0
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        stray = sorted({algo.k for algo in self.algorithms} - {self.k})
        if stray:
            raise InvalidConfig(f"algorithm entries have k {stray}; the sweep's k is {self.k}")
        seeded = sorted({algo.seed for algo in self.algorithms} - {AlgoConfig.seed})
        if seeded:
            raise InvalidConfig(f"algorithm entries have seed {seeded}; the sweep seeds each cell")
        if not self.algorithms:
            raise InvalidConfig("the algorithm matrix is empty")
        if self.out_format not in ("csv", "jsonl"):
            raise InvalidConfig(f"output format must be csv or jsonl, got {self.out_format!r}")
        if isinstance(self.dataset, SyntheticSpec) and self.oracle.kind == "llm":
            raise InvalidConfig("synthetic datasets carry no text; use the score or noisy oracle")
        # Aggregates are grouped by label, so two entries sharing one would be
        # silently merged into a single row.
        labels = [algo.label() for algo in self.algorithms]
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        if duplicates:
            raise InvalidConfig(f"algorithm entries share the labels {duplicates}")


@dataclass(slots=True)
class QueryRow:
    """One (query, algorithm) cell. Cells whose oracle failed carry
    status='failed' and empty counts; they are excluded from aggregates."""

    query_id: str
    algorithm: str
    status: str
    k: int
    batch_size: int
    pivot: str | None
    cached: bool
    partial: bool | None
    comparisons: int | None
    inference_calls: int | None
    cache_hits: int | None
    batch_groups: int | None
    ndcg: float | None
    config: AlgoConfig  # the matrix entry the cell ran; not a report column


@dataclass(slots=True)
class AggregateRow:
    """Per algorithm-config statistics over the ok rows, plus the percentage
    gain in mean inference calls against the row's named baseline. The
    statistics stay None when no row is ok."""

    algorithm: str
    k: int
    batch_size: int
    pivot: str | None
    cached: bool
    partial: bool | None
    n_queries: int
    failures: int
    mean_comparisons: float | None = None
    sd_comparisons: float | None = None
    mean_inference_calls: float | None = None
    sd_inference_calls: float | None = None
    mean_cache_hits: float | None = None
    mean_ndcg: float | None = None
    baseline: str | None = None
    gain_pct: float | None = None


@dataclass
class ExperimentReport:
    rows: list[QueryRow]

    @property
    def aggregates(self) -> list[AggregateRow]:
        """The aggregate rows, computed from ``rows`` on every access."""
        return compute_aggregates(self.rows)


_JSON_KINDS = {
    int: "an integer", float: "a number", bool: "true or false",
    str: "a string", dict: "an object", list: "a list",
}

# Each config section's keys and the kind of value each takes, by the
# section's name in errors. An enum kind takes the string value of a member.
_SECTIONS: dict[str, dict[str, type]] = {
    "config": {
        "dataset": dict, "algorithms": list, "oracle": dict,
        "k": int, "seed": int, "output": dict,
    },
    "synthetic dataset": {"synthetic": dict},
    "dataset.synthetic": {"queries": int, "n": int},
    "file dataset": {"run": str, "qrels": str, "queries": str, "passages": str, "depth": int},
    "oracle": {"kind": str, "flip_probability": float, "endpoint": dict},
    "oracle.endpoint": {
        "url": str, "model": str, "api_key_env": str,
        "timeout_s": float, "prompt_template": str, "retries": int,
    },
    "output": {"path": str, "format": str},
    "algorithm entry": {
        "algorithm": Algorithm, "batch_size": int,
        "use_cache": bool, "pivot": PivotStrategy, "partial": bool,
    },
}


def _section(raw: Any, where: str, required: Sequence[str] = (), **names: str) -> dict[str, Any]:
    """The non-null entries of the config section ``where``, checked against
    its ``_SECTIONS`` table and keyed by the dataclass field each sets:
    ``names`` maps a key to its field where the two differ. An unknown key, a
    missing ``required`` one or a value of the wrong kind is an error; a bool
    never counts as a number, and an int is accepted as a float. The keys
    left out stay out, so every default comes from the dataclass."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{where} must be an object, got {type(raw).__name__}")
    kinds = _SECTIONS[where]
    unknown = set(raw) - set(kinds)
    if unknown:
        raise InvalidConfig(f"unknown {where} keys: {sorted(unknown)}")
    values: dict[str, Any] = {}
    for key, value in raw.items():
        if value is None:
            continue
        kind = kinds[key]
        json_kind = str if issubclass(kind, Enum) else kind
        accepted = (int, float) if kind is float else json_kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise InvalidConfig(f"{where}: {key!r} must be {_JSON_KINDS[json_kind]}, got {value!r}")
        if kind is not json_kind:
            try:
                value = kind(value)
            except ValueError:
                choices = sorted(member.value for member in kind)
                raise InvalidConfig(f"{key} must be one of {choices}, got {value!r}") from None
        values[names.get(key, key)] = value
    for key in required:
        if names.get(key, key) not in values:
            raise InvalidConfig(f"{where} is missing {key!r}")
    return values


def config_from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON config document."""
    top = _section(raw, "config", ["dataset", "algorithms"], seed="master_seed")
    dataset = top.pop("dataset")
    if ("synthetic" in dataset) == ("run" in dataset):
        raise InvalidConfig("dataset must carry either a 'synthetic' spec or 'run'+'qrels' paths")
    if "synthetic" in dataset:
        synthetic = _section(dataset, "synthetic dataset", ["synthetic"])["synthetic"]
        spec = _section(synthetic, "dataset.synthetic", ["queries", "n"])
        source: SyntheticSpec | FileSource = SyntheticSpec(spec["queries"], spec["n"])
    else:
        paths = _section(
            dataset,
            "file dataset",
            ["run", "qrels"],
            run="run_path",
            qrels="qrels_path",
            queries="queries_path",
            passages="passages_path",
        )
        source = FileSource(**paths)
    # Every algorithm entry runs at the sweep's k.
    k = top.get("k", ExperimentConfig.k)
    algorithms = [
        AlgoConfig(**_section(entry, "algorithm entry", ["algorithm"]), k=k)
        for entry in top.pop("algorithms")
    ]
    oracle = _section(top.pop("oracle", {}), "oracle")
    if "endpoint" in oracle:
        oracle["endpoint"] = LlmEndpoint(**_section(oracle["endpoint"], "oracle.endpoint", ["url"]))
    output = _section(top.pop("output", {}), "output", path="out_path", format="out_format")
    return ExperimentConfig(
        dataset=source, algorithms=algorithms, oracle=OracleSpec(**oracle), **top, **output
    )


def read_config_json(path: str) -> dict[str, Any]:
    """The JSON object in a config file; a file that is not valid JSON, or
    whose top level is not an object, is an InvalidConfig error."""
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path} must hold a JSON object, got {type(raw).__name__}")
    return raw


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_config_json(path))


def _load_dataset(config: ExperimentConfig) -> Dataset:
    source = config.dataset
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source.num_queries, source.n, config.master_seed)
    queries = load_run_file(source.run_path, depth=source.depth)
    grades = load_qrels(source.qrels_path)
    if source.queries_path:
        query_texts = load_id_text_tsv(source.queries_path)
        for query in queries:
            query.text = query_texts.get(query.qid)
    if source.passages_path:
        passages = load_id_text_tsv(source.passages_path)
        for query in queries:
            query.candidates = [Candidate(c.doc, passages.get(c.doc)) for c in query.candidates]
    if config.oracle.kind == "llm":
        for query in queries:
            if query.text is None:
                raise InvalidConfig(
                    f"llm oracle requires query text; none found for {query.qid!r} "
                    "(provide dataset.queries TSV)"
                )
            for cand in query.candidates:
                if cand.text is None:
                    raise InvalidConfig(
                        f"llm oracle requires passage text; none found for {cand.doc!r} "
                        "(provide dataset.passages TSV)"
                    )
    # The ground truth is the qrels grades, with unjudged candidates at 0.0;
    # the score oracle breaks exact ties lexicographically.
    truth = {}
    for query in queries:
        judged = grades.get(query.qid, {})
        truth[query.qid] = {c.doc: float(judged.get(c.doc, 0)) for c in query.candidates}
    return Dataset(queries, grades, truth)


def _build_oracle(config: ExperimentConfig, dataset: Dataset, query) -> Oracle:
    kind = config.oracle.kind
    if kind == "llm":
        return LlmOracle(config.oracle.endpoint, query.text, query.candidates)
    base = ScoreOracle(dataset.ground_truth_scores[query.qid])
    if kind == "score":
        return base
    return NoisyOracle(
        base,
        config.oracle.flip_probability,
        stable_seed("noise", config.master_seed, query.qid),
    )


def _run_cell(
    config: ExperimentConfig,
    dataset: Dataset,
    algo: AlgoConfig,
    columns: dict[str, Any],
    query,
) -> QueryRow:
    """Run one (query, algorithm) cell with its own oracle, executor and
    cache. A backend failure gives a failed row; the oracle is closed however
    the cell ends."""
    cell = replace(algo, seed=stable_seed("run", config.master_seed, query.qid))
    oracle = _build_oracle(config, dataset, query)
    try:
        ranking, ledger = run_algorithm([c.doc for c in query.candidates], cell, oracle)
    except BackendFailure:
        status, counts, ndcg = "failed", dict.fromkeys(CostLedger().as_dict()), None
    else:
        status, counts = "ok", ledger.as_dict()
        ndcg = ndcg_at_k(ranking, dataset.grades, query.qid, config.k)
    finally:
        oracle.close()
    return QueryRow(
        query_id=query.qid,
        status=status,
        ndcg=ndcg,
        config=algo,
        **columns,
        **counts,
    )


def _run_pooled(run_cell: Callable[[int], QueryRow], count: int, workers: int) -> list[QueryRow]:
    """``[run_cell(i) for i in range(count)]``, computed on ``workers`` threads.

    Each worker takes the next index under a lock and writes its row to that
    index, so the rows keep their serial order. The first exception a cell
    raises, or an interrupt of the calling thread, stops workers from taking
    new indices; the cells already running finish, every thread is joined,
    and the exception is raised.
    """
    rows: list[Any] = [None] * count
    indices = iter(range(count))
    lock = threading.Lock()
    worker_done = threading.Condition(lock)
    errors: list[BaseException] = []
    done = 0

    def work() -> None:
        nonlocal done
        try:
            while True:
                with lock:
                    index = None if errors else next(indices, None)
                if index is None:
                    return
                rows[index] = run_cell(index)
        except BaseException as exc:  # raised again by the calling thread
            with lock:
                errors.append(exc)
        finally:
            with lock:
                done += 1
                worker_done.notify()

    threads = [threading.Thread(target=work, name=f"prp-sort-cell-{n}") for n in range(workers)]
    for thread in threads:
        thread.start()
    # Wait on the condition, not in Thread.join: on Python 3.11 a Ctrl-C that
    # interrupts join marks the still running thread as stopped.
    with worker_done:
        while done < workers:
            try:
                worker_done.wait()
            except BaseException as exc:  # e.g. Ctrl-C: start no new cell
                errors.insert(0, exc)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full (query x algorithm) sweep and aggregate it.

    Each cell gets a fresh executor, cache and oracle, and closes its oracle
    (for ``llm``, its one HTTP connection) when it ends. Backend failures
    mark the cell failed and move on; anything structural still raises.

    ``score`` and ``noisy`` cells run one after another in the calling
    thread. ``llm`` cells spend their time waiting on the backend, so they
    run ``LLM_CONCURRENCY`` at a time on worker threads, each cell on its own
    connection. Rows keep the serial order either way (algorithm-major,
    query-minor), so reports are the same as a serial run's. An exception
    other than a backend failure stops new cells from starting, lets the
    running ones finish and close their connections, and is then raised.
    """
    dataset = _load_dataset(config)
    cells = []
    for algo in config.algorithms:
        columns = algo.columns()
        cells += [(algo, columns, query) for query in dataset.queries]
    if config.oracle.kind != "llm":
        rows = [_run_cell(config, dataset, *cell) for cell in cells]
    else:
        rows = _run_pooled(
            lambda index: _run_cell(config, dataset, *cells[index]),
            len(cells),
            min(LLM_CONCURRENCY, len(cells)),
        )
    return ExperimentReport(rows=rows)


def compute_aggregates(rows: list[QueryRow]) -> list[AggregateRow]:
    """Aggregate per-query rows per algorithm label, in first-seen order.

    A row group whose config names a ``baseline()`` gets the percentage gain
    in mean inference calls over the group with that baseline's label, when
    it is present: positive when the group needs fewer calls.
    """
    # Loaded here, not at import: only a sweep that aggregates needs it.
    from statistics import fmean, pstdev

    groups: dict[str, list[QueryRow]] = {}
    for row in rows:
        groups.setdefault(row.algorithm, []).append(row)
    aggregates: list[AggregateRow] = []
    for group in groups.values():
        ok = [r for r in group if r.status == "ok"]
        stats: dict[str, float | None] = {}
        if ok:
            comparisons = [r.comparisons for r in ok]
            calls = [r.inference_calls for r in ok]
            # Population SD, not sample SD: a row group is a complete query
            # set, and the golden file pins the choice.
            stats = dict(
                mean_comparisons=fmean(comparisons),
                sd_comparisons=pstdev(comparisons),
                mean_inference_calls=fmean(calls),
                sd_inference_calls=pstdev(calls),
                mean_cache_hits=fmean(r.cache_hits for r in ok),
                mean_ndcg=fmean(r.ndcg for r in ok),
            )
        aggregates.append(
            AggregateRow(
                **group[0].config.columns(),
                n_queries=len(ok),
                failures=len(group) - len(ok),
                **stats,
            )
        )
    by_label = {a.algorithm: a for a in aggregates}
    for agg, group in zip(aggregates, groups.values()):
        wanted = group[0].config.baseline()
        baseline = by_label.get(wanted.label()) if wanted is not None else None
        if (
            baseline is not None
            and baseline.mean_inference_calls
            and agg.mean_inference_calls is not None
        ):
            base = baseline.mean_inference_calls
            agg.baseline = baseline.algorithm
            agg.gain_pct = 100.0 * (base - agg.mean_inference_calls) / base
    return aggregates


REPORT_COLUMNS = [
    "kind",
    "algorithm",
    "query_id",
    "status",
    "k",
    "batch_size",
    "pivot",
    "cached",
    "partial",
    "comparisons",
    "inference_calls",
    "cache_hits",
    "batch_groups",
    "ndcg",
    "n_queries",
    "failures",
    "mean_comparisons",
    "sd_comparisons",
    "mean_inference_calls",
    "sd_inference_calls",
    "mean_cache_hits",
    "mean_ndcg",
    "baseline",
    "gain_pct",
]


def _row_record(row: QueryRow | AggregateRow) -> dict[str, Any]:
    kind = "query" if isinstance(row, QueryRow) else "aggregate"
    return {
        name: kind if name == "kind" else getattr(row, name, None)
        for name in REPORT_COLUMNS
    }


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def emit_report(report: ExperimentReport, out_format: str, path: str | None) -> None:
    """Write the report as CSV or JSON lines.

    CSV uses a fixed column order (REPORT_COLUMNS), '.' decimals, and 4
    decimal places for reals; JSON lines carry one object per row with the
    same stable keys, full float precision, and nulls for empty cells.
    A path of None or '-' writes to stdout.
    """
    if out_format not in ("csv", "jsonl"):
        raise InvalidConfig(f"output format must be csv or jsonl, got {out_format!r}")
    records = [_row_record(r) for r in report.rows]
    records += [_row_record(a) for a in report.aggregates]
    buffer = io.StringIO()
    if out_format == "csv":
        # Loaded here, not at import: only a CSV report needs it.
        import csv

        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for record in records:
            writer.writerow([_format_cell(record[n]) for n in REPORT_COLUMNS])
    else:
        for record in records:
            buffer.write(json.dumps(record, ensure_ascii=False))
            buffer.write("\n")
    text = buffer.getvalue()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
