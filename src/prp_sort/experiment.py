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
import math
import sys
import threading
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from enum import Enum
from typing import Any, Sequence

from .algorithms import Algorithm, AlgoConfig, PivotStrategy, run_algorithm
from .datasets import Dataset, _id_texts, generate_synthetic, load_qrels, load_run_file
from .errors import BackendFailure, InvalidConfig
from .metrics import ndcg_at_k
from .model import Candidate, CostLedger
from .oracles import LlmEndpoint, LlmOracle, NoisyOracle, Oracle, ScoreOracle, _Connection
from .seeding import stable_seed

# Workers of an llm sweep, and so its cells in flight at once and the
# connections it holds, one per worker. Each worker thread gets its own malloc
# arena, so peak RSS grows with the pool: on 2 vCPUs fourteen cost 2% more
# than twelve and sixteen 12% more, for 10% and 17% more cells per second
# (README, "LLM backend").
LLM_CONCURRENCY = 14


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


def _config_column(name: str) -> property:
    """A QueryRow report column that the row reads from ``config.columns()``."""
    return property(lambda row: row.config.columns()[name])


@dataclass(slots=True)
class QueryRow:
    """One (query, algorithm) cell. Cells whose oracle failed carry
    status='failed' and empty counts; they are excluded from aggregates.

    The report's columns are the fields other than ``config``, in order,
    with the five ``_CONFIG_COLUMNS`` after ``status``. A row reads those
    from its config, which fixes them, rather than storing them: a report
    holds every row of its sweep, so each stored field adds to its memory."""

    algorithm: str
    query_id: str
    status: str
    comparisons: int | None
    inference_calls: int | None
    cache_hits: int | None
    batch_groups: int | None
    ndcg: float | None
    config: AlgoConfig  # the matrix entry the cell ran; not a report column

    k = _config_column("k")
    batch_size = _config_column("batch_size")
    pivot = _config_column("pivot")
    cached = _config_column("cached")
    partial = _config_column("partial")


# The report columns of a query row that its config fixes, in column order.
_CONFIG_COLUMNS = ("k", "batch_size", "pivot", "cached", "partial")


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
    """A sweep's rows and their aggregates, which ``compute_aggregates``
    computes once, when the report is built. They are not an init argument,
    so a report cannot be built with the aggregates of other rows."""

    rows: list[QueryRow]
    aggregates: list[AggregateRow] = field(init=False)

    def __post_init__(self) -> None:
        self.aggregates = compute_aggregates(self.rows)


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
    """The JSON object in a config file, which may start with a byte-order
    mark; a file that is not valid UTF-8 JSON, or whose top level is not an
    object, is an InvalidConfig error."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:  # also a UnicodeDecodeError or an over-long integer
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
    # Each TSV is parsed whole, but only the texts the run names are kept.
    if source.queries_path:
        qids = {query.qid for query in queries}
        query_texts = {qid: text for qid, text in _id_texts(source.queries_path) if qid in qids}
        for query in queries:
            query.text = query_texts.get(query.qid)
    if source.passages_path:
        docs = {c.doc for query in queries for c in query.candidates}
        passages = {doc: text for doc, text in _id_texts(source.passages_path) if doc in docs}
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


def _run_cell(
    config: ExperimentConfig,
    dataset: Dataset,
    algo: AlgoConfig,
    label: str,
    query,
    connection: _Connection,
) -> QueryRow:
    """Run one (query, algorithm) cell with its own oracle, executor and
    cache. An ``llm`` oracle is built on ``connection``, the worker's, and
    sends every call over it; the cell leaves it open for the worker to
    close. A backend failure gives a failed row."""
    cell = replace(algo, seed=stable_seed("run", config.master_seed, query.qid))
    spec = config.oracle
    if spec.kind == "llm":
        oracle: Oracle = LlmOracle(connection, query.text, query.candidates)
    else:
        oracle = ScoreOracle(dataset.ground_truth_scores[query.qid])
        if spec.kind == "noisy":
            seed = stable_seed("noise", config.master_seed, query.qid)
            oracle = NoisyOracle(oracle, spec.flip_probability, seed)
    try:
        ranking, ledger = run_algorithm([c.doc for c in query.candidates], cell, oracle)
    except BackendFailure:
        status, counts, ndcg = "failed", dict.fromkeys(CostLedger().as_dict()), None
    else:
        status, counts = "ok", ledger.as_dict()
        ndcg = ndcg_at_k(ranking, dataset.grades, query.qid, config.k)
    return QueryRow(label, query.qid, status, **counts, ndcg=ndcg, config=algo)


def _run_pooled(
    config: ExperimentConfig, dataset: Dataset, cells: list[tuple], workers: int
) -> list[QueryRow]:
    """``[_run_cell(config, dataset, *cell, connection) for cell in cells]``,
    computed on ``workers`` threads.

    Each worker makes one connection to the sweep's endpoint, hands it to
    every cell it runs and closes it when it ends. The socket opens on the
    first POST, so a ``score`` or ``noisy`` worker never opens one. A worker
    takes the next cell under the pool's one lock and writes its row to that
    cell's index, so the rows keep their serial order. The calling thread
    holds the lock while it starts the workers, so an interrupt that lands
    then is caught before any cell starts. The first exception a cell raises,
    or an interrupt of the calling thread, stops workers from taking new
    cells; the cells already running finish, and the exception is raised, an
    interrupt ahead of a cell's error.
    """
    rows: list[Any] = [None] * len(cells)
    indices = iter(range(len(cells)))
    pool = threading.Condition()
    errors: list[BaseException] = []
    running = 0

    def work() -> None:
        nonlocal running
        try:
            with closing(_Connection(config.oracle.endpoint)) as connection:
                while True:
                    with pool:
                        index = None if errors else next(indices, None)
                    if index is None:
                        return
                    rows[index] = _run_cell(config, dataset, *cells[index], connection)
        except BaseException as exc:  # raised again by the calling thread
            with pool:
                errors.append(exc)
        finally:
            with pool:
                running -= 1
                pool.notify()

    # Wait on the condition, not in Thread.join: on Python 3.11 a Ctrl-C that
    # interrupts join marks the still running thread as stopped. A worker
    # whose start() an interrupt cut short is not counted, so ``running`` can
    # end below 0; that worker takes no cell.
    with pool:
        while True:
            try:
                for n in range(0 if errors else workers):
                    threading.Thread(target=work, name=f"prp-sort-cell-{n}").start()
                    running += 1
                while running > 0:
                    pool.wait()
                break
            except BaseException as exc:  # e.g. Ctrl-C: start no new cell
                errors.insert(0, exc)
    if errors:
        raise errors[0]
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full (query x algorithm) sweep and aggregate it, once:
    the report computes its aggregates from the rows when it is built.

    Each cell gets a fresh executor, cache and oracle. Backend failures mark
    the cell failed and move on; anything structural still raises.

    Every sweep runs on the cell pool, ``_run_pooled``. ``score`` and
    ``noisy`` cells are CPU-bound, so they run on one worker. ``llm`` cells
    spend their time waiting on the backend, so ``LLM_CONCURRENCY`` of them
    run at a time. Each worker owns one HTTP connection for the sweep: it
    sends every cell it runs over it and closes it when it ends, however the
    sweep ends. Rows keep the serial order (algorithm-major, query-minor), so
    reports are the same as a serial run's. An exception other than a backend
    failure, or Ctrl-C, stops new cells from starting, lets the running ones
    finish, and is then raised.
    """
    dataset = _load_dataset(config)
    cells = []
    for algo in config.algorithms:
        label = algo.label()  # one string for the algorithm's rows to share
        cells += [(algo, label, query) for query in dataset.queries]
    workers = min(LLM_CONCURRENCY, len(cells)) if config.oracle.kind == "llm" else 1
    return ExperimentReport(rows=_run_pooled(config, dataset, cells, workers))


def _pstdev(counts: Sequence[int]) -> float:
    """The population SD of integer counts, the correctly rounded square root
    of their exact variance (n·Σx² − (Σx)²)/n², as ``statistics.pstdev``
    gives it from Python 3.11 on; 3.10's can be one ulp off."""
    n = len(counts)
    top, bottom = n * sum(x * x for x in counts) - sum(counts) ** 2, n * n
    # Scale the fraction by 4**-shift to 2·53+3 bits and round its integer
    # square root to odd; the one rounding to a float, in ldexp, is then correct.
    shift = (top.bit_length() - bottom.bit_length() - 109) // 2
    top, bottom = (top, bottom << 2 * shift) if shift >= 0 else (top << -2 * shift, bottom)
    root = math.isqrt(top // bottom)
    return math.ldexp(root | (root * root * bottom != top), shift)


def compute_aggregates(rows: list[QueryRow]) -> list[AggregateRow]:
    """Aggregate per-query rows per algorithm label, in first-seen order.

    A row group whose config names a ``baseline()`` gets the percentage gain
    in mean inference calls over the group with that baseline's label, when
    it is present: positive when the group needs fewer calls.
    """
    groups: dict[str, list[QueryRow]] = {}
    for row in rows:
        groups.setdefault(row.algorithm, []).append(row)
    aggregates: list[AggregateRow] = []
    for group in groups.values():
        ok = [r for r in group if r.status == "ok"]
        stats: dict[str, float | None] = {}
        if ok:
            n = len(ok)
            comparisons = [r.comparisons for r in ok]
            calls = [r.inference_calls for r in ok]
            # Population SD, not sample SD: a row group is a complete query
            # set, and the golden file pins the choice.
            stats = dict(
                mean_comparisons=sum(comparisons) / n,
                sd_comparisons=_pstdev(comparisons),
                mean_inference_calls=sum(calls) / n,
                sd_inference_calls=_pstdev(calls),
                mean_cache_hits=sum(r.cache_hits for r in ok) / n,
                mean_ndcg=math.fsum(r.ndcg for r in ok) / n,
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


# The fields each row kind writes to its report columns, in order.
_QUERY_FIELDS = tuple(f.name for f in fields(QueryRow) if f.name != "config")
_AGGREGATE_FIELDS = tuple(f.name for f in fields(AggregateRow))

# The row kind, the QueryRow columns, then the fields only AggregateRow has.
REPORT_COLUMNS = ["kind", *_QUERY_FIELDS]
REPORT_COLUMNS[REPORT_COLUMNS.index("status") + 1 : 0] = _CONFIG_COLUMNS
REPORT_COLUMNS += [f.name for f in fields(AggregateRow) if f.name not in REPORT_COLUMNS]


def _records(report: ExperimentReport) -> list[dict[str, Any]]:
    """One record per row, keyed by REPORT_COLUMNS in order, None where a row
    has no such column. A query row's config columns, which ``columns()``
    gives once per run of rows that share a config, take precedence over
    its own fields."""
    blank = dict.fromkeys(REPORT_COLUMNS)
    records = []
    config = None
    for row in report.rows:
        if row.config is not config:
            config = row.config
            fixed = config.columns()
            template = {**blank, "kind": "query", **fixed}
            names = [name for name in _QUERY_FIELDS if name not in fixed]
            read = attrgetter(*names)
        record = template.copy()
        record.update(zip(names, read(row)))
        records.append(record)
    read = attrgetter(*_AGGREGATE_FIELDS)
    for agg in report.aggregates:
        record = {**blank, "kind": "aggregate"}
        record.update(zip(_AGGREGATE_FIELDS, read(agg)))
        records.append(record)
    return records


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
    records = _records(report)
    buffer = io.StringIO()
    if out_format == "csv":
        # Loaded here, not at import: only a CSV report needs it.
        import csv

        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows([_format_cell(value) for value in record.values()] for record in records)
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
