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

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Any

from .algorithms import Algorithm, AlgoConfig, PivotStrategy, run_algorithm
from .datasets import (
    Dataset,
    generate_synthetic,
    load_id_text_tsv,
    load_qrels,
    load_run_file,
)
from .errors import AggregateMismatch, BackendFailure, InvalidConfig
from .metrics import aggregate, ndcg_at_k, percent_gain
from .model import CostLedger
from .oracles import LlmEndpoint, LlmOracle, NoisyOracle, Oracle, ScoreOracle
from .seeding import stable_seed


@dataclass
class SyntheticSpec:
    num_queries: int
    n: int


@dataclass
class FileSource:
    """TREC-format inputs. The optional TSV maps are only needed when the
    llm oracle is selected (run files carry no text)."""

    run_path: str
    qrels_path: str
    queries_path: str | None = None
    passages_path: str | None = None
    depth: int = 100


@dataclass
class OracleSpec:
    kind: str = "score"  # score | noisy | llm
    flip_probability: float = 0.0
    seed: int = 0
    endpoint: LlmEndpoint | None = None


@dataclass
class ExperimentConfig:
    dataset: SyntheticSpec | FileSource
    algorithms: list[AlgoConfig]
    oracle: OracleSpec = field(default_factory=OracleSpec)
    k: int = 10
    master_seed: int = 0
    out_path: str | None = None
    out_format: str = "csv"


@dataclass
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


@dataclass
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
    aggregates: list[AggregateRow]


_PIVOTS = {p.value: p for p in PivotStrategy}
_ALGORITHMS = {a.value: a for a in Algorithm}


def algo_config_from_dict(entry: dict[str, Any], default_k: int) -> AlgoConfig:
    """Build one AlgoConfig from a config-file mapping."""
    known = {"algorithm", "k", "batch_size", "use_cache", "pivot", "partial"}
    unknown = set(entry) - known
    if unknown:
        raise InvalidConfig(f"unknown algorithm config keys: {sorted(unknown)}")
    try:
        algorithm = _ALGORITHMS[entry["algorithm"]]
    except KeyError:
        raise InvalidConfig(
            f"algorithm must be one of {sorted(_ALGORITHMS)}, got {entry.get('algorithm')!r}"
        ) from None
    pivot_name = entry.get("pivot", PivotStrategy.MEDIAN_OF_THREE.value)
    if pivot_name not in _PIVOTS:
        raise InvalidConfig(f"pivot must be one of {sorted(_PIVOTS)}, got {pivot_name!r}")
    return AlgoConfig(
        algorithm=algorithm,
        k=int(entry.get("k", default_k)),
        batch_size=int(entry.get("batch_size", 1)),
        use_cache=bool(entry.get("use_cache", False)),
        pivot=_PIVOTS[pivot_name],
        partial=bool(entry.get("partial", True)),
    )


def config_from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON config document."""
    try:
        dataset_raw = raw["dataset"]
        algorithms_raw = raw["algorithms"]
    except KeyError as exc:
        raise InvalidConfig(f"config is missing the {exc.args[0]!r} section") from None
    if "synthetic" in dataset_raw:
        synth = dataset_raw["synthetic"]
        dataset: SyntheticSpec | FileSource = SyntheticSpec(
            num_queries=int(synth["queries"]), n=int(synth["n"])
        )
    elif "run" in dataset_raw:
        dataset = FileSource(
            run_path=dataset_raw["run"],
            qrels_path=dataset_raw["qrels"],
            queries_path=dataset_raw.get("queries"),
            passages_path=dataset_raw.get("passages"),
            depth=int(dataset_raw.get("depth", 100)),
        )
    else:
        raise InvalidConfig("dataset must carry either a 'synthetic' spec or 'run'+'qrels' paths")
    k = int(raw.get("k", 10))
    oracle_raw = raw.get("oracle", {"kind": "score"})
    kind = oracle_raw.get("kind", "score")
    if kind not in ("score", "noisy", "llm"):
        raise InvalidConfig(f"oracle kind must be score, noisy or llm, got {kind!r}")
    endpoint = None
    if kind == "llm":
        try:
            ep = oracle_raw["endpoint"]
            endpoint = LlmEndpoint(
                url=ep["url"],
                model=ep.get("model", "default"),
                api_key_env=ep.get("api_key_env", "PRP_SORT_API_KEY"),
                timeout_s=float(ep.get("timeout_s", 30.0)),
                prompt_template=ep.get("prompt_template"),
                retries=int(ep.get("retries", 1)),
            )
        except KeyError as exc:
            raise InvalidConfig(f"llm oracle config is missing {exc.args[0]!r}") from None
    oracle = OracleSpec(
        kind=kind,
        flip_probability=float(oracle_raw.get("flip_probability", 0.0)),
        seed=int(oracle_raw.get("seed", 0)),
        endpoint=endpoint,
    )
    output_raw = raw.get("output", {})
    config = ExperimentConfig(
        dataset=dataset,
        algorithms=[algo_config_from_dict(a, k) for a in algorithms_raw],
        oracle=oracle,
        k=k,
        master_seed=int(raw.get("seed", 0)),
        out_path=output_raw.get("path"),
        out_format=output_raw.get("format", "csv"),
    )
    _validate_config(config)
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return config_from_dict(json.load(handle))


def _validate_config(config: ExperimentConfig) -> None:
    if config.k < 1:
        raise InvalidConfig(f"k must be >= 1, got {config.k}")
    if not config.algorithms:
        raise InvalidConfig("the algorithm matrix is empty")
    if config.out_format not in ("csv", "jsonl"):
        raise InvalidConfig(f"output format must be csv or jsonl, got {config.out_format!r}")
    if isinstance(config.dataset, SyntheticSpec) and config.oracle.kind == "llm":
        raise InvalidConfig("synthetic datasets carry no text; use the score or noisy oracle")
    if config.oracle.kind == "llm" and config.oracle.endpoint is None:
        raise InvalidConfig("llm oracle requires an endpoint")
    # Aggregates are grouped by label, so two entries sharing one would be
    # silently merged into a single row.
    labels = [algo.label() for algo in config.algorithms]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise InvalidConfig(f"algorithm entries share the labels {duplicates}")


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
            query.candidates = [
                replace(c, text=passages.get(c.doc)) for c in query.candidates
            ]
    dataset = Dataset(queries=queries, grades=grades, ground_truth_scores=None)
    if config.oracle.kind == "llm":
        for query in dataset.queries:
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
    return dataset


def _build_oracle(config: ExperimentConfig, dataset: Dataset, query) -> Oracle:
    kind = config.oracle.kind
    if kind == "llm":
        return LlmOracle(config.oracle.endpoint, query.text, query.candidates)
    if dataset.ground_truth_scores is not None:
        scores = dataset.ground_truth_scores[query.qid]
    else:
        # File mode ground truth: qrels grades, with unjudged candidates at
        # 0.0 and exact ties broken lexicographically by the oracle itself.
        scores = {
            c.doc: float(dataset.grades.grade(query.qid, c.doc)) if dataset.grades else 0.0
            for c in query.candidates
        }
    base = ScoreOracle(scores)
    if kind == "score":
        return base
    return NoisyOracle(
        base,
        config.oracle.flip_probability,
        stable_seed("noise", config.oracle.seed, query.qid),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full (query x algorithm) sweep and aggregate it.

    Each cell gets a fresh executor and cache. Backend failures mark the
    cell failed and move on; anything structural still raises.
    """
    _validate_config(config)
    dataset = _load_dataset(config)
    has_grades = dataset.grades is not None
    rows: list[QueryRow] = []
    for algo in config.algorithms:
        label = algo.label()
        pivot = algo.pivot.value if algo.algorithm is Algorithm.QUICKSORT else None
        partial = algo.partial if algo.algorithm is Algorithm.QUICKSORT else None
        for query in dataset.queries:
            cell = replace(algo, seed=stable_seed("run", config.master_seed, query.qid))
            try:
                oracle = _build_oracle(config, dataset, query)
                ranking, ledger = run_algorithm(
                    [c.doc for c in query.candidates], cell, oracle
                )
            except BackendFailure:
                status, counts, ndcg = "failed", dict.fromkeys(CostLedger().as_dict()), None
            else:
                status, counts = "ok", ledger.as_dict()
                ndcg = (
                    ndcg_at_k(ranking, dataset.grades, query.qid, config.k)
                    if has_grades
                    else None
                )
            rows.append(
                QueryRow(
                    query_id=query.qid,
                    algorithm=label,
                    status=status,
                    k=algo.k,
                    batch_size=algo.batch_size,
                    pivot=pivot,
                    cached=algo.use_cache,
                    partial=partial,
                    ndcg=ndcg,
                    config=algo,
                    **counts,
                )
            )
    return ExperimentReport(rows=rows, aggregates=compute_aggregates(rows))


def compute_aggregates(rows: list[QueryRow]) -> list[AggregateRow]:
    """Aggregate per-query rows per algorithm label, in first-seen order.

    A row group whose config names a ``baseline()`` gets the percentage gain
    in mean inference calls over that baseline's group, when the baseline is
    present with the same k.
    """
    order: list[str] = []
    groups: dict[str, list[QueryRow]] = {}
    for row in rows:
        if row.algorithm not in groups:
            order.append(row.algorithm)
            groups[row.algorithm] = []
        groups[row.algorithm].append(row)
    aggregates: list[AggregateRow] = []
    for label in order:
        group = groups[label]
        ok = [r for r in group if r.status == "ok"]
        sample = group[0]
        stats: dict[str, float | None] = {}
        if ok:
            comp = aggregate([r.comparisons for r in ok])
            calls = aggregate([r.inference_calls for r in ok])
            ndcg_values = [r.ndcg for r in ok if r.ndcg is not None]
            stats = dict(
                mean_comparisons=comp.mean,
                sd_comparisons=comp.sd,
                mean_inference_calls=calls.mean,
                sd_inference_calls=calls.sd,
                mean_cache_hits=aggregate([r.cache_hits for r in ok]).mean,
                mean_ndcg=aggregate(ndcg_values).mean if ndcg_values else None,
            )
        aggregates.append(
            AggregateRow(
                algorithm=label,
                k=sample.k,
                batch_size=sample.batch_size,
                pivot=sample.pivot,
                cached=sample.cached,
                partial=sample.partial,
                n_queries=len(ok),
                failures=len(group) - len(ok),
                **stats,
            )
        )
    by_label = {a.algorithm: a for a in aggregates}
    for agg, label in zip(aggregates, order):
        wanted = groups[label][0].config.baseline()
        baseline = by_label.get(wanted.label()) if wanted is not None else None
        if (
            baseline is not None
            and baseline.k == wanted.k
            and baseline.mean_inference_calls
            and agg.mean_inference_calls is not None
        ):
            agg.baseline = baseline.algorithm
            agg.gain_pct = percent_gain(
                baseline.mean_inference_calls, agg.mean_inference_calls
            )
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

_FLOAT_FIELDS = {
    "ndcg",
    "mean_comparisons",
    "sd_comparisons",
    "mean_inference_calls",
    "sd_inference_calls",
    "mean_cache_hits",
    "mean_ndcg",
    "gain_pct",
}


def _row_record(row: QueryRow | AggregateRow) -> dict[str, Any]:
    kind = "query" if isinstance(row, QueryRow) else "aggregate"
    return {
        name: kind if name == "kind" else getattr(row, name, None)
        for name in REPORT_COLUMNS
    }


def _check_consistency(report: ExperimentReport) -> None:
    recomputed = compute_aggregates(report.rows)
    if len(recomputed) != len(report.aggregates):
        raise AggregateMismatch(
            f"report carries {len(report.aggregates)} aggregate rows, "
            f"rows imply {len(recomputed)}"
        )
    for have, want in zip(report.aggregates, recomputed):
        for f in fields(AggregateRow):
            a, b = getattr(have, f.name), getattr(want, f.name)
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9):
                    raise AggregateMismatch(
                        f"{have.algorithm}: {f.name} {a!r} != recomputed {b!r}"
                    )
            elif a != b:
                raise AggregateMismatch(
                    f"{have.algorithm}: {f.name} {a!r} != recomputed {b!r}"
                )


def _format_cell(name: str, value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if name in _FLOAT_FIELDS:
        return f"{value:.4f}"
    return str(value)


def emit_report(report: ExperimentReport, out_format: str, path: str | None) -> None:
    """Write the report as CSV or JSON lines.

    CSV uses a fixed column order (REPORT_COLUMNS), '.' decimals, and 4
    decimal places for reals; JSON lines carry one object per row with the
    same stable keys, full float precision, and nulls for empty cells.
    Aggregates are cross-checked against the per-query rows before anything
    is written. A path of None or '-' writes to stdout.
    """
    if out_format not in ("csv", "jsonl"):
        raise InvalidConfig(f"output format must be csv or jsonl, got {out_format!r}")
    _check_consistency(report)
    records = [_row_record(r) for r in report.rows]
    records += [_row_record(a) for a in report.aggregates]
    buffer = io.StringIO()
    if out_format == "csv":
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for record in records:
            writer.writerow([_format_cell(n, record[n]) for n in REPORT_COLUMNS])
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
