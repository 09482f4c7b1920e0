import csv
import json
import math
from dataclasses import replace

import pytest

from prp_sort import (
    AlgoConfig,
    Algorithm,
    ExperimentConfig,
    InvalidConfig,
    LlmEndpoint,
    OracleSpec,
    PivotStrategy,
    SyntheticSpec,
    config_from_dict,
    emit_report,
    load_config,
    run_experiment,
)
from prp_sort.experiment import (
    REPORT_COLUMNS,
    ExperimentReport,
    FileSource,
    QueryRow,
    compute_aggregates,
)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset=SyntheticSpec(num_queries=3, n=12),
        algorithms=[
            AlgoConfig(Algorithm.HEAPSORT, k=4),
            AlgoConfig(Algorithm.QUICKSORT, k=4, batch_size=2),
            AlgoConfig(Algorithm.BUBBLESORT, k=4),
            AlgoConfig(Algorithm.BUBBLESORT, k=4, use_cache=True),
        ],
        k=4,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def minimal_raw() -> dict:
    """A valid config document with one entry per algorithm."""
    return {
        "dataset": {"synthetic": {"queries": 2, "n": 6}},
        "oracle": {"kind": "noisy", "flip_probability": 0.1},
        "algorithms": [
            {"algorithm": "heapsort"},
            {"algorithm": "quicksort", "batch_size": 2},
            {"algorithm": "bubblesort", "use_cache": True},
        ],
    }


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


RUN_TEXT = (
    "q1 Q0 dA 1 4.0 bm25\n"
    "q1 Q0 dB 2 3.0 bm25\n"
    "q1 Q0 dC 3 2.0 bm25\n"
    "q1 Q0 dD 4 1.0 bm25\n"
    "q2 Q0 dA 1 4.0 bm25\n"
    "q2 Q0 dB 2 3.0 bm25\n"
    "q2 Q0 dC 3 2.0 bm25\n"
)

QRELS_TEXT = "q1 0 dB 3\nq1 0 dC 1\nq2 0 dA 2\nq2 0 dC 2\n"


class TestRunExperiment:
    def test_per_query_rows_and_b1_law(self):
        report = run_experiment(small_config())
        heap_rows = [r for r in report.rows if r.algorithm == "heapsort"]
        assert len(heap_rows) == 3
        for row in heap_rows:
            assert row.status == "ok"
            assert row.inference_calls == row.comparisons
            assert row.cache_hits == 0
            assert 0.0 <= row.ndcg <= 1.0

    def test_score_oracle_yields_perfect_ndcg(self):
        # The synthetic grades are a function of the ground-truth scores, so
        # a correct top-k ranked by the score oracle is ideal.
        report = run_experiment(small_config())
        for row in report.rows:
            assert row.ndcg == pytest.approx(1.0)

    def test_aggregates_carry_named_baselines(self):
        report = run_experiment(small_config())
        by_label = {a.algorithm: a for a in report.aggregates}
        quick = by_label["quicksort (median-of-three, b=2)"]
        assert quick.baseline == "heapsort"
        assert quick.gain_pct is not None
        cached = by_label["bubblesort (cached)"]
        assert cached.baseline == "bubblesort (classic)"
        classic = by_label["bubblesort (classic)"]
        assert classic.baseline is None
        expected = 100.0 * (
            (classic.mean_inference_calls - cached.mean_inference_calls)
            / classic.mean_inference_calls
        )
        assert cached.gain_pct == pytest.approx(expected)

    def test_baseline_ignores_fields_the_algorithm_does_not_read(self):
        # Heapsort never reads pivot or partial; carrying them must not stop
        # the entry from serving as the quicksort baseline.
        heap = AlgoConfig(Algorithm.HEAPSORT, k=4, pivot=PivotStrategy.RANDOM, partial=False)
        quick = AlgoConfig(Algorithm.QUICKSORT, k=4, batch_size=2)
        report = run_experiment(small_config(algorithms=[heap, quick]))
        by_label = {a.algorithm: a for a in report.aggregates}
        assert by_label[quick.label()].baseline == "heapsort"
        assert by_label[quick.label()].gain_pct is not None

    def test_entry_at_another_k_rejected(self):
        # A sweep has one k: an entry at another would be scored by NDCG at
        # the sweep's k and would hide its row's baseline.
        algorithms = [
            AlgoConfig(Algorithm.HEAPSORT, k=3),
            AlgoConfig(Algorithm.QUICKSORT, k=4, batch_size=2),
        ]
        message = r"algorithm entries have k \[3\]; the sweep's k is 4"
        with pytest.raises(InvalidConfig, match=message):
            small_config(algorithms=algorithms)

    def test_entry_with_its_own_seed_rejected(self):
        # A sweep has one seed: each cell's seed derives from it and the
        # query id, so an entry's own seed would be silently replaced.
        algorithms = [AlgoConfig(Algorithm.QUICKSORT, k=4, pivot=PivotStrategy.RANDOM, seed=7)]
        with pytest.raises(InvalidConfig, match=r"algorithm entries have seed \[7\]"):
            small_config(algorithms=algorithms)

    def test_aggregates_match_rows(self):
        report = run_experiment(small_config())
        assert compute_aggregates(report.rows) == report.aggregates

    def test_aggregate_statistics_cover_the_ok_rows_only(self):
        algo = AlgoConfig(Algorithm.HEAPSORT, k=3)
        counts = ("comparisons", "inference_calls", "cache_hits", "batch_groups")

        def row(qid, status, count, ndcg):
            cells = dict.fromkeys(counts, count)
            return QueryRow(qid, status=status, ndcg=ndcg, config=algo, **algo.columns(), **cells)

        rows = [row("q1", "ok", 1, 0.25), row("q2", "failed", None, None), row("q3", "ok", 3, 0.75)]
        [agg] = compute_aggregates(rows)
        assert (agg.n_queries, agg.failures) == (2, 1)
        assert (agg.mean_comparisons, agg.sd_comparisons) == (2.0, 1.0)  # population SD
        assert (agg.mean_inference_calls, agg.sd_inference_calls) == (2.0, 1.0)
        assert (agg.mean_cache_hits, agg.mean_ndcg) == (2.0, 0.5)

    def test_cached_bubblesort_costs_fewer_calls_same_comparisons(self):
        report = run_experiment(small_config(master_seed=123))
        by_label = {a.algorithm: a for a in report.aggregates}
        classic = by_label["bubblesort (classic)"]
        cached = by_label["bubblesort (cached)"]
        assert cached.mean_comparisons == classic.mean_comparisons
        assert cached.mean_inference_calls <= classic.mean_inference_calls
        assert (
            cached.mean_inference_calls + cached.mean_cache_hits
            == pytest.approx(classic.mean_comparisons)
        )

    def test_file_mode_uses_qrels_grades_as_ground_truth(self, tmp_path):
        run_path = write(tmp_path, "run.txt", RUN_TEXT)
        qrels_path = write(tmp_path, "qrels.txt", QRELS_TEXT)
        config = small_config(
            dataset=FileSource(run_path=run_path, qrels_path=qrels_path),
            algorithms=[AlgoConfig(Algorithm.HEAPSORT, k=2)],
            k=2,
        )
        report = run_experiment(config)
        q1 = next(r for r in report.rows if r.query_id == "q1")
        assert q1.ndcg == pytest.approx(1.0)
        # q2 ties dA and dC at grade 2; lexicographic tie-break makes the
        # ideal prefix reachable, so NDCG is 1 there as well.
        q2 = next(r for r in report.rows if r.query_id == "q2")
        assert q2.ndcg == pytest.approx(1.0)

    def test_permuting_query_order_changes_no_per_query_value(self, tmp_path):
        forward = write(tmp_path, "fwd.txt", RUN_TEXT)
        blocks = RUN_TEXT.strip().split("\n")
        reordered = "\n".join(blocks[4:] + blocks[:4]) + "\n"
        backward = write(tmp_path, "bwd.txt", reordered)
        qrels_path = write(tmp_path, "qrels.txt", QRELS_TEXT)

        def rows_for(run_path):
            config = small_config(
                dataset=FileSource(run_path=run_path, qrels_path=qrels_path),
                algorithms=[AlgoConfig(Algorithm.QUICKSORT, k=2, pivot=PivotStrategy.RANDOM)],
                k=2,
            )
            report = run_experiment(config)
            return {r.query_id: r for r in report.rows}

        first = rows_for(forward)
        second = rows_for(backward)
        assert set(first) == set(second)
        for qid in first:
            assert first[qid] == second[qid]

    def test_llm_backend_failures_become_failed_rows(self, tmp_path):
        run_path = write(tmp_path, "run.txt", RUN_TEXT)
        qrels_path = write(tmp_path, "qrels.txt", QRELS_TEXT)
        queries_path = write(tmp_path, "queries.tsv", "q1\tfirst query\nq2\tsecond query\n")
        passages_path = write(
            tmp_path,
            "passages.tsv",
            "dA\ttext a\ndB\ttext b\ndC\ttext c\ndD\ttext d\n",
        )
        config = small_config(
            dataset=FileSource(
                run_path=run_path,
                qrels_path=qrels_path,
                queries_path=queries_path,
                passages_path=passages_path,
            ),
            oracle=OracleSpec(
                kind="llm",
                endpoint=LlmEndpoint(url="http://127.0.0.1:9/dead", retries=0, timeout_s=0.3),
            ),
            algorithms=[AlgoConfig(Algorithm.HEAPSORT, k=2)],
            k=2,
        )
        report = run_experiment(config)
        assert all(r.status == "failed" for r in report.rows)
        agg = report.aggregates[0]
        assert agg.n_queries == 0
        assert agg.failures == 2
        assert agg.mean_inference_calls is None

    def test_llm_without_texts_is_rejected(self, tmp_path):
        run_path = write(tmp_path, "run.txt", RUN_TEXT)
        qrels_path = write(tmp_path, "qrels.txt", QRELS_TEXT)
        config = small_config(
            dataset=FileSource(run_path=run_path, qrels_path=qrels_path),
            oracle=OracleSpec(kind="llm", endpoint=LlmEndpoint(url="http://x/")),
        )
        with pytest.raises(InvalidConfig, match="query text"):
            run_experiment(config)
        queries_path = write(tmp_path, "queries.tsv", "q1\tfirst query\nq2\tsecond query\n")
        passages_path = write(tmp_path, "passages.tsv", "dA\ttext a\ndB\ttext b\n")
        config = replace(
            config,
            dataset=replace(config.dataset, queries_path=queries_path, passages_path=passages_path),
        )
        with pytest.raises(InvalidConfig, match="passage text; none found for 'dC'"):
            run_experiment(config)

    def test_llm_on_synthetic_is_rejected(self):
        with pytest.raises(InvalidConfig, match="synthetic"):
            small_config(oracle=OracleSpec(kind="llm", endpoint=LlmEndpoint(url="http://x/")))

    def test_llm_without_endpoint_is_rejected(self):
        files = FileSource(run_path="run.txt", qrels_path="qrels.txt")
        with pytest.raises(InvalidConfig, match="requires an endpoint"):
            small_config(dataset=files, oracle=OracleSpec(kind="llm"))

    def test_noisy_oracle_changes_outcomes_but_stays_deterministic(self):
        noisy = small_config(oracle=OracleSpec(kind="noisy", flip_probability=0.3))
        first = run_experiment(noisy)
        second = run_experiment(noisy)
        assert first == second
        clean = run_experiment(small_config())
        assert first != clean


class TestConfigParsing:
    def test_round_trip_from_dict(self):
        raw = {
            "dataset": {"synthetic": {"queries": 2, "n": 6}},
            "oracle": {"kind": "noisy", "flip_probability": 0.1},
            "k": 3,
            "seed": 11,
            "algorithms": [
                {"algorithm": "heapsort"},
                {"algorithm": "quicksort", "pivot": "random", "batch_size": 8},
                {"algorithm": "bubblesort", "use_cache": True},
            ],
            "output": {"path": "out.csv", "format": "csv"},
        }
        config = config_from_dict(raw)
        assert isinstance(config.dataset, SyntheticSpec)
        assert config.k == 3 and config.master_seed == 11
        assert [a.label() for a in config.algorithms] == [
            "heapsort",
            "quicksort (random, b=8)",
            "bubblesort (cached)",
        ]
        assert {a.k for a in config.algorithms} == {3}  # every entry takes the sweep's k
        assert config.out_path == "out.csv"

    def test_load_config_from_file(self, tmp_path):
        raw = {
            "dataset": {"synthetic": {"queries": 1, "n": 4}},
            "algorithms": [{"algorithm": "heapsort"}],
        }
        path = write(tmp_path, "config.json", json.dumps(raw))
        config = load_config(path)
        assert config.k == 10
        assert config.out_format == "csv"

    @pytest.mark.parametrize(
        "text, message", [("{", "not valid JSON"), ("[]", "must hold a JSON object")]
    )
    def test_load_config_rejects_a_file_that_is_not_an_object(self, tmp_path, text, message):
        path = write(tmp_path, "config.json", text)
        with pytest.raises(InvalidConfig, match=message):
            load_config(path)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidConfig, match="algorithm"):
            config_from_dict(
                {
                    "dataset": {"synthetic": {"queries": 1, "n": 4}},
                    "algorithms": [{"algorithm": "mergesort"}],
                }
            )

    def test_unknown_pivot_rejected(self):
        with pytest.raises(InvalidConfig, match="pivot"):
            config_from_dict(
                {
                    "dataset": {"synthetic": {"queries": 1, "n": 4}},
                    "algorithms": [{"algorithm": "quicksort", "pivot": "best"}],
                }
            )

    def test_unknown_algo_keys_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown"):
            config_from_dict(
                {
                    "dataset": {"synthetic": {"queries": 1, "n": 4}},
                    "algorithms": [{"algorithm": "heapsort", "cache": True}],
                }
            )

    def test_missing_dataset_rejected(self):
        with pytest.raises(InvalidConfig, match="dataset"):
            config_from_dict({"algorithms": [{"algorithm": "heapsort"}]})

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidConfig, match="matrix"):
            config_from_dict(
                {"dataset": {"synthetic": {"queries": 1, "n": 4}}, "algorithms": []}
            )

    def test_bad_oracle_kind_rejected(self):
        with pytest.raises(InvalidConfig, match="oracle"):
            config_from_dict(
                {
                    "dataset": {"synthetic": {"queries": 1, "n": 4}},
                    "algorithms": [{"algorithm": "heapsort"}],
                    "oracle": {"kind": "coin-flip"},
                }
            )

    def test_entries_sharing_a_label_rejected(self):
        # Labels omit the fields heapsort does not read, so these two entries
        # would merge into one aggregate.
        with pytest.raises(InvalidConfig, match="heapsort"):
            config_from_dict(
                {
                    "dataset": {"synthetic": {"queries": 3, "n": 12}},
                    "algorithms": [
                        {"algorithm": "heapsort"},
                        {"algorithm": "heapsort", "pivot": "random"},
                    ],
                }
            )
        heap = AlgoConfig(Algorithm.HEAPSORT, k=4)
        twins = [heap, replace(heap, partial=False)]
        with pytest.raises(InvalidConfig, match="heapsort"):
            small_config(algorithms=twins)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("dataset", "synthetic"), {"queries": 2}, "'n'"),
            (("k",), "ten", "'k' must be an integer"),
            (("k",), True, "'k' must be an integer"),
            (("algorithms", 1, "batch_size"), 2.5, "'batch_size'"),
            (("algorithms", 2, "use_cache"), "false", "'use_cache'"),
            (("algorithms", 1, "partial"), "no", "'partial'"),
            (("algorithms",), "heapsort", "'algorithms'"),
            (("algorithms", 0), 5, "algorithm entry must be an object, got int"),
            (("dataset",), {"run": "run.txt"}, "'qrels'"),
            (("oracle", "flip_probability"), "x", "'flip_probability'"),
            (("dataset",), [], "'dataset'"),
            (("oracle",), "score", "'oracle'"),
            (("dataset",), {"qrels": "qrels.txt"}, "either"),
            (("algorithms", 0, "algorithm"), ["heapsort"], "'algorithm'"),
            (("oracle", "endpoint"), {"model": "m"}, "'url'"),
            (("dataset", "depth"), 3, r"unknown synthetic dataset keys: \['depth'\]"),
            (("dataset", "passages"), "x.tsv", r"unknown synthetic dataset keys: \['passages'\]"),
            (("algorithms", 0, "k"), 3, r"unknown algorithm entry keys: \['k'\]"),
            (("oracle", "seed"), 3, r"unknown oracle keys: \['seed'\]"),
            (("dataset", "synthetic", "queries"), 0, "queries and n must be >= 1, got 0, 6"),
            (("dataset", "synthetic", "n"), 0, "queries and n must be >= 1, got 2, 0"),
            (("dataset",), {"run": "r.txt", "qrels": "q.txt", "depth": 0}, "depth must be >= 1"),
            (("oracle", "endpoint"), {"url": "ftp://x/"}, "not an http"),
        ],
    )
    def test_malformed_value_rejected(self, path, value, named):
        raw = minimal_raw()
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(InvalidConfig, match=named):
            config_from_dict(raw)

    def test_ints_accepted_for_floats(self):
        raw = minimal_raw()
        raw["oracle"]["flip_probability"] = 0
        assert config_from_dict(raw).oracle.flip_probability == 0
        raw["dataset"] = {"run": "run.txt", "qrels": "qrels.txt"}
        raw["oracle"] = {"kind": "llm", "endpoint": {"url": "http://x/", "timeout_s": 5}}
        assert config_from_dict(raw).oracle.endpoint.timeout_s == 5

    def test_absent_and_null_keys_take_the_dataclass_defaults(self):
        dataset = {"synthetic": {"queries": 1, "n": 4}}
        config = config_from_dict({"dataset": dataset, "algorithms": [{"algorithm": "heapsort"}]})
        assert config.algorithms == (AlgoConfig(Algorithm.HEAPSORT),)
        assert config.oracle == OracleSpec()
        assert config == ExperimentConfig(SyntheticSpec(1, 4), [AlgoConfig(Algorithm.HEAPSORT)])
        raw = {
            "dataset": {"run": "run.txt", "qrels": "qrels.txt", "depth": None},
            "oracle": {"kind": "llm", "endpoint": {"url": "http://x/", "model": None}},
            "algorithms": [{"algorithm": "heapsort", "pivot": None}],
            "output": {"path": None},
        }
        config = config_from_dict(raw)
        assert config.dataset == FileSource(run_path="run.txt", qrels_path="qrels.txt")
        assert config.oracle.endpoint == LlmEndpoint(url="http://x/")
        assert config.algorithms == (AlgoConfig(Algorithm.HEAPSORT),)
        assert config.out_path is None

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"flip_probability": 1.5}, r"flip_probability must be in \[0, 1\]"),
            ({"flip_probability": -0.1}, r"flip_probability must be in \[0, 1\]"),
            ({"flip_probability": math.nan}, r"flip_probability must be in \[0, 1\]"),
            ({"kind": "coin-flip"}, "oracle kind"),
            ({"kind": "llm"}, "requires an endpoint"),
        ],
        ids=["above-one", "negative", "nan", "unknown-kind", "llm-without-endpoint"],
    )
    def test_oracle_spec_checks_itself(self, change, message):
        spec = OracleSpec(kind="noisy", flip_probability=0.5)
        with pytest.raises(InvalidConfig, match=message):
            replace(spec, **change)

    def test_replace_cannot_build_an_invalid_config(self):
        with pytest.raises(InvalidConfig, match="format"):
            replace(small_config(), out_format="xml")
        with pytest.raises(InvalidConfig, match="k must be"):
            replace(small_config(), k=0)
        with pytest.raises(InvalidConfig, match="the sweep's k is 5"):
            replace(small_config(), k=5)
        with pytest.raises(InvalidConfig, match="matrix"):
            replace(small_config(), algorithms=[])

    def test_matrix_cannot_be_changed_in_place(self):
        # Appending a second heapsort would merge both into one aggregate row.
        with pytest.raises(AttributeError):
            small_config().algorithms.append(AlgoConfig(Algorithm.HEAPSORT, k=5))


class TestEmission:
    def test_empty_report_is_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(ExperimentReport(rows=[]), "csv", str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [",".join(REPORT_COLUMNS)]

    def test_single_row_report_is_two_lines(self, tmp_path):
        row = QueryRow(
            query_id="q1",
            algorithm="heapsort",
            status="ok",
            k=3,
            batch_size=1,
            pivot=None,
            cached=False,
            partial=None,
            comparisons=7,
            inference_calls=7,
            cache_hits=0,
            batch_groups=7,
            ndcg=0.51234,
            config=AlgoConfig(Algorithm.HEAPSORT, k=3),
        )
        report = ExperimentReport(rows=[row])
        path = tmp_path / "one.csv"
        emit_report(report, "csv", str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3  # header + query row + aggregate row
        assert lines[1].startswith("query,heapsort,q1,ok")
        assert "0.5123" in lines[1]

    def test_csv_round_trip_preserves_values_at_declared_precision(self, tmp_path):
        report = run_experiment(small_config())
        path = tmp_path / "report.csv"
        emit_report(report, "csv", str(path))
        with open(path, newline="", encoding="utf-8") as handle:
            parsed = list(csv.DictReader(handle))
        query_rows = [r for r in parsed if r["kind"] == "query"]
        assert len(query_rows) == len(report.rows)
        for parsed_row, row in zip(query_rows, report.rows):
            assert parsed_row["query_id"] == row.query_id
            assert int(parsed_row["comparisons"]) == row.comparisons
            assert parsed_row["ndcg"] == f"{row.ndcg:.4f}"
        agg_rows = [r for r in parsed if r["kind"] == "aggregate"]
        for parsed_row, agg in zip(agg_rows, report.aggregates):
            assert math.isclose(
                float(parsed_row["mean_inference_calls"]),
                agg.mean_inference_calls,
                abs_tol=5e-5,
            )

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        report = run_experiment(small_config())
        path = tmp_path / "report.jsonl"
        emit_report(report, "jsonl", str(path))
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == len(report.rows) + len(report.aggregates)
        for record, row in zip(records, report.rows):
            assert record["kind"] == "query"
            assert record["comparisons"] == row.comparisons
            assert record["ndcg"] == row.ndcg
        assert all(list(record) == REPORT_COLUMNS for record in records)
        tail = records[len(report.rows) :]
        for record, agg in zip(tail, report.aggregates):
            assert record["kind"] == "aggregate"
            assert record["mean_inference_calls"] == agg.mean_inference_calls

    def test_emission_is_deterministic(self, tmp_path):
        config = small_config()
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            emit_report(run_experiment(config), "csv", str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_unknown_format_rejected(self, tmp_path):
        report = ExperimentReport(rows=[])
        with pytest.raises(InvalidConfig):
            emit_report(report, "xml", str(tmp_path / "x"))
