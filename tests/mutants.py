"""Source mutants that the suite must catch, one row per mutant.

Each row names a file under ``src/prp_sort``, an ``old`` snippet that occurs
in it exactly once, the ``new`` snippet that replaces it, and the test ids
that must each fail once the replacement is made (an id without a
``[parameter]`` part fails when any of its parametrizations fails).
``tests/test_mutants.py`` checks that every ``old`` snippet is still there,
once, and that pytest collects every test a row names;
``scripts/mutants.py`` applies each row in a temporary copy of the
repository and runs that row's tests. A change that rewrites a guarded line
re-aims its row rather than dropping it.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ACCEPTANCE = "tests/test_acceptance.py::"
ALGORITHMS = "tests/test_algorithms.py::"
ORACLES = "tests/test_oracles.py::"
GOLDEN = ACCEPTANCE + "test_criterion_5_golden_values_zero_drift"
NOISY_GOLDEN = ACCEPTANCE + "test_criterion_5_noisy_golden_zero_drift"
OUTSIDE = "tests/test_reference_sorters.py::"
REFERENCE = OUTSIDE + "test_sorters_ask_the_reference_questions"
REQUESTS = OUTSIDE + "test_outside_judges_get_requests_and_the_package_judges_plain_tuples"
EQUIVALENCE = ORACLES + "TestExecutorEquivalence"
SEQUENCE = ALGORITHMS + "TestQuestionSequence"
LLM = "tests/test_llm_client.py::"
BODY = LLM + "TestRequestBody::test_body_is_the_json_of_the_rendered_prompts"
POOL = LLM + "TestCellPool::"
EXPERIMENT = "tests/test_experiment.py::"
FILES = EXPERIMENT + "TestLoadDataset::"
REPORTS = "tests/test_reports.py::"
CLI = "tests/test_cli.py::TestRun::"

MUTANTS = [
    # Sorters (algorithms.py).
    Mutant(
        "partial pruning keeps the segment that starts at k",
        "algorithms.py",
        "        if partial and lo >= k:\n",
        "        if partial and lo > k:\n",
        (GOLDEN, NOISY_GOLDEN, REFERENCE),
    ),
    Mutant(
        "median-of-three returns hi and lo swapped",
        "algorithms.py",
        "    return lo if ab is not ac else hi\n",
        "    return hi if ab is not ac else lo\n",
        (GOLDEN, ALGORITHMS + "TestSelectPivot", SEQUENCE),
    ),
    Mutant(
        "median-of-three's `ab is bc` branch returns lo",
        "algorithms.py",
        "        return middle  # b sits between a and c, or the triple is a cycle\n",
        "        return lo  # b sits between a and c, or the triple is a cycle\n",
        (
            GOLDEN,
            ALGORITHMS + "TestSelectPivot::test_median_of_three_exhaustive_triples",
            REFERENCE,
        ),
    ),
    Mutant(
        "random pivot keyed on the seed alone",
        "algorithms.py",
        'Random(stable_seed("pivot", seed, lo, hi))',
        'Random(stable_seed("pivot", seed))',
        (GOLDEN, SEQUENCE, REFERENCE),
    ),
    Mutant(
        "bubblesort without its early exit",
        "algorithms.py",
        "        if not swapped:\n            break\n",
        "",
        (NOISY_GOLDEN, ALGORITHMS + "TestBubblesort", REFERENCE),
    ),
    Mutant(
        "heapsort's sift asks (heap[j], heap[i])",
        "algorithms.py",
        "            if right < size and ask(oracle, (heap[left], heap[right])) is not _FIRST:\n"
        "                winner = right\n"
        "            else:\n"
        "                winner = left\n"
        "            if ask(oracle, (heap[winner], heap[i])) is not _FIRST:\n",
        "            if right < size and ask(oracle, (heap[right], heap[left])) is not _SECOND:\n"
        "                winner = right\n"
        "            else:\n"
        "                winner = left\n"
        "            if ask(oracle, (heap[i], heap[winner])) is not _SECOND:\n",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "bubblesort asks (carried, doc)",
        "algorithms.py",
        "if ask(oracle, (doc, carried)) is _SECOND:",
        "if ask(oracle, (carried, doc)) is _FIRST:",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "bubblesort drops the carried document at a pass's end",
        "algorithms.py",
        "        order[p] = carried\n",
        "",
        (GOLDEN, ALGORITHMS + "TestBubblesort::test_reverse_ranked_four_items", REFERENCE),
    ),
    Mutant(
        "the partition asks (pivot, doc)",
        "algorithms.py",
        "    prefs = executor.submit_group(oracle, [(doc, pivot_doc) for doc in others])\n",
        "    prefs = executor.submit_group(oracle, [(pivot_doc, doc) for doc in others])\n"
        "    prefs = [pref.flipped() for pref in prefs]\n",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "quicksort pops the right segment first",
        "algorithms.py",
        "        segments.append((mid + 1, hi))\n        segments.append((lo, mid - 1))\n",
        "        segments.append((lo, mid - 1))\n        segments.append((mid + 1, hi))\n",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "heapsort keeps its sift after the k-th extraction",
        "algorithms.py",
        "    return ranking, executor.ledger\n",
        "    if len(heap) > 1:\n"
        "        heap[0] = heap.pop()\n"
        "        sift_down(0, len(heap))\n"
        "    return ranking, executor.ledger\n",
        (GOLDEN, SEQUENCE, REFERENCE),
    ),
    # Judges and the executor (oracles.py).
    Mutant(
        "an outside oracle handed plain pairs",
        "oracles.py",
        "        if cls.__module__ != __name__:\n",
        "        if False:\n",
        (REQUESTS,),
    ),
    Mutant(
        "the package's own oracles handed ComparisonRequests",
        "oracles.py",
        "        if cls.__module__ != __name__:\n",
        "        if True:\n",
        (REQUESTS, OUTSIDE + "test_only_the_methods_an_outside_class_body_defines_are_wrapped"),
    ),
    Mutant(
        "an outside oracle's answer passed on unchecked",
        "oracles.py",
        "            return _checked(self, method(self, ComparisonRequest(*req)))\n",
        "            return method(self, ComparisonRequest(*req))\n",
        (
            OUTSIDE + "test_an_outside_judges_answer_that_is_no_preference_is_rejected",
            OUTSIDE + "test_an_outside_judges_answer_asked_directly_is_checked_before_it_is_counted",
        ),
    ),
    Mutant(
        "an outside oracle's batch of the wrong size passed on",
        "oracles.py",
        "        if not isinstance(answers, (list, tuple)) or len(answers) != len(reqs):\n",
        "        if not isinstance(answers, (list, tuple)):\n",
        (OUTSIDE + "test_an_outside_judges_batch_of_the_wrong_answers_is_rejected",),
    ),
    Mutant(
        "a noisy judge's outside base handed plain pairs",
        "oracles.py",
        "method(self, ComparisonRequest(*req))",
        "method(self, req)",
        (REQUESTS,),
    ),
    Mutant(
        "an outside compare_batch handed plain pairs",
        "oracles.py",
        "method(self, [ComparisonRequest(*req) for req in reqs])",
        "method(self, list(reqs))",
        (OUTSIDE + "test_an_outside_judge_asked_through_the_executor_directly_gets_requests",),
    ),
    Mutant(
        "ScoreOracle skips the self-pair check on a tie",
        "oracles.py",
        "        if a == b:  # a self-pair ties, NaN scores included\n"
        '            raise InvalidConfig(f"cannot compare document {a!r} with itself")\n',
        "",
        (
            ORACLES + "TestScoreOracle::test_identical_pair",
            ORACLES + "TestNoisyOracle::test_identical_pair_is_rejected",
        ),
    ),
    Mutant(
        "the flip memo stores the answer instead of the flip",
        "oracles.py",
        "            flip = self._flips[pair] = draw < self.flip_probability\n"
        "        return answer.flipped() if flip else answer\n",
        "            flip = draw < self.flip_probability\n"
        "            self._flips[pair] = answer.flipped() if flip else answer\n"
        "            return self._flips[pair]\n"
        "        return flip\n",
        (
            ORACLES + "TestNoisyOracle::test_same_pair_always_answers_the_same",
            ORACLES + "TestNoisyOracle::test_symmetric_up_to_flip",
        ),
    ),
    Mutant(
        "noisy flip keyed on the ordered pair",
        "oracles.py",
        'Random(stable_seed("flip", self.seed, lo, hi))',
        'Random(stable_seed("flip", self.seed, a, b))',
        (NOISY_GOLDEN, ORACLES + "TestNoisyOracle"),
    ),
    Mutant(
        "ask skips batch_groups += 1",
        "oracles.py",
        "        ledger.batch_groups += 1\n        answer = oracle.compare(req)\n",
        "        answer = oracle.compare(req)\n",
        (EQUIVALENCE,),
    ),
    Mutant(
        "ask counts the call before compare returns",
        "oracles.py",
        "        answer = oracle.compare(req)\n        ledger.inference_calls += 1\n",
        "        ledger.inference_calls += 1\n        answer = oracle.compare(req)\n",
        (EQUIVALENCE,),
    ),
    Mutant(
        "ask's memo mirror not flipped",
        "oracles.py",
        "            memo[(req[1], req[0])] = _SECOND if answer is _FIRST else _FIRST\n",
        "            memo[(req[1], req[0])] = answer\n",
        (GOLDEN, ACCEPTANCE + "test_criterion_4_bubblesort_cache_invariance", REFERENCE),
    ),
    Mutant(
        "ask's hit path skips cache_hits += 1",
        "oracles.py",
        "                ledger.cache_hits += 1\n                return answer\n",
        "                return answer\n",
        (GOLDEN, ACCEPTANCE + "test_criterion_4_bubblesort_cache_invariance"),
    ),
    Mutant(
        "_resolve skips batch_groups += 1",
        "oracles.py",
        "        ledger.batch_groups += 1\n        answers: list[Preference] = []\n",
        "        answers: list[Preference] = []\n",
        (EQUIVALENCE, ORACLES + "TestBatchExecutor::test_ceiling_arithmetic"),
    ),
    Mutant(
        "_resolve counts the call before the chunk returns",
        "oracles.py",
        "            prefs = oracle.compare_batch(chunk) if len(chunk) > 1"
        " else [oracle.compare(chunk[0])]\n"
        "            ledger.inference_calls += 1\n",
        "            ledger.inference_calls += 1\n"
        "            prefs = oracle.compare_batch(chunk) if len(chunk) > 1"
        " else [oracle.compare(chunk[0])]\n",
        (EQUIVALENCE, ORACLES + "TestExecutorCache::test_cache_unchanged_when_base_fails"),
    ),
    Mutant(
        "_resolve's memo mirror not flipped",
        "oracles.py",
        "                    memo[(req[1], req[0])] = _SECOND if pref is _FIRST else _FIRST\n",
        "                    memo[(req[1], req[0])] = pref\n",
        (
            EQUIVALENCE,
            ORACLES + "TestExecutorCache::test_reversed_pair_hits_with_reoriented_winner",
            ACCEPTANCE + "test_criterion_8_noise_degeneracy",
        ),
    ),
    # The LLM client (oracles.py).
    Mutant(
        "_exchange accepts more completions than prompts",
        "oracles.py",
        "len(completions) != count",
        "len(completions) < count",
        (LLM + "TestLlmCompareBatch::test_wrong_completion_count_raises_backend_failure",),
    ),
    Mutant(
        "a 304 reply's body read to the close",
        "oracles.py",
        "        if status in (204, 304):\n",
        "        if status in (204,):\n",
        (LLM + "TestTransport::test_call_after_an_http_error_reuses_the_connection",),
    ),
    Mutant(
        "the label regex without word boundaries",
        "oracles.py",
        '_LABEL = re.compile(r"\\bpassage ([ab])\\b")',
        '_LABEL = re.compile(r"passage ([ab])")',
        (ORACLES + "TestLabelParsing::test_labels",),
    ),
    Mutant(
        "an empty Authorization header sent",
        "oracles.py",
        '            + (f"Authorization: Bearer {api_key}\\r\\n" if api_key else "")\n',
        '            + f"Authorization: Bearer {api_key}\\r\\n"\n',
        (LLM + "TestLlmCompareBatch::test_no_auth_header_without_key", BODY),
    ),
    Mutant(
        "the envelope's closing ]} dropped",
        "oracles.py",
        ', *prompts, b"]}"])',
        ", *prompts])",
        (BODY, LLM + "TestLlmCompareBatch::test_labels_map_in_order"),
    ),
    Mutant(
        "the free resend allowed on a fresh connection",
        "oracles.py",
        "if reused and resend and isinstance(exc, _Unanswered):",
        "if resend and isinstance(exc, _Unanswered):",
        (
            LLM + "TestLlmCompareBatch::test_transport_failure_is_retried_once",
            POOL + "test_a_reset_connection_fails_only_its_cell_and_is_reopened_for_the_next",
        ),
    ),
    Mutant(
        "an idle socket that reads ready is reused",
        "oracles.py",
        "            if self._sock is not None and self._poll.poll(0):"
        "  # type: ignore[union-attr]\n"
        "                self.close()\n",
        "",
        (LLM + "TestTransport::test_idle_connection_that_reads_ready_is_not_reused",),
    ),
    Mutant(
        "idle check through `select.select`",
        "oracles.py",
        "self._poll.poll(0)",
        '__import__("select").select([self._sock], [], [], 0)[0]',
        (LLM + "TestTransport::test_connection_on_a_descriptor_of_1024_or_more_is_reused",),
    ),
    Mutant(
        "a failed send not resent on a fresh connection",
        "oracles.py",
        "        except OSError as exc:\n            raise _Unanswered(str(exc)) from exc\n",
        "        except OSError as exc:\n            raise\n",
        (LLM + "TestTransport::test_a_send_that_fails_on_a_reused_connection_is_sent_once_more",),
    ),
    Mutant(
        "one retry more than configured",
        "oracles.py",
        "        retries = self.endpoint.retries\n",
        "        retries = self.endpoint.retries + 1\n",
        (
            LLM + "TestLlmCompareBatch::test_transport_failure_is_retried_once",
            LLM + "TestTransport::test_request_dropped_on_a_reused_connection_is_resent_once",
            LLM + "TestReplyFraming::test_body_cut_short_by_a_close_is_retried_then_fails",
        ),
    ),
    Mutant(
        "the request head and body sent in two writes",
        "oracles.py",
        '            sock.sendall(b"".join((self._head, length, *parts)))\n',
        "            sock.sendall(self._head + length)\n"
        '            sock.sendall(b"".join(parts))\n',
        (BODY,),
    ),
    Mutant(
        "a socket kept while unread bytes remain",
        "oracles.py",
        "        if not keep_alive or self._buf:\n",
        "        if not keep_alive:\n",
        (
            LLM + "TestReplyFraming::"
            "test_bytes_past_the_end_of_a_reply_are_not_read_as_the_next_reply",
        ),
    ),
    Mutant(
        "a clean close inside a reply line accepted",
        "oracles.py",
        "                if buf:\n"
        '                    raise _HttpError("connection closed inside a reply line")\n',
        "",
        (LLM + "TestReplyFraming::test_reply_cut_off_by_a_close_is_a_backend_failure",),
    ),
    Mutant(
        "a chunk's line end not checked",
        "oracles.py",
        '                if self._line() not in (b"\\r\\n", b"\\n"):\n'
        '                    raise _HttpError("chunk data not followed by a line end")\n',
        "                self._line()\n",
        (LLM + "TestReplyFraming::test_malformed_reply_is_a_backend_failure",),
    ),
    Mutant(
        "NO_PROXY ignored",
        "oracles.py",
        "        if proxy and proxy_bypass(url.hostname):\n            proxy = None\n",
        "",
        (LLM + "TestTransport::test_no_proxy_bypasses_the_proxy",),
    ),
    Mutant(
        "a candidate without text accepted when built",
        "oracles.py",
        "            if cand.text is None:\n"
        '                raise InvalidConfig(f"candidate {cand.doc!r} has no passage text")\n'
        "            self._passages",
        "            self._passages",
        (LLM + "TestLlmOracle::test_candidates_without_text_are_rejected_upfront",),
    ),
    # The cell pool (experiment.py).
    Mutant(
        "a worker closes its connection after each cell",
        "experiment.py",
        "rows[index] = _run_cell(config, dataset, *cells[index], connection)\n",
        "rows[index] = _run_cell(config, dataset, *cells[index], connection)\n"
        "                    connection.close()\n",
        (
            POOL + "test_a_full_pool_of_cells_in_flight_each_on_its_own_connection",
            POOL + "test_a_reset_connection_fails_only_its_cell_and_is_reopened_for_the_next",
        ),
    ),
    Mutant(
        "a worker makes a connection per cell",
        "experiment.py",
        "*cells[index], connection)\n",
        "*cells[index], _Connection(config.oracle.endpoint))\n",
        (POOL + "test_a_full_pool_of_cells_in_flight_each_on_its_own_connection",),
    ),
    Mutant(
        "a cell's error raised ahead of a Ctrl-C",
        "experiment.py",
        "                errors.insert(0, exc)\n",
        "                errors.append(exc)\n",
        (LLM + "TestCellPool::test_interrupt_is_raised_ahead_of_a_cell_error",),
    ),
    Mutant(
        "the workers started before the pool's lock is taken",
        "experiment.py",
        "    with pool:\n        while True:\n            try:\n"
        "                for n in range(0 if errors else workers):\n",
        "    for n in range(workers):\n"
        '        threading.Thread(target=work, name=f"prp-sort-cell-{n}").start()\n'
        "        running += 1\n"
        "    with pool:\n        while True:\n            try:\n"
        "                for n in range(0):\n",
        (LLM + "TestCellPool::test_interrupt_while_the_workers_start_stops_the_pool",),
    ),
    Mutant(
        "a worker ends with its connection open",
        "experiment.py",
        "with closing(_Connection(config.oracle.endpoint)) as connection:",
        "for connection in [_Connection(config.oracle.endpoint)]:",
        (
            LLM + "TestTransport::"
            "test_run_experiment_keeps_a_connection_per_cell_in_flight_and_closes_them",
            POOL + "test_other_error_stops_new_cells_and_propagates",
            POOL + "test_interrupt_stops_new_cells",
        ),
    ),
    Mutant(
        "a score sweep runs on LLM_CONCURRENCY workers",
        "experiment.py",
        ' if config.oracle.kind == "llm" else 1\n',
        ' if config.oracle.kind == "llm" else LLM_CONCURRENCY\n',
        (POOL + "test_score_and_noisy_sweeps_run_on_one_worker",),
    ),
    # A file sweep's texts (experiment.py).
    Mutant(
        "passages kept for ids the run does not name",
        "experiment.py",
        "for doc, text in _id_texts(source.passages_path) if doc in docs}",
        "for doc, text in _id_texts(source.passages_path)}",
        (FILES + "test_texts_the_run_does_not_name_are_not_kept[passages]",),
    ),
    Mutant(
        "query texts kept for ids the run does not name",
        "experiment.py",
        "for qid, text in _id_texts(source.queries_path) if qid in qids}",
        "for qid, text in _id_texts(source.queries_path)}",
        (FILES + "test_texts_the_run_does_not_name_are_not_kept[queries]",),
    ),
    # A cell's judge (experiment.py).
    Mutant(
        "a noisy cell's flips keyed on the run stream",
        "experiment.py",
        'seed = stable_seed("noise", config.master_seed, query.qid)',
        'seed = stable_seed("run", config.master_seed, query.qid)',
        (NOISY_GOLDEN,),
    ),
    # The config, NDCG and the aggregates (experiment.py, metrics.py).
    Mutant(
        "the duplicate-label check dropped",
        "experiment.py",
        "        if duplicates:\n"
        '            raise InvalidConfig(f"algorithm entries share the labels {duplicates}")\n',
        "",
        (EXPERIMENT + "TestConfigParsing::test_entries_sharing_a_label_rejected",),
    ),
    Mutant(
        "gain_pct divided by the variant's own mean",
        "experiment.py",
        "agg.gain_pct = 100.0 * (base - agg.mean_inference_calls) / base\n",
        "agg.gain_pct = 100.0 * (base - agg.mean_inference_calls) / agg.mean_inference_calls\n",
        (GOLDEN, EXPERIMENT + "TestRunExperiment::test_aggregates_carry_named_baselines"),
    ),
    Mutant(
        "the ideal ranking of NDCG sorted ascending",
        "metrics.py",
        "    ideal = sorted(judged.values(), reverse=True)\n",
        "    ideal = sorted(judged.values())\n",
        (
            GOLDEN,
            ACCEPTANCE + "test_criterion_7_ndcg_unit_correctness",
            "tests/test_metrics.py::TestNdcg::test_hand_computed_three_document_case",
        ),
    ),
    Mutant(
        "emit_report reuses one config's columns for every row",
        "experiment.py",
        "        if row.config is not config:\n",
        "        if config is None:\n",
        (REPORTS + "test_report_bytes_match_the_digests",),
    ),
    Mutant(
        "an aggregate-only column left out of REPORT_COLUMNS",
        "experiment.py",
        "if f.name not in REPORT_COLUMNS]\n",
        'if f.name not in REPORT_COLUMNS and f.name != "gain_pct"]\n',
        (
            "tests/test_api.py::test_readme_report_schema_lists_the_report_columns_in_order",
            EXPERIMENT + "TestEmission::test_jsonl_round_trip_is_exact",
        ),
    ),
    # Input files (datasets.py).
    Mutant(
        "a line that is not UTF-8 read as text",
        "datasets.py",
        "            if not raw.isascii():\n",
        "            if False:\n",
        (
            ACCEPTANCE + "test_criterion_10_format_robustness",
            CLI + "test_an_input_file_that_is_not_utf8_exits_nonzero",
        ),
    ),
    Mutant(
        "an input file's byte-order mark read as part of its first line",
        "datasets.py",
        'encoding="utf-8-sig", errors="surrogateescape"',
        'encoding="utf-8", errors="surrogateescape"',
        (
            ACCEPTANCE + "test_criterion_10_format_robustness",
            CLI + "test_input_files_may_start_with_a_byte_order_mark",
        ),
    ),
    Mutant(
        "a config's byte-order mark rejected as invalid JSON",
        "experiment.py",
        '    with open(path, encoding="utf-8-sig") as handle:\n',
        '    with open(path, encoding="utf-8") as handle:\n',
        (
            ACCEPTANCE + "test_criterion_10_format_robustness",
            CLI + "test_input_files_may_start_with_a_byte_order_mark",
        ),
    ),
    # Synthetic data (datasets.py).
    Mutant(
        "the position-to-grade list shifted by one place",
        "datasets.py",
        "        for position in range(n)\n",
        "        for position in range(1, n + 1)\n",
        (NOISY_GOLDEN, "tests/test_datasets.py::TestSyntheticGenerator"),
    ),
]
