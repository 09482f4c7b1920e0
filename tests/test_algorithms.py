import itertools
import math
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp_sort import (
    AlgoConfig,
    Algorithm,
    BatchExecutor,
    InvalidConfig,
    PivotStrategy,
    ScoreOracle,
    batch_partition,
    bubblesort_topk,
    heapsort_topk,
    quicksort_topk,
    run_algorithm,
    select_pivot,
)
from helpers import FixedOracle, RecordingExecutor, random_instance, true_topk

ALL_PIVOTS = list(PivotStrategy)


class TestHeapsort:
    def test_sorted_output_under_transitive_oracle(self):
        oracle = ScoreOracle({"d1": 0.9, "d2": 0.5, "d3": 0.1})
        ranking, ledger = heapsort_topk(["d3", "d1", "d2"], 3, oracle)
        assert ranking == ["d1", "d2", "d3"]
        assert ledger.inference_calls == ledger.comparisons

    def test_singleton_costs_nothing(self):
        ranking, ledger = heapsort_topk(["d1"], 1, ScoreOracle({"d1": 1.0}))
        assert ranking == ["d1"]
        assert ledger.comparisons == 0

    def test_calls_always_equal_comparisons(self):
        for seed in range(10):
            ids, scores = random_instance(30, seed)
            ranking, ledger = heapsort_topk(ids, 7, ScoreOracle(scores))
            assert ranking == true_topk(ids, scores, 7)
            assert ledger.inference_calls == ledger.comparisons
            assert ledger.cache_hits == 0

    def test_batching_rejected(self):
        with pytest.raises(InvalidConfig):
            heapsort_topk(["d1", "d2"], 1, ScoreOracle({}), executor=BatchExecutor(2))

    def test_caching_executor_rejected(self):
        oracle = ScoreOracle({"d1": 1.0, "d2": 0.5})
        with pytest.raises(InvalidConfig):
            heapsort_topk(["d1", "d2"], 1, oracle, executor=BatchExecutor(use_cache=True))


class TestBubblesort:
    def test_already_ranked_input_stops_after_one_pass(self):
        ids, scores = random_instance(12, seed=0)
        ranked = true_topk(ids, scores, 12)
        ranking, ledger = bubblesort_topk(ranked, 5, ScoreOracle(scores))
        assert ranking == ranked[:5]
        assert ledger.comparisons == 11  # n - 1, single swap-free pass

    def test_reverse_ranked_four_items(self):
        scores = {"d1": 0.1, "d2": 0.2, "d3": 0.3, "d4": 0.4}
        items = ["d1", "d2", "d3", "d4"]  # worst first
        ranking, ledger = bubblesort_topk(items, 4, ScoreOracle(scores))
        assert ranking == ["d4", "d3", "d2", "d1"]
        assert ledger.comparisons == 3 + 2 + 1
        cached_ranking, cached_ledger = bubblesort_topk(
            items, 4, ScoreOracle(scores), BatchExecutor(use_cache=True)
        )
        assert cached_ranking == ranking
        assert cached_ledger.comparisons == 6
        assert cached_ledger.cache_hits == 0  # every adjacent pair is new

    def test_cached_and_classic_runs_are_identical_apart_from_cost_split(self):
        for seed in range(8):
            ids, scores = random_instance(40, seed)
            classic_exec = RecordingExecutor()
            classic, classic_ledger = bubblesort_topk(
                ids, 10, ScoreOracle(scores), executor=classic_exec
            )
            cached_exec = RecordingExecutor(use_cache=True)
            cached, cached_ledger = bubblesort_topk(
                ids, 10, ScoreOracle(scores), executor=cached_exec
            )
            assert classic == cached == true_topk(ids, scores, 10)
            assert classic_exec.trace == cached_exec.trace
            assert classic_ledger.comparisons == cached_ledger.comparisons
            assert classic_ledger.inference_calls == classic_ledger.comparisons
            assert (
                cached_ledger.inference_calls + cached_ledger.cache_hits
                == classic_ledger.comparisons
            )

    def test_batching_rejected(self):
        with pytest.raises(InvalidConfig):
            bubblesort_topk(["d1", "d2"], 1, ScoreOracle({}), executor=BatchExecutor(3))


class TestSelectPivot:
    def test_length_one_segment(self):
        executor = BatchExecutor()
        for strategy in ALL_PIVOTS:
            assert select_pivot(["d1"], 0, 0, strategy, 0, executor, ScoreOracle({})) == 0
        assert executor.ledger.comparisons == 0

    def test_first_and_middle(self):
        order = ["a", "b", "c", "d", "e"]
        executor = BatchExecutor()
        oracle = ScoreOracle({})
        assert select_pivot(order, 1, 4, PivotStrategy.FIRST, 0, executor, oracle) == 1
        assert select_pivot(order, 1, 4, PivotStrategy.MIDDLE, 0, executor, oracle) == 2

    def test_random_is_seeded_and_in_range(self):
        order = [f"d{i}" for i in range(10)]
        executor = BatchExecutor()
        oracle = ScoreOracle({})
        picks = {
            select_pivot(order, 2, 8, PivotStrategy.RANDOM, seed, executor, oracle)
            for seed in range(50)
        }
        assert all(2 <= p <= 8 for p in picks)
        assert len(picks) > 1
        again = select_pivot(order, 2, 8, PivotStrategy.RANDOM, 7, executor, oracle)
        assert again == select_pivot(order, 2, 8, PivotStrategy.RANDOM, 7, executor, oracle)

    def test_median_of_three_tournament(self):
        # first=0.1, middle=0.9, last=0.5: the last element is the median.
        order = ["a", "b", "c"]
        scores = {"a": 0.1, "b": 0.9, "c": 0.5}
        for batch_size, calls in ((2, 2), (128, 1)):
            executor = BatchExecutor(batch_size)
            pick = select_pivot(
                order, 0, 2, PivotStrategy.MEDIAN_OF_THREE, 0, executor, ScoreOracle(scores)
            )
            assert pick == 2
            assert executor.ledger.comparisons == 3
            assert executor.ledger.inference_calls == calls

    def test_median_of_three_exhaustive_triples(self):
        # All 6 score orders of 3 items: tournament must return the median.
        for perm in itertools.permutations((0.1, 0.5, 0.9)):
            order = ["a", "b", "c"]
            scores = dict(zip(order, perm))
            executor = BatchExecutor()
            pick = select_pivot(
                order, 0, 2, PivotStrategy.MEDIAN_OF_THREE, 0, executor, ScoreOracle(scores)
            )
            expected = order[perm.index(0.5)]
            assert order[pick] == expected

    def test_median_of_three_cyclic_falls_back_to_middle(self):
        oracle = FixedOracle({("a", "b"): "a", ("b", "c"): "b", ("a", "c"): "c"})
        executor = BatchExecutor()
        pick = select_pivot(
            ["a", "b", "c"], 0, 2, PivotStrategy.MEDIAN_OF_THREE, 0, executor, oracle
        )
        assert pick == 1

    def test_short_segment_falls_back_to_first(self):
        executor = BatchExecutor()
        pick = select_pivot(
            ["a", "b"], 0, 1, PivotStrategy.MEDIAN_OF_THREE, 0, executor, ScoreOracle({})
        )
        assert pick == 0
        assert executor.ledger.comparisons == 0


class TestBatchPartition:
    def test_ceiling_arithmetic(self):
        ids, scores = random_instance(6, seed=3)
        order = list(ids)
        executor = BatchExecutor(batch_size=2)
        batch_partition(order, 0, 5, 2, executor, ScoreOracle(scores))
        assert executor.ledger.comparisons == 5
        assert executor.ledger.inference_calls == 3

    def test_everything_loses_keeps_input_order_on_the_right(self):
        scores = {"p": 1.0, "a": 0.4, "b": 0.3, "c": 0.2}
        order = ["a", "b", "p", "c"]
        executor = BatchExecutor()
        left, right = batch_partition(order, 0, 3, 2, executor, ScoreOracle(scores))
        assert left == []
        assert right == ["a", "b", "c"]
        assert order == ["p", "a", "b", "c"]

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 20))
    @settings(max_examples=80, deadline=None)
    def test_stable_partition_matches_filter_oracle(self, seed, n):
        ids, scores = random_instance(n, seed)
        pivot_index = Random(seed).randrange(n)
        order = list(ids)
        executor = BatchExecutor()
        left, right = batch_partition(order, 0, n - 1, pivot_index, executor, ScoreOracle(scores))
        pivot_doc = ids[pivot_index]
        others = [d for d in ids if d != pivot_doc]

        def beats(x, y):
            return (scores[x], y) > (scores[y], x)

        assert left == [d for d in others if beats(d, pivot_doc)]
        assert right == [d for d in others if not beats(d, pivot_doc)]
        assert order == left + [pivot_doc] + right
        assert executor.ledger.comparisons == n - 1


class TestQuicksort:
    def test_triples_in_any_order_any_pivot(self):
        scores = {"a": 0.3, "b": 0.6, "c": 0.9}
        for perm in itertools.permutations(scores):
            for strategy in ALL_PIVOTS:
                executor = BatchExecutor()
                ranking, ledger = quicksort_topk(
                    list(perm), 3, ScoreOracle(scores), executor, pivot=strategy
                )
                assert ranking == ["c", "b", "a"]
                assert ledger.inference_calls == ledger.comparisons  # B=1 law

    @pytest.mark.parametrize("strategy", ALL_PIVOTS)
    def test_batch_size_changes_calls_not_outcomes(self, strategy):
        ids, scores = random_instance(60, seed=9)
        results = {}
        for batch_size in (1, 2, 8, 128):
            executor = RecordingExecutor(batch_size)
            ranking, ledger = quicksort_topk(
                ids, 10, ScoreOracle(scores), executor, pivot=strategy, seed=5
            )
            results[batch_size] = (ranking, ledger.comparisons, ledger.inference_calls)
            expected_calls = sum(
                math.ceil(m / batch_size) for m in executor.group_misses
            )
            assert ledger.inference_calls == expected_calls
        baseline_ranking, baseline_comparisons, _ = results[1]
        assert baseline_ranking == true_topk(ids, scores, 10)
        for ranking, comparisons, _ in results.values():
            assert ranking == baseline_ranking
            assert comparisons == baseline_comparisons
        calls = [results[b][2] for b in (1, 2, 8, 128)]
        assert calls == sorted(calls, reverse=True)

    @pytest.mark.parametrize("strategy", ALL_PIVOTS)
    def test_partial_never_costs_more_and_agrees_on_the_prefix(self, strategy):
        for seed in range(12):
            ids, scores = random_instance(25, seed)
            k = (seed % 6) + 1
            partial_exec = BatchExecutor()
            partial_ranking, partial_ledger = quicksort_topk(
                ids, k, ScoreOracle(scores), partial_exec, pivot=strategy, partial=True, seed=seed
            )
            full_exec = BatchExecutor()
            full_ranking, full_ledger = quicksort_topk(
                ids, k, ScoreOracle(scores), full_exec, pivot=strategy, partial=False, seed=seed
            )
            assert partial_ranking == full_ranking == true_topk(ids, scores, k)
            assert partial_ledger.comparisons <= full_ledger.comparisons

    def test_full_sort_orders_everything(self):
        ids, scores = random_instance(15, seed=21)
        ranking, _ = quicksort_topk(
            ids, 15, ScoreOracle(scores), pivot=PivotStrategy.RANDOM, partial=False, seed=3
        )
        assert ranking == true_topk(ids, scores, 15)

    def test_deterministic_across_repeated_runs(self):
        ids, scores = random_instance(30, seed=33)
        outcomes = set()
        for _ in range(3):
            executor = BatchExecutor(4)
            ranking, ledger = quicksort_topk(
                ids, 8, ScoreOracle(scores), executor, pivot=PivotStrategy.RANDOM, seed=17
            )
            outcomes.add((tuple(ranking), str(ledger)))
        assert len(outcomes) == 1

    def test_caching_executor_rejected(self):
        oracle = ScoreOracle({"d1": 1.0, "d2": 0.5})
        with pytest.raises(InvalidConfig):
            quicksort_topk(["d1", "d2"], 1, oracle, BatchExecutor(use_cache=True))


class TestSharedValidation:
    def test_k_above_n_clamps_with_warning(self):
        ids, scores = random_instance(4, seed=0)
        with pytest.warns(UserWarning, match="clamping"):
            ranking, _ = heapsort_topk(ids, 9, ScoreOracle(scores))
        assert ranking == true_topk(ids, scores, 4)
        with pytest.warns(UserWarning, match="clamping"):
            ranking, _ = quicksort_topk(ids, 9, ScoreOracle(scores))
        assert ranking == true_topk(ids, scores, 4)

    def test_k_below_one_rejected(self):
        with pytest.raises(InvalidConfig):
            heapsort_topk(["d1"], 0, ScoreOracle({"d1": 1.0}))

    def test_empty_items_rejected(self):
        with pytest.raises(InvalidConfig):
            quicksort_topk([], 1, ScoreOracle({}))

    def test_duplicate_items_rejected(self):
        with pytest.raises(InvalidConfig):
            bubblesort_topk(["d1", "d1"], 1, ScoreOracle({"d1": 1.0}))

    def test_empty_doc_id_rejected(self):
        with pytest.raises(InvalidConfig):
            heapsort_topk(["d1", ""], 1, ScoreOracle({"d1": 1.0, "": 0.5}))


class TestAlgoConfig:
    def test_labels(self):
        assert AlgoConfig(Algorithm.HEAPSORT).label() == "heapsort"
        assert AlgoConfig(Algorithm.BUBBLESORT).label() == "bubblesort (classic)"
        assert AlgoConfig(Algorithm.BUBBLESORT, use_cache=True).label() == "bubblesort (cached)"
        assert (
            AlgoConfig(Algorithm.QUICKSORT, batch_size=2, pivot=PivotStrategy.MIDDLE).label()
            == "quicksort (middle, b=2)"
        )
        assert (
            AlgoConfig(Algorithm.QUICKSORT, partial=False).label()
            == "quicksort (median-of-three, b=1, full)"
        )

    def test_batching_rejected_outside_quicksort(self):
        with pytest.raises(InvalidConfig):
            AlgoConfig(Algorithm.HEAPSORT, batch_size=2)
        with pytest.raises(InvalidConfig, match="batch_size must be >= 1"):
            AlgoConfig(Algorithm.QUICKSORT, batch_size=0)
        with pytest.raises(InvalidConfig):
            AlgoConfig(Algorithm.BUBBLESORT, batch_size=2)

    def test_caching_rejected_outside_bubblesort(self):
        with pytest.raises(InvalidConfig):
            AlgoConfig(Algorithm.HEAPSORT, use_cache=True)
        with pytest.raises(InvalidConfig):
            AlgoConfig(Algorithm.QUICKSORT, use_cache=True)

    def test_replace_cannot_build_an_invalid_config(self):
        with pytest.raises(InvalidConfig, match="batch"):
            replace(AlgoConfig(Algorithm.HEAPSORT), batch_size=2)
        with pytest.raises(InvalidConfig, match="k must be"):
            replace(AlgoConfig(Algorithm.QUICKSORT), k=0)

    def test_baselines(self):
        quick = AlgoConfig(Algorithm.QUICKSORT, k=4, batch_size=8, pivot=PivotStrategy.RANDOM)
        assert quick.baseline() == AlgoConfig(Algorithm.HEAPSORT, k=4)
        cached = AlgoConfig(Algorithm.BUBBLESORT, k=3, use_cache=True)
        assert cached.baseline() == AlgoConfig(Algorithm.BUBBLESORT, k=3)
        assert AlgoConfig(Algorithm.HEAPSORT).baseline() is None
        assert AlgoConfig(Algorithm.BUBBLESORT).baseline() is None

    def test_run_algorithm_dispatch(self):
        ids, scores = random_instance(12, seed=14)
        oracle = ScoreOracle(scores)
        for config in (
            AlgoConfig(Algorithm.HEAPSORT, k=4),
            AlgoConfig(Algorithm.BUBBLESORT, k=4, use_cache=True),
            AlgoConfig(Algorithm.QUICKSORT, k=4, batch_size=8, pivot=PivotStrategy.RANDOM),
        ):
            ranking, ledger = run_algorithm(ids, config, oracle)
            assert ranking == true_topk(ids, scores, 4)
            assert ledger.comparisons > 0


class TestExhaustiveSmall:
    @pytest.mark.parametrize("strategy", ALL_PIVOTS)
    def test_all_permutations_up_to_five(self, strategy):
        for n in range(1, 6):
            ids = [f"d{i}" for i in range(n)]
            for values in itertools.permutations([(j + 1) / n for j in range(n)]):
                scores = dict(zip(ids, values))
                oracle = ScoreOracle(scores)
                full = true_topk(ids, scores, n)
                for k in range(1, n + 1):
                    expected = full[:k]
                    for partial in (True, False):
                        ranking, _ = quicksort_topk(
                            ids, k, oracle, pivot=strategy, partial=partial, seed=1
                        )
                        assert ranking == expected
                    heap_ranking, _ = heapsort_topk(ids, k, oracle)
                    assert heap_ranking == expected
                    for cached in (False, True):
                        bubble_ranking, _ = bubblesort_topk(
                            ids, k, oracle, BatchExecutor(use_cache=cached)
                        )
                        assert bubble_ranking == expected


class TestQuestionSequence:
    """The exact groups of ordered pairs each sorter asks, derived by hand
    from the rules in its docstring. The first document of a pair is Passage
    A of an LLM prompt, so the orientation is pinned as well as the pairs."""

    # The input order; the true ranking is b, d, a, e, c.
    ITEMS = ["a", "b", "c", "d", "e"]
    SCORES = {"a": 0.5, "b": 0.9, "c": 0.1, "d": 0.7, "e": 0.3}

    def groups_asked(self, sort, *args, batch_size=1, **kwargs):
        executor = RecordingExecutor(batch_size)
        ranking, _ = sort(self.ITEMS, *args, ScoreOracle(self.SCORES), executor, **kwargs)
        return ranking, executor.groups

    def test_heapsort_asks_child_vs_child_then_winner_vs_parent(self):
        ranking, groups = self.groups_asked(heapsort_topk, 2)
        assert ranking == ["b", "d"]
        assert groups == [
            # build: sift index 1, then index 0
            [("d", "e")], [("d", "b")],
            [("b", "c")], [("b", "a")], [("d", "e")], [("d", "a")],
            # after extracting b; none after d, the k-th
            [("d", "c")], [("d", "e")], [("a", "e")],
        ]

    def test_bubblesort_asks_adjacent_pairs_from_the_end(self):
        ranking, groups = self.groups_asked(bubblesort_topk, 2)
        assert ranking == ["b", "d"]
        assert groups == [
            [("d", "e")], [("c", "d")], [("b", "d")], [("a", "b")],
            [("c", "e")], [("d", "e")], [("a", "d")],
        ]

    @pytest.mark.parametrize(
        "pivot, expected",
        [
            (
                PivotStrategy.FIRST,
                [
                    [("b", "a"), ("c", "a"), ("d", "a"), ("e", "a")],
                    [("d", "b")],  # the left segment [b, d] first
                    [("e", "c")],
                ],
            ),
            (
                PivotStrategy.MIDDLE,
                [
                    [("a", "c"), ("b", "c"), ("d", "c"), ("e", "c")],
                    [("a", "b"), ("d", "b"), ("e", "b")],
                    [("a", "d"), ("e", "d")],
                    [("e", "a")],
                ],
            ),
            (
                # At seed 1 the keyed draws pick index 3 of [0, 4], then
                # index 4 of [2, 4].
                PivotStrategy.RANDOM,
                [
                    [("a", "d"), ("b", "d"), ("c", "d"), ("e", "d")],
                    [("a", "e"), ("c", "e")],
                ],
            ),
            (
                PivotStrategy.MEDIAN_OF_THREE,
                [
                    [("a", "c"), ("a", "e"), ("c", "e")],  # e is the median
                    [("a", "e"), ("b", "e"), ("c", "e"), ("d", "e")],
                    [("a", "b"), ("a", "d"), ("b", "d")],  # d is the median
                    [("a", "d"), ("b", "d")],
                ],
            ),
        ],
    )
    def test_quicksort_asks_doc_vs_pivot_left_segment_first(self, pivot, expected):
        ranking, groups = self.groups_asked(
            quicksort_topk, 5, batch_size=3, pivot=pivot, partial=False, seed=1
        )
        assert ranking == ["b", "d", "a", "e", "c"]
        assert groups == expected
