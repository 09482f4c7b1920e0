import math
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prp_sort import (
    BackendFailure,
    BatchExecutor,
    Candidate,
    ComparisonRequest,
    CostLedger,
    InvalidConfig,
    NoisyOracle,
    Oracle,
    Preference,
    ScoreOracle,
    build_prp_prompt,
    bubblesort_topk,
    parse_preference_label,
)
from prp_sort.seeding import stable_seed
from helpers import CountingOracle, RecordingExecutor, random_instance

# Prefix-sharing ids ("d1" against "d10") exercise the string ordering.
doc_ids = st.text(alphabet="abcd123", min_size=1, max_size=5)
distinct_pairs = st.tuples(doc_ids, doc_ids).filter(lambda p: p[0] != p[1])


class TestScoreOracle:
    def test_larger_score_wins(self):
        oracle = ScoreOracle({"d1": 0.9, "d2": 0.1})
        assert oracle.compare(ComparisonRequest("d1", "d2")) is Preference.FIRST
        assert oracle.compare(ComparisonRequest("d2", "d1")) is Preference.SECOND

    def test_tie_breaks_toward_smaller_id(self):
        oracle = ScoreOracle({"d1": 0.5, "d2": 0.5})
        # d1 is the second element of the request but wins the tie-break.
        assert oracle.compare(ComparisonRequest("d2", "d1")) is Preference.SECOND
        assert oracle.compare(ComparisonRequest("d1", "d2")) is Preference.FIRST

    def test_unknown_doc(self):
        oracle = ScoreOracle({"d1": 0.5})
        with pytest.raises(InvalidConfig, match="no score for document 'dX'"):
            oracle.compare(ComparisonRequest("d1", "dX"))

    def test_identical_pair(self):
        oracle = ScoreOracle({"d1": 0.5})
        with pytest.raises(InvalidConfig, match="with itself"):
            oracle.compare(ComparisonRequest("d1", "d1"))


class TestNoisyOracle:
    def test_zero_noise_is_extensionally_equal_to_base(self):
        ids, scores = random_instance(8, seed=5)
        base = ScoreOracle(scores)
        noisy = NoisyOracle(base, flip_probability=0.0, seed=99)
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                req = ComparisonRequest(a, b)
                assert noisy.compare(req) is base.compare(req)

    def test_certain_flip(self):
        oracle = NoisyOracle(ScoreOracle({"d1": 0.9, "d2": 0.1}), 1.0, seed=0)
        assert oracle.compare(ComparisonRequest("d1", "d2")) is Preference.SECOND

    def test_same_pair_always_answers_the_same(self):
        ids, scores = random_instance(10, seed=7)
        oracle = NoisyOracle(ScoreOracle(scores), 0.5, seed=3)
        for a in ids[:5]:
            for b in ids[5:]:
                first = oracle.compare(ComparisonRequest(a, b))
                for _ in range(3):
                    assert oracle.compare(ComparisonRequest(a, b)) is first
                # Orientation flips with the request, never the outcome.
                assert oracle.compare(ComparisonRequest(b, a)) is first.flipped()

    @given(distinct_pairs, st.integers(0, 2**32), st.sampled_from([0.15, 0.5, 0.9]))
    def test_flip_is_drawn_from_the_lexicographic_pair(self, pair, seed, p):
        a, b = pair
        base = ScoreOracle({a: 0.9, b: 0.1})
        req = ComparisonRequest(a, b)
        draw = Random(stable_seed("flip", seed, min(a, b), max(a, b))).random()
        expected = base.compare(req).flipped() if draw < p else base.compare(req)
        assert NoisyOracle(base, p, seed).compare(req) is expected

    @given(distinct_pairs, st.integers(0, 2**32))
    def test_symmetric_up_to_flip(self, pair, seed):
        a, b = pair
        oracle = NoisyOracle(ScoreOracle({a: 0.3, b: 0.7}), 0.5, seed)
        forward = oracle.compare(ComparisonRequest(a, b))
        assert oracle.compare(ComparisonRequest(b, a)) is forward.flipped()

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_identical_pair_is_rejected(self, p):
        oracle = NoisyOracle(ScoreOracle({"d1": 0.5}), p, seed=0)
        with pytest.raises(InvalidConfig, match="with itself"):
            oracle.compare(ComparisonRequest("d1", "d1"))

    def test_flip_probability_validated(self):
        with pytest.raises(InvalidConfig):
            NoisyOracle(ScoreOracle({}), 1.5, seed=0)


class TestExecutorCache:
    def test_miss_then_hit_queries_base_once(self):
        counting = CountingOracle(ScoreOracle({"d1": 0.9, "d2": 0.1}))
        executor = BatchExecutor(use_cache=True)
        req = ComparisonRequest("d1", "d2")
        assert executor.submit_group(counting, [req]) == [Preference.FIRST]
        assert executor.ledger.cache_hits == 0
        assert executor.submit_group(counting, [req]) == [Preference.FIRST]
        assert executor.ledger.cache_hits == 1
        assert counting.calls == executor.ledger.inference_calls == 1

    def test_reversed_pair_hits_with_reoriented_winner(self):
        counting = CountingOracle(ScoreOracle({"d1": 0.9, "d2": 0.1}))
        executor = BatchExecutor(use_cache=True)
        executor.submit_group(counting, [ComparisonRequest("d1", "d2")])
        answers = executor.submit_group(counting, [ComparisonRequest("d2", "d1")])
        assert answers == [Preference.SECOND]
        assert executor.ledger.cache_hits == 1
        assert counting.calls == 1

    def test_cache_unchanged_when_base_fails(self):
        oracle = ScoreOracle({"d1": 0.5, "d2": 0.1})
        executor = BatchExecutor(batch_size=2, use_cache=True)
        good, bad = ComparisonRequest("d1", "d2"), ComparisonRequest("d1", "dX")
        # The failing chunk also carries a pair the base could answer.
        with pytest.raises(InvalidConfig, match="no score for document 'dX'"):
            executor.submit_group(oracle, [good, bad])
        assert executor.ledger.inference_calls == 0
        executor.submit_group(oracle, [good])
        assert executor.ledger.cache_hits == 0
        assert executor.ledger.inference_calls == 1

    def test_memoized_noisy_is_internally_consistent(self):
        ids, scores = random_instance(12, seed=11)
        noisy = NoisyOracle(ScoreOracle(scores), 0.4, seed=8)
        executor = BatchExecutor(use_cache=True)
        rng = Random(2)
        seen: dict[tuple[str, str], Preference] = {}
        for _ in range(300):
            a, b = rng.sample(ids, 2)
            [answer] = executor.submit_group(noisy, [ComparisonRequest(a, b)])
            oriented = answer.flipped() if a > b else answer
            assert seen.setdefault((a, b) if a < b else (b, a), oriented) is oriented
        assert executor.ledger.inference_calls == len(seen)

    def test_bubblesort_hits_match_replay_log(self):
        # Replay oracle: feed the recorded pair sequence into a bare set and
        # count re-seen unordered pairs; must equal the ledger's cache_hits.
        ids, scores = random_instance(100, seed=42)
        executor = RecordingExecutor(use_cache=True)
        _, ledger = bubblesort_topk(ids, 10, ScoreOracle(scores), executor=executor)
        seen: set[tuple[str, str]] = set()
        replay_hits = 0
        for req in executor.trace:
            a, b = req
            key = (a, b) if a < b else (b, a)
            if key in seen:
                replay_hits += 1
            else:
                seen.add(key)
        assert ledger.cache_hits == replay_hits
        assert ledger.cache_hits == ledger.comparisons - ledger.inference_calls


class TestBatchExecutor:
    def test_ceiling_arithmetic(self):
        ids, scores = random_instance(6, seed=1)
        executor = BatchExecutor(batch_size=2)
        group = [ComparisonRequest(ids[i], ids[5]) for i in range(5)]
        executor.submit_group(ScoreOracle(scores), group)
        assert executor.ledger.comparisons == 5
        assert executor.ledger.inference_calls == 3
        assert executor.ledger.batch_groups == 1

    def test_batch_size_one_counts_every_comparison(self):
        ids, scores = random_instance(9, seed=2)
        executor = BatchExecutor(batch_size=1)
        group = [ComparisonRequest(ids[i], ids[8]) for i in range(8)]
        executor.submit_group(ScoreOracle(scores), group)
        assert executor.ledger.inference_calls == executor.ledger.comparisons == 8

    def test_large_batch_resolves_group_in_one_call(self):
        ids, scores = random_instance(100, seed=3)
        executor = BatchExecutor(batch_size=128)
        group = [ComparisonRequest(ids[i], ids[99]) for i in range(99)]
        executor.submit_group(ScoreOracle(scores), group)
        assert executor.ledger.comparisons == 99
        assert executor.ledger.inference_calls == 1

    def test_empty_group_is_free(self):
        executor = BatchExecutor(batch_size=4)
        assert executor.submit_group(ScoreOracle({}), []) == []
        assert executor.ledger == type(executor.ledger)()

    def test_batch_size_validated(self):
        with pytest.raises(InvalidConfig):
            BatchExecutor(batch_size=0)

    def test_cache_hits_split_from_misses(self):
        ids, scores = random_instance(5, seed=4)
        oracle = ScoreOracle(scores)
        executor = BatchExecutor(batch_size=2, use_cache=True)
        group = [ComparisonRequest(ids[i], ids[4]) for i in range(4)]
        executor.submit_group(oracle, group)
        # Same unordered pairs again, opposite orientation: all hits.
        flipped = [ComparisonRequest(ids[4], ids[i]) for i in range(4)]
        before_calls = executor.ledger.inference_calls
        answers = executor.submit_group(oracle, flipped)
        assert executor.ledger.cache_hits == 4
        assert executor.ledger.inference_calls == before_calls
        assert executor.ledger.comparisons == 8
        base = ScoreOracle(scores)
        assert answers == [base.compare(r) for r in flipped]

    @given(
        seed=st.integers(0, 10**6),
        batch_size=st.integers(1, 9),
        sizes=st.lists(st.integers(0, 12), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouping_never_changes_answers(self, seed, batch_size, sizes):
        ids, scores = random_instance(10, seed=seed)
        oracle = ScoreOracle(scores)
        rng = Random(seed + 1)
        groups = [
            [ComparisonRequest(*rng.sample(ids, 2)) for _ in range(size)]
            for size in sizes
        ]
        executor = RecordingExecutor(batch_size=batch_size)
        grouped = [executor.submit_group(oracle, group) for group in groups]
        singly = [[oracle.compare(req) for req in group] for group in groups]
        assert grouped == singly
        # Ceiling-sum call law over the recorded per-group miss counts.
        expected_calls = sum(math.ceil(m / batch_size) for m in executor.group_misses)
        assert executor.ledger.inference_calls == expected_calls
        assert executor.ledger.comparisons == sum(sizes)
        assert executor.ledger.batch_groups == sum(1 for s in sizes if s > 0)


DOCS = ["d0", "d1", "d2", "d3", "d4"]
ORDERED_PAIRS = [ComparisonRequest(a, b) for a in DOCS for b in DOCS if a != b]
P01, P10, P23, P32 = (ComparisonRequest(f"d{a}", f"d{b}") for a, b in ("01", "10", "23", "32"))


class ChunkLog(Oracle):
    """Score judge over DOCS that logs every call as (method, requests) and
    raises BackendFailure on call number ``fail_on``."""

    def __init__(self, fail_on: int | None = None):
        self.base = ScoreOracle({doc: -rank for rank, doc in enumerate(DOCS)})
        self.fail_on = fail_on
        self.calls: list[tuple[str, tuple[ComparisonRequest, ...]]] = []

    def _call(self, method, reqs):
        self.calls.append((method, tuple(reqs)))
        if len(self.calls) == self.fail_on:
            raise BackendFailure(f"call {self.fail_on} failed")
        return [self.base.compare(req) for req in reqs]

    def compare(self, req):
        return self._call("compare", [req])[0]

    def compare_batch(self, reqs):
        return self._call("compare_batch", reqs)


class ReferenceExecutor:
    """The executor's contract written out plainly: look the whole group up,
    then send the misses in chunks of at most batch_size, a one-request chunk
    through ``compare`` and a wider one through ``compare_batch``; count each
    chunk and memoize it in both orientations after it returns."""

    def __init__(self, batch_size: int, use_cache: bool):
        self.batch_size = batch_size
        self.ledger = CostLedger()
        self.memo: dict | None = {} if use_cache else None

    def submit_group(self, oracle, group):
        ledger, memo = self.ledger, self.memo
        ledger.comparisons += len(group)
        answers = [None if memo is None else memo.get(req) for req in group]
        miss_at = [idx for idx, answer in enumerate(answers) if answer is None]
        ledger.cache_hits += len(group) - len(miss_at)
        if miss_at:
            ledger.batch_groups += 1
        for start in range(0, len(miss_at), self.batch_size):
            at = miss_at[start : start + self.batch_size]
            chunk = [group[idx] for idx in at]
            if len(chunk) == 1:
                prefs = [oracle.compare(chunk[0])]
            else:
                prefs = oracle.compare_batch(chunk)
            ledger.inference_calls += 1
            for idx, (first, second), pref in zip(at, chunk, prefs):
                answers[idx] = pref
                if memo is not None:
                    memo[(first, second)] = pref
                    memo[(second, first)] = pref.flipped()
        return answers


def _answer(executor, oracle, group, ask_singletons):
    """Answer ``group`` through ``submit_group``; with ``ask_singletons``, a
    one-request group through ``ask`` instead."""
    if ask_singletons and len(group) == 1:
        return [executor.ask(oracle, group[0])]
    return executor.submit_group(oracle, group)


class TestExecutorEquivalence:
    """BatchExecutor's direct paths against the plainly written reference.
    Each test runs twice: once through ``submit_group`` alone, once with
    every one-request group answered through ``ask``."""

    @given(
        batch_size=st.integers(1, 9),
        use_cache=st.booleans(),
        groups=st.lists(st.lists(st.sampled_from(ORDERED_PAIRS), max_size=12), max_size=8),
    )
    # Singletons, a repeated pair, a reversed pair, duplicates within a
    # group, an empty group and a group of one miss among hits.
    @example(
        batch_size=2,
        use_cache=True,
        groups=[[P01], [P01], [P10], [P01, P10, P01, P23], [], [P23], [P10, P23, P01, P32]],
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_resolver(self, batch_size, use_cache, groups):
        for ask_singletons in (False, True):
            oracle, reference_oracle = ChunkLog(), ChunkLog()
            executor = BatchExecutor(batch_size, use_cache)
            reference = ReferenceExecutor(batch_size, use_cache)
            for group in groups:
                answers = _answer(executor, oracle, group, ask_singletons)
                assert answers == reference.submit_group(reference_oracle, group)
            assert executor.ledger == reference.ledger
            assert oracle.calls == reference_oracle.calls
            assert executor._memo == reference.memo

    @pytest.mark.parametrize("use_cache", [False, True])
    @pytest.mark.parametrize(
        "batch_size, group, fail_on",
        [
            (1, [P23], 2),  # a singleton
            (4, [P23], 2),
            # Seven pairs at B=2 are chunks of 2, 2, 2 and 1; fail each.
            *((2, ORDERED_PAIRS[10:17], fail_on) for fail_on in (2, 3, 4, 5)),
        ],
    )
    def test_backend_failure_counts_and_memoizes_only_completed_chunks(
        self, use_cache, batch_size, group, fail_on
    ):
        for ask_singletons in (False, True):
            oracle, reference_oracle = ChunkLog(fail_on), ChunkLog(fail_on)
            executor = BatchExecutor(batch_size, use_cache)
            reference = ReferenceExecutor(batch_size, use_cache)
            # Call 1 succeeds; the group under test shares no pair with it.
            assert _answer(executor, oracle, [P01], ask_singletons) == [Preference.FIRST]
            reference.submit_group(reference_oracle, [P01])
            with pytest.raises(BackendFailure):
                _answer(executor, oracle, group, ask_singletons)
            with pytest.raises(BackendFailure):
                reference.submit_group(reference_oracle, group)
            assert len(oracle.calls) == fail_on
            assert executor.ledger.inference_calls == fail_on - 1
            assert executor.ledger == reference.ledger
            completed: dict[ComparisonRequest, Preference] = {}
            for _, chunk in oracle.calls[:-1]:
                for first, second in chunk:
                    pref = oracle.base.compare((first, second))
                    completed[(first, second)] = pref
                    completed[(second, first)] = pref.flipped()
            assert executor._memo == (completed if use_cache else None)


class TestPromptBuilding:
    def test_placeholder_substitution(self):
        prompt = build_prp_prompt(
            "q",
            Candidate("a", text="x"),
            Candidate("b", text="y"),
            template="Q:{query} A:{passage_a} B:{passage_b}",
        )
        assert prompt == "Q:q A:x B:y"

    def test_deterministic(self):
        a, b = Candidate("a", text="x"), Candidate("b", text="y")
        assert build_prp_prompt("q", a, b) == build_prp_prompt("q", a, b)

    def test_swapped_candidates_swap_positions_only(self):
        a, b = Candidate("a", text="xx"), Candidate("b", text="yy")
        template = "A={passage_a};B={passage_b}"
        assert build_prp_prompt("q", a, b, template) == "A=xx;B=yy"
        assert build_prp_prompt("q", b, a, template) == "A=yy;B=xx"

    def test_missing_text_is_rejected(self):
        with pytest.raises(InvalidConfig, match="has no passage text"):
            build_prp_prompt("q", Candidate("a"), Candidate("b", text="y"))

    def test_placeholder_inside_a_passage_is_kept_verbatim(self):
        a = Candidate("a", text="text with {passage_b} inside")
        b = Candidate("b", text="BBB")
        template = "A:{passage_a} B:{passage_b}"
        assert build_prp_prompt("q", a, b, template) == "A:text with {passage_b} inside B:BBB"

    def test_placeholder_inside_the_query_is_kept_verbatim(self):
        a, b = Candidate("a", text="AAA"), Candidate("b", text="BBB")
        prompt = build_prp_prompt("why {passage_a}? {query}", a, b)
        assert "Query: why {passage_a}? {query}\n" in prompt
        assert prompt.count("AAA") == 1

    @pytest.mark.parametrize(
        "template, expected",
        [
            ("B={passage_b} A={passage_a} Q={query}", "B=yy A=xx Q=q"),
            ("{passage_a}{passage_a}|{query}|{passage_a}", "xxxx|q|xx"),
            ("only {passage_b}", "only yy"),
            ("no slots {at} all {passage_c}", "no slots {at} all {passage_c}"),
            ("{{query}} {passage_a", "{q} {passage_a"),
            ("", ""),
        ],
        ids=["reordered", "repeated", "missing", "none", "braces", "empty"],
    )
    def test_any_order_and_number_of_slots(self, template, expected):
        a, b = Candidate("a", text="xx"), Candidate("b", text="yy")
        assert build_prp_prompt("q", a, b, template) == expected


class TestLabelParsing:
    @pytest.mark.parametrize(
        "completion,expected,parsed",
        [
            ("Passage A", Preference.FIRST, True),
            ("Passage B is more relevant", Preference.SECOND, True),
            ("  passage b.", Preference.SECOND, True),
            ("I think Passage A, not Passage B", Preference.FIRST, True),
            ("neither", Preference.FIRST, False),
            ("", Preference.FIRST, False),
            (
                "The passage about rivers is weaker; Passage B is more relevant.",
                Preference.SECOND,
                True,
            ),
            ("Passage Alpha", Preference.FIRST, False),
        ],
    )
    def test_labels(self, completion, expected, parsed):
        assert parse_preference_label(completion) == (expected, parsed)
