"""Each sorter asks exactly the questions a plainly written reference asks.

The references below are recursive, use no executor and no cache, and
return the ranking with the exact groups of ordered pairs they ask. The
property runs the real sorters through a ``RecordingExecutor`` over random
instances and requires the same groups, in order, orientation and group
boundaries, and the same ranking. The first document of a pair is Passage A
of an LLM prompt, so a sorter that asks (b, a) where the reference asks
(a, b) fails here even though a symmetric judge ranks the same.

A judge defined outside the package is handed ``ComparisonRequest``s, whose
fields it may read, and the package's own judges plain tuples; the last
property checks both, and that the two kinds of judge rank and count alike.
"""

import functools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp_sort import (
    BatchExecutor,
    ComparisonRequest,
    InvalidConfig,
    NoisyOracle,
    Oracle,
    PivotStrategy,
    Preference,
    ScoreOracle,
    batch_partition,
    bubblesort_topk,
    heapsort_topk,
    quicksort_topk,
    select_pivot,
)
from prp_sort.seeding import stable_seed
from helpers import RecordingExecutor


class _Asker:
    """Asks a judge ordered pairs and keeps every group asked."""

    def __init__(self, judge):
        self.judge = judge
        self.groups = []

    def group(self, pairs):
        """Ask ``pairs`` as one group; True where the first document wins."""
        self.groups.append(pairs)
        return [self.judge.compare(pair) is Preference.FIRST for pair in pairs]

    def first_wins(self, a, b):
        return self.group([(a, b)])[0]


def reference_heapsort(items, k, judge):
    """Build a max-heap bottom-up, then swap the root behind the heap k - 1
    times, sifting after each swap: the k-th document is the root left over,
    so nothing is asked after the k-th extraction. A sift asks child vs
    child, then the winner vs its parent."""
    heap, ask = list(items), _Asker(judge)

    def sift(i, size):
        left, right = 2 * i + 1, 2 * i + 2
        if left >= size:
            return
        child = left if right >= size or ask.first_wins(heap[left], heap[right]) else right
        if ask.first_wins(heap[child], heap[i]):
            heap[i], heap[child] = heap[child], heap[i]
            sift(child, size)

    n = len(heap)
    for i in reversed(range(n // 2)):
        sift(i, n)
    for size in range(n - 1, n - k, -1):
        heap[0], heap[size] = heap[size], heap[0]
        sift(0, size)
    return heap[n - 1 : n - k : -1] + [heap[0]], ask.groups


def reference_bubblesort(items, k, judge):
    """Pass p walks from the end down to p, asking each adjacent pair (left,
    right) and swapping when the right one wins; it stops after k passes or
    after a pass without a swap."""
    order, ask = list(items), _Asker(judge)

    def bubble(i, p):
        """Ask pairs ending at i, i - 1, ... p + 1; True if any swapped."""
        if i <= p:
            return False
        swap = not ask.first_wins(order[i - 1], order[i])
        if swap:
            order[i - 1], order[i] = order[i], order[i - 1]
        return bubble(i - 1, p) or swap

    def passes(p):
        if p < k and bubble(len(order) - 1, p):
            passes(p + 1)

    passes(0)
    return order[:k], ask.groups


def reference_quicksort(items, k, judge, pivot, partial, seed):
    """Depth-first quicksort, left segment first. Median-of-three asks its
    tournament (lo, mid), (lo, hi), (mid, hi) as one group and takes the
    document that wins exactly one match (the middle one on a cycle); every
    partition asks (document, pivot) for each other document as one group.
    With ``partial``, a segment starting at or past k is left unsorted."""
    order, ask = list(items), _Asker(judge)

    def choose(lo, hi):
        mid = (lo + hi) // 2
        if pivot is PivotStrategy.FIRST:
            return lo
        if pivot is PivotStrategy.MIDDLE:
            return mid
        if pivot is PivotStrategy.RANDOM:
            return Random(stable_seed("pivot", seed, lo, hi)).randrange(lo, hi + 1)
        if hi - lo < 2:
            return lo
        a, b, c = order[lo], order[mid], order[hi]
        ab, ac, bc = ask.group([(a, b), (a, c), (b, c)])
        wins = {lo: ab + ac, mid: (not ab) + bc, hi: (not ac) + (not bc)}
        medians = [i for i, won in wins.items() if won == 1]
        return medians[0] if len(medians) == 1 else mid

    def sort(lo, hi):
        if lo >= hi or (partial and lo >= k):
            return
        pivot_doc = order[choose(lo, hi)]
        others = [doc for doc in order[lo : hi + 1] if doc != pivot_doc]
        won = ask.group([(doc, pivot_doc) for doc in others])
        left = [doc for doc, w in zip(others, won) if w]
        right = [doc for doc, w in zip(others, won) if not w]
        order[lo : hi + 1] = left + [pivot_doc] + right
        sort(lo, lo + len(left) - 1)
        sort(lo + len(left) + 1, hi)

    sort(0, len(order) - 1)
    return order[:k], ask.groups


def _asked(sort, items, k, judge, executor, **kwargs):
    ranking, _ = sort(items, k, judge, executor, **kwargs)
    return ranking, executor.groups


@st.composite
def instances(draw):
    """Ids in a random input order, scores with ties (broken by id), a k,
    and a function that puts a base judge under noise or leaves it bare."""
    n = draw(st.integers(1, 30))
    items = draw(st.permutations([f"d{j:02d}" for j in range(n)]))
    scores = dict(zip(items, draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))))
    k = draw(st.integers(1, n))
    noise = lambda base: base  # noqa: E731
    if draw(st.booleans()):
        flip, noise_seed = draw(st.sampled_from([0.1, 0.3])), draw(st.integers(0, 99))
        noise = functools.partial(NoisyOracle, flip_probability=flip, seed=noise_seed)
    return items, k, scores, noise


@settings(max_examples=150, derandomize=True, deadline=None)
@given(instance=instances(), partial=st.booleans(), seed=st.integers(0, 9))
def test_sorters_ask_the_reference_questions(instance, partial, seed):
    items, k, scores, noise = instance
    judge = noise(ScoreOracle(scores))
    expected = reference_heapsort(items, k, judge)
    assert _asked(heapsort_topk, items, k, judge, RecordingExecutor()) == expected
    expected = reference_bubblesort(items, k, judge)
    for cached in (False, True):
        executor = RecordingExecutor(use_cache=cached)
        assert _asked(bubblesort_topk, items, k, judge, executor) == expected
    for pivot in PivotStrategy:
        expected = reference_quicksort(items, k, judge, pivot, partial, seed)
        for batch_size in (1, 2, 3, 8):
            executor = RecordingExecutor(batch_size)
            asked = _asked(
                quicksort_topk, items, k, judge, executor, pivot=pivot, partial=partial, seed=seed
            )
            assert asked == expected, (pivot, batch_size)


class _FieldJudge(Oracle):
    """A judge defined outside the package that reads ``req.first`` and
    ``req.second``, as the benchmark's in-process judge does, and answers
    as ``ScoreOracle`` does over the same scores."""

    def __init__(self, scores):
        self.score = ScoreOracle(scores)
        self.types = set()

    def compare(self, req):
        self.types.add(type(req))
        return self.score.compare((req.first, req.second))


def _runs(judge, items, k, partial, seed):
    """(ranking, ledger) of every sorter variant, then the pivot and the
    partition of ``select_pivot`` and ``batch_partition`` called directly."""
    results = [heapsort_topk(items, k, judge)]
    for cached in (False, True):
        results.append(bubblesort_topk(items, k, judge, BatchExecutor(use_cache=cached)))
    for pivot in PivotStrategy:
        for batch_size in (1, 3):
            executor = BatchExecutor(batch_size)
            args = dict(pivot=pivot, partial=partial, seed=seed)
            results.append(quicksort_topk(items, k, judge, executor, **args))
    order, hi, executor = list(items), len(items) - 1, BatchExecutor(2)
    at = select_pivot(order, 0, hi, PivotStrategy.MEDIAN_OF_THREE, seed, executor, judge)
    results.append((at, batch_partition(order, 0, hi, at, executor, judge), order, executor.ledger))
    return results


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instance=instances(), partial=st.booleans(), seed=st.integers(0, 9))
def test_outside_judges_get_requests_and_the_package_judges_plain_tuples(instance, partial, seed):
    items, k, scores, noise = instance
    score_types = set()
    original = ScoreOracle.compare

    def spy(self, req):
        score_types.add(type(req))
        return original(self, req)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScoreOracle, "compare", spy)
        outside = _FieldJudge(scores)
        expected = _runs(noise(ScoreOracle(scores)), items, k, partial, seed)
        assert _runs(noise(outside), items, k, partial, seed) == expected
    asked = len(items) > 1
    assert outside.types == ({ComparisonRequest} if asked else set())
    assert score_types == ({tuple} if asked else set())


class _Answers(Oracle):
    """A judge defined outside the package that answers every ``compare``
    with ``answer`` and every ``compare_batch`` with ``batch(reqs)``."""

    def __init__(self, answer, batch=None):
        self.answer = answer
        self.batch = batch

    def compare(self, req):
        return self.answer

    def compare_batch(self, reqs):
        return self.batch(reqs) if self.batch else super().compare_batch(reqs)


DOCS = [f"d{i}" for i in range(8)]
SORTS = {
    "heapsort": lambda judge, executor: heapsort_topk(DOCS, 6, judge, executor),
    "bubblesort": lambda judge, executor: bubblesort_topk(DOCS, 6, judge, executor),
    "quicksort": lambda judge, executor: quicksort_topk(
        DOCS, 6, judge, executor, pivot=PivotStrategy.FIRST, partial=False
    ),
}


@pytest.mark.parametrize("noisy", [False, True], ids=["judge", "noisy-base"])
@pytest.mark.parametrize("answer", [None, "FIRST", True])
@pytest.mark.parametrize(
    "sort, use_cache",
    [("heapsort", False), ("bubblesort", False), ("bubblesort", True), ("quicksort", False)],
    ids=["heapsort", "bubblesort", "bubblesort-cached", "quicksort"],
)
def test_an_outside_judges_answer_that_is_no_preference_is_rejected(
    sort, use_cache, answer, noisy
):
    judge = _Answers(answer)
    executor = BatchExecutor(use_cache=use_cache)
    with pytest.raises(InvalidConfig, match=f"_Answers answered {answer!r}, not a Preference"):
        SORTS[sort](NoisyOracle(judge, 0.5, 1) if noisy else judge, executor)
    assert executor.ledger.inference_calls == 0
    assert executor._memo == ({} if use_cache else None)


@pytest.mark.parametrize(
    "batch, error",
    [
        (lambda reqs: [], "answered 7 requests with 0 answers"),
        (lambda reqs: [Preference.FIRST] * 8, "answered 7 requests with 8 answers"),
        (lambda reqs: None, "answered 7 requests with None"),
        (lambda reqs: [Preference.FIRST] * 6 + [None], "answered None, not a Preference"),
    ],
    ids=["none", "one-too-many", "not-a-list", "one-not-a-preference"],
)
@pytest.mark.parametrize("use_cache", [False, True], ids=["quicksort", "cached-partition"])
def test_an_outside_judges_batch_of_the_wrong_answers_is_rejected(batch, error, use_cache):
    # A partition around the first document asks the 7 others in one chunk.
    # Quicksort takes no cache, so a cached executor is tried on the
    # partition step alone.
    judge = _Answers(Preference.FIRST, batch)
    executor = BatchExecutor(8, use_cache=use_cache)
    with pytest.raises(InvalidConfig, match=f"_Answers.* {error}"):
        if use_cache:
            batch_partition(list(DOCS), 0, len(DOCS) - 1, 0, executor, judge)
        else:
            SORTS["quicksort"](judge, executor)
    assert executor.ledger.inference_calls == 0
    assert executor._memo == ({} if use_cache else None)
