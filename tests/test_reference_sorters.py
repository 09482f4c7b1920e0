"""Each sorter asks exactly the questions a plainly written reference asks.

The references below are recursive, use no executor and no cache, and
return the ranking with the exact groups of ordered pairs they ask. The
property runs the real sorters through a ``RecordingExecutor`` over random
instances and requires the same groups, in order, orientation and group
boundaries, and the same ranking. The first document of a pair is Passage A
of an LLM prompt, so a sorter that asks (b, a) where the reference asks
(a, b) fails here even though a symmetric judge ranks the same.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from prp_sort import (
    ComparisonRequest,
    NoisyOracle,
    PivotStrategy,
    Preference,
    ScoreOracle,
    bubblesort_topk,
    heapsort_topk,
    quicksort_topk,
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
    for group in executor.groups:
        for req in group:
            # The benchmark's in-process judge reads ``req.first``.
            assert type(req) is ComparisonRequest, type(req)
    return ranking, executor.groups


@st.composite
def instances(draw):
    """Ids in a random input order, scores with ties (broken by id), a k,
    and the score or the noisy judge over them."""
    n = draw(st.integers(1, 30))
    items = draw(st.permutations([f"d{j:02d}" for j in range(n)]))
    scores = dict(zip(items, draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))))
    k = draw(st.integers(1, n))
    judge = ScoreOracle(scores)
    if draw(st.booleans()):
        judge = NoisyOracle(judge, draw(st.sampled_from([0.1, 0.3])), draw(st.integers(0, 99)))
    return items, k, judge


@settings(max_examples=150, derandomize=True, deadline=None)
@given(instance=instances(), partial=st.booleans(), seed=st.integers(0, 9))
def test_sorters_ask_the_reference_questions(instance, partial, seed):
    items, k, judge = instance
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

