"""Instrumented top-k ranking algorithms.

Every oracle question flows through a BatchExecutor, so each run yields a
ranking plus a filled CostLedger. Heapsort and Bubblesort ask one question at
a time, each through ``BatchExecutor.ask`` as a group of one: they accept
only batch size 1, and asking them to batch is an error rather than a no-op.
Quicksort batches its all-vs-pivot partitions. Only Bubblesort, whose
adjacent sweeps re-ask pairs across passes, accepts a caching executor;
Heapsort and median-of-three Quicksort re-ask fewer (14.08 and 15.22 per
query on the reference sweep; README, "Caching").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Any, Iterable, Sequence

from .errors import InvalidConfig
from .model import _FIRST, _SECOND, CostLedger, DocId
from .oracles import BatchExecutor, Oracle, _asking_pairs
from .seeding import stable_seed


class Algorithm(Enum):
    HEAPSORT = "heapsort"
    BUBBLESORT = "bubblesort"
    QUICKSORT = "quicksort"


class PivotStrategy(Enum):
    """Pivot selection rule for Quicksort partitions."""

    FIRST = "first"
    MIDDLE = "middle"
    RANDOM = "random"
    MEDIAN_OF_THREE = "median-of-three"


def _check_executor(algorithm: Algorithm, batch_size: int, use_cache: bool) -> None:
    # Batching is Quicksort's lever and caching Bubblesort's; asking any other
    # sorter for one is a misconfiguration, not a silent no-op.
    if algorithm is not Algorithm.QUICKSORT and batch_size != 1:
        raise InvalidConfig(f"{algorithm.value} cannot batch; use batch_size=1")
    if algorithm is not Algorithm.BUBBLESORT and use_cache:
        raise InvalidConfig(f"{algorithm.value} cannot cache; use_cache must be false")


@dataclass(frozen=True)
class AlgoConfig:
    """One algorithm variant: which sorter runs, with what k, batch size,
    cache flag, pivot rule and seed.

    batch_size > 1 is only legal for Quicksort and use_cache only for
    Bubblesort; ``partial`` and ``pivot`` are read by Quicksort alone. The
    checks run on construction, so an invalid config (also one made with
    ``dataclasses.replace``) cannot exist.
    """

    algorithm: Algorithm
    k: int = 10
    batch_size: int = 1
    use_cache: bool = False
    pivot: PivotStrategy = PivotStrategy.MEDIAN_OF_THREE
    partial: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        _check_executor(self.algorithm, self.batch_size, self.use_cache)

    def label(self) -> str:
        if self.algorithm is Algorithm.HEAPSORT:
            return "heapsort"
        if self.algorithm is Algorithm.BUBBLESORT:
            return f"bubblesort ({'cached' if self.use_cache else 'classic'})"
        suffix = "" if self.partial else ", full"
        return f"quicksort ({self.pivot.value}, b={self.batch_size}{suffix})"

    def columns(self) -> dict[str, Any]:
        """The report columns describing this variant; ``pivot`` and ``partial``
        are None except for Quicksort, the one sorter that reads them."""
        quick = self.algorithm is Algorithm.QUICKSORT
        return dict(
            algorithm=self.label(),
            k=self.k,
            batch_size=self.batch_size,
            pivot=self.pivot.value if quick else None,
            cached=self.use_cache,
            partial=self.partial if quick else None,
        )

    def baseline(self) -> AlgoConfig | None:
        """The variant this one's gain is measured against, at the same k:
        heapsort for Quicksort, classic for cached Bubblesort, else None.
        A sweep has one k, so match it by ``label()``, which leaves out the
        fields an algorithm does not read."""
        if self.algorithm is Algorithm.QUICKSORT:
            return AlgoConfig(Algorithm.HEAPSORT, k=self.k)
        if self.use_cache:
            return AlgoConfig(Algorithm.BUBBLESORT, k=self.k)
        return None


def _entry(
    algorithm: Algorithm,
    items: Iterable[DocId],
    k: int,
    oracle: Oracle,
    executor: BatchExecutor | None,
) -> tuple[list[DocId], int, Oracle, BatchExecutor]:
    """Check a sorter's executor (a fresh one if None), candidates and k, in
    that order; returns (the candidates as a list, k clamped to them, the
    oracle to ask plain (first, second) pairs, executor)."""
    executor = BatchExecutor() if executor is None else executor
    _check_executor(algorithm, executor.batch_size, executor.use_cache)
    order = list(items)
    if not order:
        raise InvalidConfig("cannot rank an empty candidate list")
    if not all(order):
        raise InvalidConfig("candidate list contains an empty document id")
    if len(set(order)) != len(order):
        raise InvalidConfig("candidate list contains duplicate document ids")
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    n = len(order)
    if k > n:
        # stacklevel 3 points the warning at the sorter's caller.
        warnings.warn(f"k={k} exceeds the {n} available items; clamping to {n}", stacklevel=3)
        k = n
    return order, k, _asking_pairs(oracle), executor


def heapsort_topk(
    items: Iterable[DocId],
    k: int,
    oracle: Oracle,
    executor: BatchExecutor | None = None,
) -> tuple[list[DocId], CostLedger]:
    """Max-heap build (bottom-up sift-down) plus k extract-max rounds.

    Each sift step asks child-vs-child, then winner-vs-parent, one question
    at a time through ``executor.ask``, each a group of one: within a sift
    every outcome decides the next question (the build's sifts of disjoint
    subtrees are independent, but not grouped). A run re-asks a few pairs
    yet takes no cache. Returns the k extracted ids in extraction order
    (most relevant first).
    """
    heap, k, oracle, executor = _entry(Algorithm.HEAPSORT, items, k, oracle, executor)
    n = len(heap)
    ask = executor.ask

    def sift_down(i: int, size: int) -> None:
        while True:
            left = 2 * i + 1
            if left >= size:
                return
            right = left + 1
            if right < size and ask(oracle, (heap[left], heap[right])) is not _FIRST:
                winner = right
            else:
                winner = left
            if ask(oracle, (heap[winner], heap[i])) is not _FIRST:
                return
            heap[i], heap[winner] = heap[winner], heap[i]
            i = winner

    for i in range(n // 2 - 1, -1, -1):
        sift_down(i, n)
    ranking = [heap[0]]
    # No sift after the k-th extraction: its answers could not reach the ranking.
    while len(ranking) < k:
        heap[0] = heap.pop()
        sift_down(0, len(heap))
        ranking.append(heap[0])
    return ranking, executor.ledger


def bubblesort_topk(
    items: Iterable[DocId],
    k: int,
    oracle: Oracle,
    executor: BatchExecutor | None = None,
) -> tuple[list[DocId], CostLedger]:
    """Up to k adjacent-sweep passes; pass p bubbles the best remaining item
    into position p, so positions 0..p are final afterwards. Terminates
    early after a swap-free pass.

    Each comparison goes through ``executor.ask`` as a group of one, because
    a swap changes the next pair, so there is nothing independent to batch.
    Given a caching executor, the pair sequence, outcomes and ranking are
    identical to the classic run; only the hit/call split differs.
    """
    order, k, oracle, executor = _entry(Algorithm.BUBBLESORT, items, k, oracle, executor)
    n = len(order)
    ask = executor.ask
    for p in range(k):
        swapped = False
        # The pass carries the best document so far from the end toward p:
        # each question reads order[i] and writes the loser to i + 1.
        carried = order[n - 1]
        for i in range(n - 2, p - 1, -1):
            doc = order[i]
            if ask(oracle, (doc, carried)) is _SECOND:
                order[i + 1] = doc
                swapped = True
            else:
                order[i + 1] = carried
                carried = doc
        order[p] = carried
        if not swapped:
            break
    return order[:k], executor.ledger


def select_pivot(
    order: Sequence[DocId],
    lo: int,
    hi: int,
    strategy: PivotStrategy,
    seed: int,
    executor: BatchExecutor,
    oracle: Oracle,
) -> int:
    """Choose the pivot index for the segment [lo, hi].

    Random draws are keyed on (seed, lo, hi) rather than on a shared stream,
    so a pruned partial run picks the same pivot as a full run on every
    segment both visit. Median-of-three submits its three candidate
    comparisons as one independent group (they cost real inferences) and
    returns the element that wins exactly one of its two matches; a cyclic
    outcome falls back to the middle index, and segments shorter than three
    fall back to the first index at zero cost.
    """
    if strategy is PivotStrategy.FIRST:
        return lo
    if strategy is PivotStrategy.MIDDLE:
        return (lo + hi) // 2
    if strategy is PivotStrategy.RANDOM:
        return Random(stable_seed("pivot", seed, lo, hi)).randrange(lo, hi + 1)
    if hi - lo + 1 < 3:
        return lo
    middle = (lo + hi) // 2
    a, b, c = order[lo], order[middle], order[hi]
    ab, ac, bc = executor.submit_group(_asking_pairs(oracle), ((a, b), (a, c), (b, c)))
    if ab is bc:
        return middle  # b sits between a and c, or the triple is a cycle
    # b beat both or lost to both, so a is the median exactly when its
    # match with c went the other way from its match with b.
    return lo if ab is not ac else hi


def batch_partition(
    order: list[DocId],
    lo: int,
    hi: int,
    pivot_index: int,
    executor: BatchExecutor,
    oracle: Oracle,
) -> tuple[list[DocId], list[DocId]]:
    """Stable all-vs-pivot partition of the segment [lo, hi].

    Submits (element vs pivot) for every non-pivot element as one
    independent group of exactly hi - lo comparisons, then rebuilds the
    segment as winners + pivot + losers with input order preserved on both
    sides. Returns the (left, right) id lists.
    """
    pivot_doc = order[pivot_index]
    others = order[lo:pivot_index] + order[pivot_index + 1 : hi + 1]
    prefs = executor.submit_group(_asking_pairs(oracle), [(doc, pivot_doc) for doc in others])
    left: list[DocId] = []
    right: list[DocId] = []
    for doc, pref in zip(others, prefs):
        if pref is _FIRST:
            left.append(doc)
        else:  # _SECOND: _Requests checks that an outside oracle answers a Preference
            right.append(doc)
    order[lo : hi + 1] = left + [pivot_doc] + right
    return left, right


def quicksort_topk(
    items: Iterable[DocId],
    k: int,
    oracle: Oracle,
    executor: BatchExecutor | None = None,
    pivot: PivotStrategy = PivotStrategy.MEDIAN_OF_THREE,
    partial: bool = True,
    seed: int = 0,
) -> tuple[list[DocId], CostLedger]:
    """Work-list quicksort over index segments with batched partitions.

    Segments are processed in ascending position order off an explicit
    work list (no recursion depth hazard at adversarial pivots). With
    partial=True, a segment is processed only if it intersects positions
    [0, k); everything at or beyond position k is abandoned unsorted.
    Batch size never changes which comparisons are asked or their outcomes,
    only how misses are chunked into calls, so the ranking is invariant
    across batch sizes.
    """
    order, k, oracle, executor = _entry(Algorithm.QUICKSORT, items, k, oracle, executor)
    n = len(order)
    segments = [(0, n - 1)]
    while segments:
        lo, hi = segments.pop()
        if lo >= hi:
            continue
        if partial and lo >= k:
            continue
        pivot_index = select_pivot(order, lo, hi, pivot, seed, executor, oracle)
        left, _ = batch_partition(order, lo, hi, pivot_index, executor, oracle)
        mid = lo + len(left)
        segments.append((mid + 1, hi))
        segments.append((lo, mid - 1))
    return order[:k], executor.ledger


def run_algorithm(
    items: Iterable[DocId], config: AlgoConfig, oracle: Oracle
) -> tuple[list[DocId], CostLedger]:
    """Run one configured algorithm with a fresh executor."""
    executor = BatchExecutor(config.batch_size, config.use_cache)
    if config.algorithm is Algorithm.HEAPSORT:
        return heapsort_topk(items, config.k, oracle, executor)
    if config.algorithm is Algorithm.BUBBLESORT:
        return bubblesort_topk(items, config.k, oracle, executor)
    return quicksort_topk(
        items,
        config.k,
        oracle,
        executor,
        pivot=config.pivot,
        partial=config.partial,
        seed=config.seed,
    )
