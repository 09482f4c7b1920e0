"""Shared test utilities: recording executors, counting/fixed oracles, and
the brute-force ranking oracle used to check every algorithm."""

from __future__ import annotations

from random import Random

from prp_sort import BatchExecutor, ComparisonRequest, Oracle, Preference, ScoreOracle


class RecordingExecutor(BatchExecutor):
    """BatchExecutor that logs every submitted group, every request and
    answer, hits included, and the miss count of every group that had
    misses, so the ceiling-sum call law can be audited after a run."""

    def __init__(self, batch_size: int = 1, use_cache: bool = False):
        super().__init__(batch_size, use_cache)
        self.groups: list[list[ComparisonRequest]] = []
        self.answers: list[Preference] = []
        self.group_misses: list[int] = []

    @property
    def trace(self) -> list[ComparisonRequest]:
        """Every submitted request, in order."""
        return [req for group in self.groups for req in group]

    def submit_group(self, oracle, group):
        self.groups.append(list(group))
        hits_before = self.ledger.cache_hits
        result = super().submit_group(oracle, group)
        self.answers.extend(result)
        misses = len(group) - (self.ledger.cache_hits - hits_before)
        if misses > 0:
            self.group_misses.append(misses)
        return result


class CountingOracle(Oracle):
    """Wraps a base oracle and counts how many comparisons reach it."""

    def __init__(self, base: Oracle):
        self.base = base
        self.calls = 0

    def compare(self, req):
        self.calls += 1
        return self.base.compare(req)


class FixedOracle(Oracle):
    """Answers from an explicit winner table; used to force intransitive
    outcomes that no score map can produce."""

    def __init__(self, winners: dict[tuple[str, str], str]):
        self._winners = dict(winners)
        for (a, b), winner in list(winners.items()):
            self._winners.setdefault((b, a), winner)

    def compare(self, req):
        first, second = req
        winner = self._winners[(first, second)]
        return Preference.FIRST if winner == first else Preference.SECOND


def random_instance(n: int, seed: int) -> tuple[list[str], dict[str, float]]:
    """n docs with a seeded random permutation of distinct scores."""
    ids = [f"d{j:03d}" for j in range(n)]
    values = [(j + 1) / n for j in range(n)]
    Random(seed).shuffle(values)
    return ids, dict(zip(ids, values))


def score_oracle(scores: dict[str, float]) -> ScoreOracle:
    return ScoreOracle(scores)


def true_topk(ids: list[str], scores: dict[str, float], k: int) -> list[str]:
    """Brute-force expected ranking: score descending, ties by id ascending."""
    return sorted(ids, key=lambda d: (-scores[d], d))[: min(k, len(ids))]
