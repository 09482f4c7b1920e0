"""Shared vocabulary: items, pairwise outcomes and cost ledgers.

Everything here is a plain value type; nothing holds shared mutable state
beyond the ledger an executor fills during a single run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

DocId = str


class Preference(Enum):
    """Strict outcome of one pairwise comparison: which side of the ordered
    request pair is more relevant.

    Ties never reach this level; oracles break them upstream by
    lexicographic document id, so every comparison has exactly one winner.
    """

    FIRST = "first"
    SECOND = "second"

    def flipped(self) -> Preference:
        return _FLIPPED[self._value_]


# Keyed by value: a str hashes in C, an Enum member through Python code.
_FLIPPED = {"first": Preference.SECOND, "second": Preference.FIRST}


@dataclass(frozen=True, slots=True)
class Candidate:
    """One rankable item: document id plus optional passage text."""

    doc: DocId
    text: str | None = None


@dataclass(slots=True)
class CostLedger:
    """Per-run cost accounting.

    ``comparisons`` counts pairwise questions asked, ``inference_calls``
    counts backend invocations (one call may answer up to batch_size
    comparisons), ``cache_hits`` counts comparisons answered from memo, and
    ``batch_groups`` counts independent groups that reached the backend.
    """

    comparisons: int = 0
    inference_calls: int = 0
    cache_hits: int = 0
    batch_groups: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

