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


# The per-question paths read these names, not ``Preference.FIRST``: on
# CPython 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, and that hook
# sends every read of a member through the slow attribute path, about ten
# times the cost of a module global. From 3.12 the two cost the same.
_FIRST = Preference.FIRST
_SECOND = Preference.SECOND

# Keyed by value: a str hashes in C, an Enum member through Python code.
_FLIPPED = {"first": _SECOND, "second": _FIRST}


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
        return {name: getattr(self, name) for name in _LEDGER_FIELDS}


# Read once: ``fields()`` rebuilds its tuple on every call, and a sweep
# calls ``as_dict`` once per cell.
_LEDGER_FIELDS = tuple(f.name for f in fields(CostLedger))

