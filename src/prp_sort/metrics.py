"""Ranking quality: graded relevance judgments and NDCG@k."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidConfig
from .model import DocId


@dataclass
class RelevanceMap:
    """Graded judgments keyed by query id then document id.

    Pairs that were never judged default to grade 0.
    """

    by_query: dict[str, dict[str, int]] = field(default_factory=dict)

    def grade(self, qid: str, doc: DocId) -> int:
        return self.by_query.get(qid, {}).get(doc, 0)

    def grades_for(self, qid: str) -> list[int]:
        """All judged grades for a query (the ideal-DCG pool)."""
        return list(self.by_query.get(qid, {}).values())


def ndcg_at_k(ranking: Sequence[DocId], grades: RelevanceMap, qid: str, k: int) -> float:
    """Exponential-gain NDCG at cutoff k.

    DCG sums (2^grade - 1) / log2(position + 1) over the first k returned
    documents (positions are 1-based). The ideal DCG pools every judged
    document for the query, not just the retrieved candidates, matching
    trec_eval semantics. Returns 0 when the query has no relevant judged
    documents.
    """
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    dcg = 0.0
    for i, doc in enumerate(ranking[:k]):
        grade = grades.grade(qid, doc)
        if grade:
            dcg += (2**grade - 1) / math.log2(i + 2)
    idcg = 0.0
    ideal = sorted(grades.grades_for(qid), reverse=True)
    for i, grade in enumerate(ideal[:k]):
        if grade:
            idcg += (2**grade - 1) / math.log2(i + 2)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg

