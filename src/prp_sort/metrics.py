"""Ranking quality: NDCG@k over graded relevance judgments."""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidConfig
from .model import DocId


def ndcg_at_k(
    ranking: Sequence[DocId], grades: dict[str, dict[DocId, int]], qid: str, k: int
) -> float:
    """Exponential-gain NDCG at cutoff k.

    ``grades`` maps query id to document id to grade; a document the query
    has no judgment for has grade 0. DCG sums (2^grade - 1) / log2(position
    + 1) over the first k returned documents (positions are 1-based). The
    ideal DCG pools every judged document for the query, not just the
    retrieved candidates, matching trec_eval semantics. Returns 0 when the
    query has no relevant judged documents.
    """
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    judged = grades.get(qid, {})
    dcg = 0.0
    for i, doc in enumerate(ranking[:k]):
        grade = judged.get(doc, 0)
        if grade:
            dcg += (2**grade - 1) / math.log2(i + 2)
    idcg = 0.0
    ideal = sorted(judged.values(), reverse=True)
    for i, grade in enumerate(ideal[:k]):
        if grade:
            idcg += (2**grade - 1) / math.log2(i + 2)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg
