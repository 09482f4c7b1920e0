import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp_sort import InvalidConfig, ndcg_at_k
from prp_sort.metrics import RelevanceMap

grades_strategy = st.dictionaries(
    st.sampled_from([f"d{i}" for i in range(12)]), st.integers(0, 4), max_size=12
)


def relevance(qid: str, grades: dict[str, int]) -> RelevanceMap:
    return RelevanceMap(by_query={qid: grades})


class TestNdcg:
    def test_perfect_ranking_scores_one(self):
        grades = relevance("q", {"d1": 3, "d2": 2, "d3": 1, "d4": 0})
        assert ndcg_at_k(["d1", "d2", "d3", "d4"], grades, "q", 4) == pytest.approx(1.0)

    def test_all_irrelevant_retrieval_scores_zero(self):
        grades = relevance("q", {"dA": 3, "dB": 1})
        assert ndcg_at_k(["d1", "d2", "d3"], grades, "q", 3) == 0.0

    def test_no_judged_relevant_docs_scores_zero(self):
        grades = relevance("q", {"d1": 0, "d2": 0})
        assert ndcg_at_k(["d1", "d2"], grades, "q", 2) == 0.0

    def test_hand_computed_three_document_case(self):
        # grades {d1:3, d2:1, d3:0}, ranking [d2, d1, d3], k=3:
        # DCG  = (2^1-1)/log2(2) + (2^3-1)/log2(3) + 0
        # IDCG = (2^3-1)/log2(2) + (2^1-1)/log2(3)
        grades = relevance("q", {"d1": 3, "d2": 1, "d3": 0})
        expected = (1.0 + 7.0 / math.log2(3)) / (7.0 + 1.0 / math.log2(3))
        got = ndcg_at_k(["d2", "d1", "d3"], grades, "q", 3)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_missing_grades_default_to_zero(self):
        grades = relevance("q", {"d1": 2})
        with_unjudged = ndcg_at_k(["d1", "dZ"], grades, "q", 2)
        assert with_unjudged == pytest.approx(1.0)

    def test_idcg_pools_all_judged_documents(self):
        # A relevant judged doc missing from the ranking caps NDCG below 1.
        grades = relevance("q", {"d1": 3, "dMissing": 3})
        got = ndcg_at_k(["d1"], grades, "q", 10)
        expected = 7.0 / (7.0 + 7.0 / math.log2(3))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_k_validated(self):
        with pytest.raises(InvalidConfig):
            ndcg_at_k(["d1"], relevance("q", {}), "q", 0)

    @given(grades_strategy, st.permutations([f"d{i}" for i in range(12)]), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_bounded_between_zero_and_one(self, grades, ranking, k):
        value = ndcg_at_k(ranking, relevance("q", grades), "q", k)
        assert 0.0 <= value <= 1.0 + 1e-12

    @given(grades_strategy, st.permutations([f"d{i}" for i in range(12)]), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_depends_only_on_first_k_positions(self, grades, ranking, k):
        head, tail = ranking[:k], ranking[k:]
        shuffled_tail = list(tail)
        Random(0).shuffle(shuffled_tail)
        grades_map = relevance("q", grades)
        assert ndcg_at_k(head + tail, grades_map, "q", k) == ndcg_at_k(
            head + shuffled_tail, grades_map, "q", k
        )

