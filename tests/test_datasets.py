from random import Random

import pytest

from prp_sort import (
    InvalidConfig,
    generate_synthetic,
    load_id_text_tsv,
    load_qrels,
    load_run_file,
)
from prp_sort.datasets import Dataset, Query
from prp_sort.errors import FormatError
from prp_sort.model import Candidate
from prp_sort.seeding import stable_seed


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRunFileLoader:
    def test_two_line_parse(self, tmp_path):
        path = write(tmp_path, "run.txt", "q1 Q0 dA 1 12.3 bm25\nq1 Q0 dB 2 11.0 bm25\n")
        queries = load_run_file(path)
        assert len(queries) == 1
        assert queries[0].qid == "q1"
        assert [c.doc for c in queries[0].candidates] == ["dA", "dB"]

    def test_candidates_ordered_by_rank_not_file_order(self, tmp_path):
        path = write(tmp_path, "run.txt", "q1 Q0 dB 2 11.0 t\nq1 Q0 dA 1 12.0 t\n")
        queries = load_run_file(path)
        assert [c.doc for c in queries[0].candidates] == ["dA", "dB"]

    def test_duplicate_candidate_is_rejected_with_line_number(self, tmp_path):
        path = write(
            tmp_path, "run.txt", "q1 Q0 dA 1 2.0 t\nq1 Q0 dB 2 1.5 t\nq1 Q0 dA 3 1.0 t\n"
        )
        with pytest.raises(FormatError, match="duplicate") as excinfo:
            load_run_file(path)
        assert excinfo.value.line == 3
        assert "dA" in str(excinfo.value)

    def test_five_column_line_is_rejected(self, tmp_path):
        path = write(tmp_path, "run.txt", "q1 Q0 dA 1 2.0\n")
        with pytest.raises(FormatError, match="6 columns") as excinfo:
            load_run_file(path)
        assert excinfo.value.line == 1

    def test_bad_rank_and_score_are_rejected(self, tmp_path):
        path = write(tmp_path, "run.txt", "q1 Q0 dA one 2.0 t\n")
        with pytest.raises(FormatError, match="rank"):
            load_run_file(path)
        path = write(tmp_path, "run2.txt", "q1 Q0 dA 1 high t\n")
        with pytest.raises(FormatError, match="score"):
            load_run_file(path)

    def test_marker_column_is_checked(self, tmp_path):
        path = write(tmp_path, "run.txt", "q1 XX dA 1 2.0 t\n")
        with pytest.raises(FormatError, match="Q0"):
            load_run_file(path)

    def test_depth_truncation(self, tmp_path):
        lines = "".join(f"q1 Q0 d{i:03d} {i + 1} {100 - i}.0 t\n" for i in range(150))
        path = write(tmp_path, "run.txt", lines)
        queries = load_run_file(path)
        assert len(queries[0].candidates) == 100  # default depth
        queries = load_run_file(path, depth=7)
        assert len(queries[0].candidates) == 7
        with pytest.raises(InvalidConfig, match="depth"):
            load_run_file(path, depth=0)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "run.txt", "\nq1 Q0 dA 1 2.0 t\n\n")
        assert len(load_run_file(path)) == 1

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_run_file(str(tmp_path / "absent.txt"))


class TestQrelsLoader:
    def test_single_line_parse(self, tmp_path):
        path = write(tmp_path, "qrels.txt", "q1 0 dA 2\n")
        assert load_qrels(path) == {"q1": {"dA": 2}}

    def test_negative_grade_clamps_with_warning(self, tmp_path):
        path = write(tmp_path, "qrels.txt", "q1 0 dA -1\n")
        with pytest.warns(UserWarning, match="clamped"):
            grades = load_qrels(path)
        assert grades == {"q1": {"dA": 0}}

    def test_missing_lookup_defaults_to_zero(self, tmp_path):
        path = write(tmp_path, "qrels.txt", "q1 0 dA 2\n")
        assert load_qrels(path) == {"q1": {"dA": 2}}

    def test_wrong_column_count_rejected(self, tmp_path):
        path = write(tmp_path, "qrels.txt", "q1 0 dA\n")
        with pytest.raises(FormatError) as excinfo:
            load_qrels(path)
        assert excinfo.value.line == 1

    def test_non_integer_grade_rejected(self, tmp_path):
        path = write(tmp_path, "qrels.txt", "q1 0 dA high\n")
        with pytest.raises(FormatError, match="grade"):
            load_qrels(path)


class TestIdTextTsv:
    def test_parse(self, tmp_path):
        path = write(tmp_path, "texts.tsv", "d1\thello world\nd2\ttabs\tstay\n")
        texts = load_id_text_tsv(path)
        assert texts == {"d1": "hello world", "d2": "tabs\tstay"}

    def test_missing_tab_rejected(self, tmp_path):
        path = write(tmp_path, "texts.tsv", "d1 no tab here\n")
        with pytest.raises(FormatError):
            load_id_text_tsv(path)


def reference_synthetic(num_queries, n, master_seed):
    """The generator as it was written first: one loop per query that builds
    its own candidates and looks up each position's grade in the cutoffs."""
    qwidth = max(4, len(str(num_queries)))
    dwidth = max(4, len(str(n)))
    docs = [f"d{j:0{dwidth}d}" for j in range(n)]
    values = [(j + 1) / n for j in range(n)]
    cutoffs = [((n * pct) // 100, grade) for pct, grade in ((10, 3), (30, 2), (60, 1))]
    queries = []
    grades = {}
    truth = {}
    for qi in range(1, num_queries + 1):
        qid = f"q{qi:0{qwidth}d}"
        shuffled = list(values)
        Random(stable_seed("synth", master_seed, qid)).shuffle(shuffled)
        scores = dict(zip(docs, shuffled))
        truth[qid] = scores
        by_rank = sorted(docs, key=lambda d: -scores[d])
        query_grades = {}
        for position, doc in enumerate(by_rank):
            grade = 0
            for cutoff, value in cutoffs:
                if position < cutoff:
                    grade = value
                    break
            query_grades[doc] = grade
        grades[qid] = query_grades
        queries.append(Query(qid=qid, text=None, candidates=[Candidate(doc=d) for d in docs]))
    return Dataset(queries=queries, grades=grades, ground_truth_scores=truth)


class TestSyntheticGenerator:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 33, 100])
    def test_equals_the_reference_generator(self, n):
        for seed in (1, 7, 1729):
            got = generate_synthetic(4, n, seed)
            want = reference_synthetic(4, n, seed)
            assert [(q.qid, q.text, q.candidates) for q in got.queries] == [
                (q.qid, q.text, q.candidates) for q in want.queries
            ]
            # Key order too: reports and sorters read these dicts in order.
            for field in ("grades", "ground_truth_scores"):
                mine, theirs = getattr(got, field), getattr(want, field)
                assert list(mine) == list(theirs)
                assert [list(m.items()) for m in mine.values()] == [
                    list(t.items()) for t in theirs.values()
                ]
            # The queries share candidates, never a candidate list.
            assert len({id(q.candidates) for q in got.queries}) == len(got.queries)

    def test_deterministic_for_fixed_seed(self):
        a = generate_synthetic(2, 5, master_seed=7)
        b = generate_synthetic(2, 5, master_seed=7)
        assert a.ground_truth_scores == b.ground_truth_scores
        assert a.grades == b.grades
        assert [q.qid for q in a.queries] == [q.qid for q in b.queries]

    def test_scores_are_the_equally_spaced_multiset(self):
        dataset = generate_synthetic(1, 100, master_seed=3)
        scores = dataset.ground_truth_scores["q0001"]
        assert sorted(scores.values()) == [(j + 1) / 100 for j in range(100)]
        assert len(set(scores.values())) == 100

    def test_grade_quantiles_for_hundred_docs(self):
        dataset = generate_synthetic(1, 100, master_seed=3)
        grades = list(dataset.grades["q0001"].values())
        assert grades.count(3) == 10
        assert grades.count(2) == 20
        assert grades.count(1) == 30
        assert grades.count(0) == 40

    def test_grades_follow_scores(self):
        dataset = generate_synthetic(1, 10, master_seed=11)
        scores = dataset.ground_truth_scores["q0001"]
        grades = dataset.grades["q0001"]
        ranked = sorted(scores, key=lambda d: -scores[d])
        grade_sequence = [grades[d] for d in ranked]
        assert grade_sequence == sorted(grade_sequence, reverse=True)

    def test_adding_queries_keeps_existing_ones(self):
        small = generate_synthetic(2, 8, master_seed=5)
        large = generate_synthetic(4, 8, master_seed=5)
        for qid in ("q0001", "q0002"):
            assert small.ground_truth_scores[qid] == large.ground_truth_scores[qid]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_synthetic(0, 5, master_seed=1)
        with pytest.raises(InvalidConfig):
            generate_synthetic(5, 0, master_seed=1)
