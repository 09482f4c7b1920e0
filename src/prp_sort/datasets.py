"""Dataset ingestion and generation.

Real candidates arrive as TREC run files (with qrels for judgments and
optional id-to-text TSVs for LLM use); synthetic datasets are generated with
seeded, strictly ordered ground-truth scores for desk-scale cost studies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .errors import FormatError, InvalidConfig
from .model import Candidate, DocId
from .seeding import stable_seed


@dataclass
class Query:
    """One query's candidate list, in first-stage order."""

    qid: str
    text: str | None
    candidates: list[Candidate]


@dataclass
class Dataset:
    """Queries plus judgments (query id -> doc id -> grade) and the
    ground-truth scores per query and doc."""

    queries: list[Query]
    grades: dict[str, dict[DocId, int]]
    ground_truth_scores: dict[str, dict[DocId, float]]


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without its newline) for each line of
    ``path`` that holds more than whitespace, less a leading byte-order mark;
    a line that is not UTF-8, read with a lone surrogate for each bad byte, is
    a FormatError."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise FormatError("not UTF-8 text", lineno) from None
            line = raw.rstrip("\n")
            if line.strip():
                yield lineno, line


def _columns(line: str, lineno: int, count: int) -> list[str]:
    """Split a line on whitespace into exactly ``count`` columns."""
    parts = line.split()
    if len(parts) != count:
        raise FormatError(f"expected {count} columns, found {len(parts)}", lineno)
    return parts


def load_run_file(path: str, depth: int = 100) -> list[Query]:
    """Parse a 6-column TREC run file into per-query candidate lists.

    Columns: qid Q0 docid rank score tag, whitespace separated. Candidates
    are ordered by ascending rank and truncated to ``depth`` per query; the
    score must parse as a number but is not kept. Duplicate (qid, docid)
    pairs and malformed lines raise FormatError with the offending 1-based
    line number; blank lines are skipped.
    """
    if depth < 1:
        raise InvalidConfig(f"depth must be >= 1, got {depth}")
    per_query: dict[str, list[tuple[int, Candidate]]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, line in _lines(path):
        qid, marker, doc, rank_text, score_text, _tag = _columns(line, lineno, 6)
        if marker != "Q0":
            raise FormatError(f"expected literal 'Q0', found {marker!r}", lineno)
        try:
            rank = int(rank_text)
        except ValueError:
            raise FormatError(f"rank {rank_text!r} is not an integer", lineno) from None
        try:
            float(score_text)
        except ValueError:
            raise FormatError(f"score {score_text!r} is not a number", lineno) from None
        if (qid, doc) in seen:
            raise FormatError(f"duplicate candidate {doc!r} for query {qid!r}", lineno)
        seen.add((qid, doc))
        per_query.setdefault(qid, []).append((rank, Candidate(doc)))
    queries = []
    for qid, ranked in per_query.items():
        ranked.sort(key=lambda entry: entry[0])
        queries.append(Query(qid=qid, text=None, candidates=[c for _, c in ranked[:depth]]))
    return queries


def load_qrels(path: str) -> dict[str, dict[DocId, int]]:
    """Parse 4-column TREC qrels (qid iteration docid grade) into
    query id -> doc id -> grade.

    Grades must be integers; negative grades are clamped to 0 with a
    warning. A repeated (qid, docid) line overwrites the earlier grade.
    """
    grades: dict[str, dict[DocId, int]] = {}
    for lineno, line in _lines(path):
        qid, _iteration, doc, grade_text = _columns(line, lineno, 4)
        try:
            grade = int(grade_text)
        except ValueError:
            raise FormatError(f"grade {grade_text!r} is not an integer", lineno) from None
        if grade < 0:
            warnings.warn(f"{path}:{lineno}: negative grade {grade} clamped to 0", stacklevel=2)
            grade = 0
        grades.setdefault(qid, {})[doc] = grade
    return grades


def load_id_text_tsv(path: str) -> dict[str, str]:
    """Parse an id<TAB>text map (used for query texts and passages); a
    repeated id keeps its last text."""
    return dict(_id_texts(path))


def _id_texts(path: str) -> Iterator[tuple[str, str]]:
    """Yield (id, text) for each line of an id<TAB>text file, in file order;
    a line without a tab is a FormatError."""
    for lineno, line in _lines(path):
        if "\t" not in line:
            raise FormatError("expected id<TAB>text", lineno)
        key, text = line.split("\t", 1)
        yield key, text


# Cumulative score-rank quantiles for synthetic graded relevance:
# top 10% grade 3, next 20% grade 2, next 30% grade 1, remainder 0.
_GRADE_CUTOFFS = ((10, 3), (30, 2), (60, 1))


def generate_synthetic(num_queries: int, n: int, master_seed: int) -> Dataset:
    """Build a seeded synthetic dataset of num_queries queries, n candidates each.

    Each query's ground-truth scores are a random permutation of the equally
    spaced values 1/n .. 1.0, so every pair is strictly ordered. Graded
    relevance follows score quantiles so NDCG is computable. The per-query
    seed depends only on (master_seed, qid); adding queries never perturbs
    existing ones. Every query holds the same n frozen candidates, each
    query in a list of its own.
    """
    if num_queries < 1 or n < 1:
        raise InvalidConfig("num_queries and n must both be >= 1")
    qwidth = max(4, len(str(num_queries)))
    dwidth = max(4, len(str(n)))
    docs = [f"d{j:0{dwidth}d}" for j in range(n)]
    values = [(j + 1) / n for j in range(n)]
    candidates = [Candidate(doc) for doc in docs]
    cutoffs = [((n * pct) // 100, grade) for pct, grade in _GRADE_CUTOFFS]
    # The grade of the document at each score rank, best first.
    grades_by_position = [
        next((grade for cutoff, grade in cutoffs if position < cutoff), 0)
        for position in range(n)
    ]
    queries = []
    grades: dict[str, dict[DocId, int]] = {}
    truth: dict[str, dict[DocId, float]] = {}
    for qi in range(1, num_queries + 1):
        qid = f"q{qi:0{qwidth}d}"
        # Shuffling the indices of the values permutes them as shuffling the
        # values would: the draws depend on the length alone. Document j
        # gets values[ranks[j]], so n - 1 - ranks[j] places it best first.
        ranks = list(range(n))
        Random(stable_seed("synth", master_seed, qid)).shuffle(ranks)
        truth[qid] = {doc: values[rank] for doc, rank in zip(docs, ranks)}
        by_rank = [""] * n
        for doc, rank in zip(docs, ranks):
            by_rank[n - 1 - rank] = doc
        grades[qid] = dict(zip(by_rank, grades_by_position))
        queries.append(Query(qid=qid, text=None, candidates=list(candidates)))
    return Dataset(queries=queries, grades=grades, ground_truth_scores=truth)
