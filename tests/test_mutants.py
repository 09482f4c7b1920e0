"""The mutant table (tests/mutants.py) still aims at the code: every row's
``old`` snippet occurs exactly once in its file. ``scripts/mutants.py`` runs
the mutants themselves."""

from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "prp_sort"


def test_rows_are_distinct_and_name_tests():
    assert len({row.name for row in MUTANTS}) == len(MUTANTS)
    for row in MUTANTS:
        assert row.old != row.new and row.tests, row.name


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_old_snippet_occurs_once(row):
    assert (SRC / row.file).read_text(encoding="utf-8").count(row.old) == 1
