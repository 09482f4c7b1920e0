"""The mutant table (tests/mutants.py) still aims at the code: every row's
``old`` snippet occurs exactly once in its file, and every test a row names
is one that pytest collects. ``scripts/mutants.py`` runs the mutants
themselves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prp_sort"


def test_rows_are_distinct_and_name_tests():
    assert len({row.name for row in MUTANTS}) == len(MUTANTS)
    for row in MUTANTS:
        assert row.old != row.new and row.tests, row.name


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_old_snippet_occurs_once(row):
    assert (SRC / row.file).read_text(encoding="utf-8").count(row.old) == 1


def test_every_named_test_is_collected():
    # A test id matches a collected test that it names, or one of that
    # test's parametrizations or methods, as in scripts/mutants.py.
    named = sorted({test for row in MUTANTS for test in row.tests})
    files = sorted({test.split("::")[0] for test in named})
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
        + files,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    collected = result.stdout.splitlines()
    missing = [
        test
        for test in named
        if not any(c == test or c.startswith((test + "[", test + "::")) for c in collected)
    ]
    assert missing == []
