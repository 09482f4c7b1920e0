#!/usr/bin/env python3
"""Check that the suite catches every source mutant in tests/mutants.py.

    python3 scripts/mutants.py [NAME ...]

Copies the repository into a temporary directory and first runs every listed
test there unmutated: they must all pass, or a row could fail for a reason
of its own. Then, one row at a time, it writes the row's mutant into the
copy, runs only that row's tests, and restores the file. A row is caught
when each of its listed tests fails. Prints one line per row and exits 1 if
any row survived.

Given NAME arguments, it checks only the rows whose names contain one of
them, and runs unmutated only those rows' tests; with none, every row, which
is the full check.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

IGNORED = shutil.ignore_patterns(
    ".git", ".bench_work", ".benchmarks", ".hypothesis", ".pytest_cache", "__pycache__"
)


def failed_tests(copy: Path, tests: list[str]) -> set[str] | None:
    """Run ``tests`` in ``copy``; the ids of the tests that failed or errored,
    or None when pytest could not run them (for example, an unknown id)."""
    # No bytecode: a mutant and the original it replaces can share a size
    # and a modification second, and a cached .pyc would then be stale.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE"]
        + tests,
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )
    if result.returncode not in (0, 1):
        print(result.stdout[-2000:] + result.stderr[-2000:], file=sys.stderr)
        return None
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in result.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def covers(test: str, failed: set[str]) -> bool:
    """Whether ``test``, or one of its parametrizations or methods, failed."""
    return any(f == test or f.startswith((test + "[", test + "::")) for f in failed)


def main(names: list[str]) -> int:
    rows = [row for row in MUTANTS if not names or any(name in row.name for name in names)]
    if not rows:
        print(f"no row's name contains any of {names}")
        return 1
    with tempfile.TemporaryDirectory(prefix="prp-sort-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        listed = sorted({test for row in rows for test in row.tests})
        failed = failed_tests(copy, listed)
        if failed is None:
            print("unmutated copy: pytest could not run the listed tests")
            return 1
        if failed:
            print(f"unmutated copy: these listed tests fail: {sorted(failed)}")
            return 1
        print(f"unmutated copy: {len(listed)} listed tests pass")
        survived = 0
        for row in rows:
            path = copy / "src" / "prp_sort" / row.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(row.old, row.new), encoding="utf-8")
            started = time.perf_counter()
            try:
                failed = failed_tests(copy, list(row.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - started
            passed = [t for t in row.tests if failed is None or not covers(t, failed)]
            if passed:
                survived += 1
                print(f"SURVIVED  {row.name} ({seconds:.1f} s): these did not fail: {passed}")
            else:
                count = len(row.tests)
                print(f"caught    {row.name} ({seconds:.1f} s): {count}/{count} tests failed")
    print(f"{len(rows) - survived} of {len(rows)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
