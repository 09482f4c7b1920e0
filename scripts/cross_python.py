#!/usr/bin/env python3
"""Check that other Python interpreters write the same reports as this one.

    python3 scripts/cross_python.py /path/to/python3.10 /path/to/python3.13

Runs tests/goldens.py with this checkout's src, once under the running
interpreter and once under each interpreter named on the command line: each
run prints the sha256 of the CSV and the JSON-lines report of every config
the goldens pin. Every report must hash as the running interpreter's does.
``--queries N`` runs only the first N synthetic queries of each config (0,
the default, runs each config's own). Prints one line per interpreter and
report, and exits 1 if any report differs or any run fails, an interpreter
that cannot be started included.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests(python: str, queries: int) -> dict | None:
    """The interpreter's version and report digests from tests/goldens.py,
    or None when the run failed (its error is printed)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [python, str(ROOT / "tests" / "goldens.py"), str(queries)]
    try:
        result = subprocess.run(cmd, env=env, capture_output=True, text=True)
    except OSError as exc:
        print(f"{python}: cannot start: {exc}", file=sys.stderr)
        return None
    if result.returncode:
        print(f"{python}: exit {result.returncode}\n{result.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", help="interpreters to compare with this one")
    parser.add_argument("--queries", type=int, default=0, help="synthetic queries per config")
    args = parser.parse_args(argv)
    base = digests(sys.executable, args.queries)
    if base is None:
        return 1
    reports = [
        (name, fmt, sha) for name, shas in base["sha256"].items() for fmt, sha in shas.items()
    ]
    for name, out_format, digest in reports:
        print(f"{base['python']} (running)  {name} {out_format}  sha256 {digest}")
    differ = 0
    for python in args.pythons:
        other = digests(python, args.queries)
        if other is None:
            differ += 1
            continue
        for name, out_format, digest in reports:
            same = other["sha256"][name][out_format] == digest
            differ += not same
            verdict = "identical" if same else "DIFFERS"
            print(f"{other['python']} ({python})  {name} {out_format}  {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
