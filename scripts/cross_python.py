#!/usr/bin/env python3
"""Check that other Python interpreters write the same reports as this one.

    python3 scripts/cross_python.py /path/to/python3.10 /path/to/python3.13

Runs every config under configs/ whose oracle is ``score`` or ``noisy`` with
this checkout's src, once under the running interpreter and once under each
interpreter named on the command line, and writes each sweep's report as CSV
and as JSON lines. Every report must be byte-identical to the running
interpreter's. ``--queries N`` runs only the first N synthetic queries of
each config. Prints one line per interpreter and report, and exits 1 if any
report differs or any run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("csv", "jsonl")

# Run in each interpreter: argv is the output directory, the query count (0
# for the config's own) and the config paths; prints the interpreter's version.
CHILD = """
import platform
import sys
from dataclasses import replace
from pathlib import Path
from prp_sort import emit_report, load_config, run_experiment

out, queries = Path(sys.argv[1]), int(sys.argv[2])
for path in sys.argv[3:]:
    config = load_config(path)
    if queries:
        config = replace(config, dataset=replace(config.dataset, num_queries=queries))
    report = run_experiment(config)
    for out_format in ("csv", "jsonl"):
        emit_report(report, out_format, str(out / f"{Path(path).stem}.{out_format}"))
print(platform.python_version())
"""


def configs() -> list[Path]:
    """The configs whose sweeps need no backend: the score and noisy ones."""
    found = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        kind = json.loads(path.read_text(encoding="utf-8")).get("oracle", {}).get("kind")
        if kind in (None, "score", "noisy"):
            found.append(path)
    return found


def reports(python: str, out: Path, queries: int, paths: list[Path]) -> str | None:
    """Write every report under ``python`` into ``out``; the interpreter's
    version, or None when the run failed (its error is printed)."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [python, "-c", CHILD, str(out), str(queries), *map(str, paths)]
    result = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if result.returncode:
        print(f"{python}: exit {result.returncode}\n{result.stderr[-2000:]}", file=sys.stderr)
        return None
    return result.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", help="interpreters to compare with this one")
    parser.add_argument("--queries", type=int, default=0, help="synthetic queries per config")
    args = parser.parse_args(argv)
    paths = configs()
    names = [f"{path.stem}.{out_format}" for path in paths for out_format in FORMATS]
    with tempfile.TemporaryDirectory(prefix="prp-sort-cross-python-") as tmp:
        base = Path(tmp) / "base"
        version = reports(sys.executable, base, args.queries, paths)
        if version is None:
            return 1
        for name in names:
            digest = hashlib.md5((base / name).read_bytes()).hexdigest()
            print(f"{version} (running)  {name}  md5 {digest}")
        differ = 0
        for index, python in enumerate(args.pythons):
            out = Path(tmp) / str(index)
            version = reports(python, out, args.queries, paths)
            if version is None:
                differ += 1
                continue
            for name in names:
                same = (out / name).read_bytes() == (base / name).read_bytes()
                differ += not same
                print(f"{version} ({python})  {name}  {'identical' if same else 'DIFFERS'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
