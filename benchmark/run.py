"""Benchmark of prp-sort: the reference cost-model sweep and two LLM sweeps.

    python3 benchmark/run.py --workload sweep-score --seed 1729 --seconds 30 --trace 0

Run from the root of a prp-sort checkout; the program is imported from its
``src``. Workloads (closed loop: one client process runs the harness's own
serial sweep back to back until the next sweep would end past ``--seconds``):

* ``sweep-score``: configs/cost_model.json at seed ``--seed``; CPU only. The
  full sweep runs once, untimed, for its counts and checks; the timed sweeps
  run its first 10 queries, and their time is in reference seconds
  (calibrate.py).
* ``llm-sequential``: generated TREC files, n=50, k=10; heapsort and cached
  bubblesort with the llm oracle against the stub backend (benchmark/stub.py,
  its own process): many one-prompt calls in sequence.
* ``llm-batched``: generated TREC files, n=100, k=10; four quicksort
  variants at B=8..128 against the stub: few, wide calls.
* ``all``: every workload above, each in a fresh process.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics of a separate traced sweep, the tracing overhead against
the untraced sweeps of the same run, and fixed-input layer microbenchmarks.
Every metric is printed by name with its unit; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import stub

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep-score", "llm-sequential", "llm-batched")

# Stub latency model: a fixed cost per call plus a cost per prompt.
STUB_FIXED_MS = 2.0
STUB_PER_PROMPT_MS = 0.02
# One 1-prompt call to a zero-latency stub costs ~2 ms here; the limit sits
# well below the ~40 ms a reply split across writes costs with delayed ACK.
SELF_CHECK_LIMIT_MS = 10.0
# Set-up probes, spread evenly over the run.
SETUP_PROBES = 11
PROCESS_TIMEOUT_S = 170


def import_program():
    """Import prp_sort from this checkout's src, and nowhere else."""
    package = SRC / "prp_sort"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no program at {package}; run from a prp-sort checkout")
    for required in (ROOT / "configs" / "cost_model.json", ROOT / "tests" / "golden"):
        if not required.exists():
            sys.exit(f"error: {required} is missing from this checkout")
    sys.path.insert(0, str(SRC))
    import prp_sort

    if Path(prp_sort.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: prp_sort was imported from {prp_sort.__file__}, not {package}")


class StubProcess:
    """The stub backend in its own process, stopped and awaited on exit."""

    def __init__(self, fixed_ms: float, per_prompt_ms: float):
        self.args = [
            sys.executable,
            str(BENCH / "stub.py"),
            "--fixed-ms",
            str(fixed_ms),
            "--per-prompt-ms",
            str(per_prompt_ms),
        ]

    def __enter__(self):
        self.proc = subprocess.Popen(
            self.args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"stub backend did not start: {line!r}")
        except BaseException:
            self.__exit__()
            raise
        return stub.StubClient(int(line.split()[1]))

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_probe(config_path: Path) -> float:
    """Set-up of one fresh process (see setup_probe.py), in reference seconds."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(config_path)]
    out = subprocess.run(
        probe, capture_output=True, text=True, check=True, timeout=PROCESS_TIMEOUT_S
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["setup_s"] * calibrate.REFERENCE_S / result["reference_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import micro
    import tracing
    import workloads

    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    correct = True

    def check(sweep, repeat=True):
        nonlocal attempted, failed
        attempted += len(sweep.rows)
        failed += len(workload.failed_cells(sweep))
        if repeat and sweep.counts() != sweeps[0].counts():
            failed += len(sweep.rows)  # a repeat must reproduce every cell and count

    with contextlib.ExitStack() as stack:
        zero_stub = stack.enter_context(StubProcess(0.0, 0.0))
        self_check_ms = statistics.median(micro.round_trip_ms(zero_stub.url, 1, 30))
        if self_check_ms > SELF_CHECK_LIMIT_MS:
            print(f"check failed: stub round trip {self_check_ms:.2f} ms", file=sys.stderr)
            correct = False
        main_stub = None
        if name != "sweep-score":
            main_stub = stack.enter_context(StubProcess(STUB_FIXED_MS, STUB_PER_PROMPT_MS))
        workload = workloads.make(name, seed, work, main_stub)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.raw), encoding="utf-8")
        setups = []
        if not trace:
            setup_probe(config_path)  # warm-up: byte-compiled files, page cache

        # Timed sweeps run back to back, in whole blocks, until the next block
        # would end past the window; the reference task runs before each
        # sweep. Set-up probes are spread evenly over the window, so that both
        # figures sample the host over the same stretch of time.
        sweeps = []
        blocks = []  # (seconds of a block's sweeps, seconds of its reference tasks)
        block = workload.block
        started = time.perf_counter()
        elapsed = 0.0
        while not blocks or elapsed + blocks[-1][0] <= seconds:
            if not trace and len(setups) < SETUP_PROBES * elapsed / seconds:
                setups.append(setup_probe(config_path))
            spent = reference = 0.0
            for _ in range(block):
                reference += calibrate.reference_seconds()
                sweeps.append(workload.sweep())
                spent += sweeps[-1].seconds
            blocks.append((spent, reference))
            elapsed = time.perf_counter() - started
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(setup_probe(config_path))
        if workload.full is not None:
            check(workload.full, repeat=False)
        for sweep in sweeps:
            check(sweep)
        if isinstance(workload, workloads.LlmSweep) and not workload.negative_self_test(sweeps[0]):
            print("check failed: a judge with one extra flipped pair passed", file=sys.stderr)
            correct = False
        # Seconds per timed sweep, the median over blocks; reference seconds
        # on a CPU-bound workload.
        if workload.cpu_bound:
            sweep_s = statistics.median(s * calibrate.REFERENCE_S / r for s, r in blocks)
        else:
            sweep_s = statistics.median(s / block for s, _ in blocks)
        if trace:
            traced, tracer = tracing.traced_sweep(workload, work)
            check(traced)
            untraced_s = statistics.median(s.seconds for s in sweeps)
            metrics = tracing.layer_metrics(traced, tracer, untraced_s)
            metrics.update(micro.layer_microbenchmarks(zero_stub.url, work))
        else:
            counted = workload.full or sweeps[0]
            totals = counted.totals()
            calls, judged = totals["inference_calls"], totals["comparisons"] - totals["cache_hits"]
            if counted.stub is not None:
                calls, judged = counted.stub["requests"], counted.stub["prompts"]
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "cells_per_s": (len(sweeps[0].rows) / sweep_s, "1/s"),
                "inference_calls": (calls, "count"),
                "judged_pairs": (judged, "count"),
                "batch_groups": (totals["batch_groups"], "count"),
                "comparisons": (totals["comparisons"], "count"),
                "ndcg_at_10": (totals["ndcg_mean"], "ratio"),
                "ok_share": ((attempted - failed) / attempted, "ratio"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
    times = sorted(s.seconds for s in sweeps)
    reference = sorted(r / block for _, r in blocks)
    print(
        f"{name}: {len(sweeps)} timed sweeps in blocks of {block}, seconds: "
        f"min {times[0]:.3f}, median {statistics.median(times):.3f}, max {times[-1]:.3f}; "
        f"reference task min {reference[0]:.4f}, max {reference[-1]:.4f} "
        f"(nominal {calibrate.REFERENCE_S}); figure {sweep_s:.3f}",
        file=sys.stderr,
    )
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process; metrics named <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"error: workload {name} printed no result (exit {out.returncode})")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        import_program()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{metric:48s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
