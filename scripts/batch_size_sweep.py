#!/usr/bin/env python3
"""Mean/SD inference counts for quicksort vs heapsort across batch sizes.

Heapsort cannot batch, so its cost is flat; quicksort's partition groups
shrink by ceil(m/B) as B grows. The table reports, per batch size, the gain
of quicksort over heapsort and over its own unbatched (B=1) run.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from prp_sort import (  # noqa: E402
    AlgoConfig,
    Algorithm,
    ExperimentConfig,
    PivotStrategy,
    SyntheticSpec,
    percent_gain,
    run_experiment,
)

BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument(
        "--pivot",
        choices=[p.value for p in PivotStrategy],
        default=PivotStrategy.MEDIAN_OF_THREE.value,
    )
    args = parser.parse_args()

    heapsort = AlgoConfig(Algorithm.HEAPSORT, k=args.k)
    quicksorts = [
        AlgoConfig(
            Algorithm.QUICKSORT,
            k=args.k,
            batch_size=batch_size,
            pivot=PivotStrategy(args.pivot),
        )
        for batch_size in BATCH_SIZES
    ]
    config = ExperimentConfig(
        dataset=SyntheticSpec(num_queries=args.queries, n=args.n),
        algorithms=[heapsort, *quicksorts],
        k=args.k,
        master_seed=args.seed,
    )
    report = run_experiment(config)
    by_label = {a.algorithm: a for a in report.aggregates}
    heap = by_label[heapsort.label()]
    print(
        f"{args.queries} queries, n={args.n}, k={args.k}, pivot={args.pivot}, "
        f"seed={args.seed}"
    )
    print(f"heapsort: {heap.mean_inference_calls:.1f} ± {heap.sd_inference_calls:.1f} calls")
    print()
    print(f"{'B':>4s} {'inferences':>18s} {'vs heapsort':>12s} {'vs B=1':>10s}")
    unbatched = None
    for quicksort in quicksorts:
        agg = by_label[quicksort.label()]
        if unbatched is None:
            unbatched = agg.mean_inference_calls
        print(
            f"{quicksort.batch_size:4d} "
            f"{agg.mean_inference_calls:10.1f} ± {agg.sd_inference_calls:5.1f} "
            f"{agg.gain_pct:11.1f}% "
            f"{percent_gain(unbatched, agg.mean_inference_calls):9.1f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
