#!/usr/bin/env python3
"""Bubblesort cache savings as a function of comparator noise.

With a deterministic comparator over random permutations the adjacent-pair
repeat rate is low (~12%): every early pass still churns the list. Noisy
comparators stall swaps, leave the list near-static between passes, and push
the cached saving far higher. This sweep makes that relationship visible.
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
    OracleSpec,
    SyntheticSpec,
    run_experiment,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument(
        "--noise",
        type=float,
        nargs="*",
        default=[0.0, 0.05, 0.1, 0.2, 0.3],
        help="flip probabilities to sweep",
    )
    args = parser.parse_args()

    print(f"{args.queries} queries, n={args.n}, k={args.k}, seed={args.seed}")
    print(f"{'flip':>6s} {'classic calls':>16s} {'cached calls':>16s} {'saving':>8s}")
    classic_config = AlgoConfig(Algorithm.BUBBLESORT, k=args.k)
    cached_config = AlgoConfig(Algorithm.BUBBLESORT, k=args.k, use_cache=True)
    for flip in args.noise:
        oracle = (
            OracleSpec(kind="score")
            if flip == 0.0
            else OracleSpec(kind="noisy", flip_probability=flip)
        )
        config = ExperimentConfig(
            dataset=SyntheticSpec(num_queries=args.queries, n=args.n),
            algorithms=[classic_config, cached_config],
            oracle=oracle,
            k=args.k,
            master_seed=args.seed,
        )
        by_label = {a.algorithm: a for a in run_experiment(config).aggregates}
        classic = by_label[classic_config.label()]
        cached = by_label[cached_config.label()]
        print(
            f"{flip:6.2f} "
            f"{classic.mean_inference_calls:8.1f} ± {classic.sd_inference_calls:5.1f} "
            f"{cached.mean_inference_calls:8.1f} ± {cached.sd_inference_calls:5.1f} "
            f"{cached.gain_pct:7.1f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
