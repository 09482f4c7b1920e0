"""Command line interface: prp-sort run | version."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .algorithms import Algorithm, PivotStrategy
from .errors import InvalidConfig, RankingError
from .experiment import (
    ExperimentReport,
    config_from_dict,
    emit_report,
    read_config_json,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prp-sort",
        description="Top-k pairwise ranking under an inference-call cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    run.add_argument("--config", required=True, help="path to the experiment config (JSON)")
    run.add_argument(
        "--algo",
        choices=[a.value for a in Algorithm],
        help="replace the config's algorithm matrix with this single algorithm",
    )
    run.add_argument("--batch-size", type=int, help="batch size for --algo quicksort")
    run.add_argument(
        "--pivot",
        choices=[p.value for p in PivotStrategy],
        help="pivot strategy for --algo quicksort",
    )
    run.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="enable the memo cache for --algo bubblesort",
    )
    run.add_argument(
        "--partial",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="prune quicksort segments outside the top-k range (default on)",
    )
    run.add_argument("--k", type=int, help="top-k cutoff and NDCG cutoff override")
    run.add_argument("--seed", type=int, help="master seed override")
    run.add_argument("--format", choices=["csv", "jsonl"], help="output format override")
    run.add_argument("--out", help="output path override ('-' for stdout)")
    run.set_defaults(func=_cmd_run)

    version = sub.add_parser("version", help="print the package version")
    version.set_defaults(func=_cmd_version)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    raw = read_config_json(args.config)
    overrides = {
        "batch_size": args.batch_size,
        "pivot": args.pivot,
        "use_cache": args.cache,
        "partial": args.partial,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.algo is not None:
        raw["algorithms"] = [{"algorithm": args.algo, **overrides}]
    elif overrides:
        raise InvalidConfig("--batch-size, --pivot, --cache and --partial need --algo")
    if args.k is not None:
        raw["k"] = args.k
    config = config_from_dict(raw)
    settings = {"master_seed": args.seed, "out_format": args.format, "out_path": args.out}
    config = replace(config, **{key: value for key, value in settings.items() if value is not None})
    report = run_experiment(config)
    emit_report(report, config.out_format, config.out_path)
    if config.out_path not in (None, "-"):
        print(f"wrote {config.out_format} report to {config.out_path}")
        _print_summary(report)
    return 0


def _print_summary(report: ExperimentReport) -> None:
    header = f"{'algorithm':38s} {'n':>4s} {'comparisons':>16s} {'inferences':>16s} {'ndcg':>7s} {'gain%':>7s}"
    print(header)
    print("-" * len(header))
    for agg in report.aggregates:
        if agg.n_queries == 0:
            print(f"{agg.algorithm:38s} {0:4d}  (all {agg.failures} queries failed)")
            continue
        comp = f"{agg.mean_comparisons:8.1f}±{agg.sd_comparisons:6.1f}"
        inf = f"{agg.mean_inference_calls:8.1f}±{agg.sd_inference_calls:6.1f}"
        ndcg = f"{agg.mean_ndcg:.4f}"
        gain = f"{agg.gain_pct:6.1f}" if agg.gain_pct is not None else "     -"
        print(f"{agg.algorithm:38s} {agg.n_queries:4d} {comp:>16s} {inf:>16s} {ndcg:>7s} {gain:>7s}")


def _cmd_version(_args: argparse.Namespace) -> int:
    from . import __version__

    print(__version__)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
