"""Top-k pairwise ranking under an inference-call cost model.

The library ranks candidate lists with a comparison oracle (ground-truth
scores, seeded noise, or a pairwise-prompting LLM backend) using three
instrumented algorithms: heapsort, bubblesort (optionally with a caching
executor), and batched partial quicksort. Every run is accounted in
comparisons and inference calls, the cost unit that dominates LLM-based
reranking.
"""

from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("prp-sort")
except PackageNotFoundError:  # running from a source tree
    __version__ = "0.1.0"

from .algorithms import (
    Algorithm,
    AlgoConfig,
    PivotStrategy,
    batch_partition,
    bubblesort_topk,
    heapsort_topk,
    quicksort_topk,
    run_algorithm,
    select_pivot,
)
from .datasets import generate_synthetic, load_id_text_tsv, load_qrels, load_run_file
from .errors import BackendFailure, InvalidConfig, ParseFallbackWarning, RankingError
from .experiment import (
    ExperimentConfig,
    OracleSpec,
    SyntheticSpec,
    config_from_dict,
    emit_report,
    load_config,
    run_experiment,
)
from .metrics import ndcg_at_k, percent_gain
from .model import Candidate, CostLedger, Preference, canonical_pair
from .oracles import (
    BatchExecutor,
    ComparisonRequest,
    LlmEndpoint,
    NoisyOracle,
    Oracle,
    ScoreOracle,
    build_prp_prompt,
    llm_compare_batch,
    parse_preference_label,
)

# The names callers outside the package use: the scripts, the benchmark, the
# README example, the three sorters and the errors a caller may catch. Every
# other name is imported from its submodule.
__all__ = [
    "AlgoConfig",
    "Algorithm",
    "BackendFailure",
    "BatchExecutor",
    "Candidate",
    "ComparisonRequest",
    "CostLedger",
    "ExperimentConfig",
    "InvalidConfig",
    "LlmEndpoint",
    "NoisyOracle",
    "Oracle",
    "OracleSpec",
    "ParseFallbackWarning",
    "PivotStrategy",
    "Preference",
    "RankingError",
    "ScoreOracle",
    "SyntheticSpec",
    "batch_partition",
    "bubblesort_topk",
    "build_prp_prompt",
    "canonical_pair",
    "config_from_dict",
    "emit_report",
    "generate_synthetic",
    "heapsort_topk",
    "llm_compare_batch",
    "load_config",
    "load_id_text_tsv",
    "load_qrels",
    "load_run_file",
    "ndcg_at_k",
    "parse_preference_label",
    "percent_gain",
    "quicksort_topk",
    "run_algorithm",
    "run_experiment",
    "select_pivot",
]
