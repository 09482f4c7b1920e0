"""What ``benchmark/`` reads of the package still resolves.

The benchmark hooks functions by name, reads some of their arguments by
position and reads report rows by attribute. A rename in ``src/`` that it
does not follow makes a traced run read 0, or a benchmark run exit 1. The
benchmark's tables are read from its source, not imported, so this test
sees them as they are written.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

from prp_sort import config_from_dict, run_experiment
from prp_sort.algorithms import batch_partition
from prp_sort.oracles import BatchExecutor, llm_compare_batch

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"
WORKLOADS = ROOT / "benchmark" / "workloads.py"

# Hook targets the package no longer has. The traced run skips them and
# their figures read 0, until the benchmark's tracer is mended and this set
# is emptied with it.
MISSING = {"prp_sort.model.canonical_pair", "prp_sort.oracles.MemoizedOracle.compare"}

# The function each argument the tracer's hooks read by position belongs to.
POSITIONAL = {
    "group": BatchExecutor.submit_group,
    "lo": batch_partition,
    "hi": batch_partition,
    "prompts": llm_compare_batch,
}

# The report row attributes workloads.py reads besides its CELL_FIELDS.
ROW_ATTRIBUTES = ("algorithm", "query_id", "batch_size", "cached")


def _literal(path: Path, name: str):
    """The value of the module-level literal ``name`` in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _resolves(module_name: str, *names: str) -> bool:
    """Whether the tracer finds ``names`` in the module, as it looks them up:
    a method only in its class's own namespace."""
    owner = importlib.import_module(module_name)
    for name in names:
        owner = vars(owner).get(name)
        if owner is None:
            return False
    return True


def test_every_hook_target_resolves_but_the_two_known_missing():
    targets = [(module, attr) for _, module, attr in _literal(TRACING, "FUNCTIONS")]
    targets += [(module, cls, method) for _, module, cls, method in _literal(TRACING, "METHODS")]
    ours = [target for target in targets if target[0].split(".")[0] == "prp_sort"]
    missing = {".".join(target) for target in ours if not _resolves(*target)}
    assert missing == MISSING


def test_arguments_the_hooks_read_by_position_are_there():
    reads = {
        (node.args[3].value, node.args[2].value)
        for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg"
    }
    assert reads == {("group", 2), ("lo", 1), ("hi", 2), ("prompts", 1)}
    for name, position in reads:
        assert list(inspect.signature(POSITIONAL[name]).parameters)[position] == name


def test_row_and_aggregate_attributes_the_workloads_read_resolve():
    raw = json.loads((ROOT / "configs" / "cost_model.json").read_text(encoding="utf-8"))
    raw["dataset"]["synthetic"]["queries"] = 2
    report = run_experiment(config_from_dict(raw))
    assert len(report.rows) == 2 * len(raw["algorithms"])
    for row in report.rows:
        for name in _literal(WORKLOADS, "CELL_FIELDS") + ROW_ATTRIBUTES:
            getattr(row, name)
    golden = json.loads((ROOT / "tests" / "golden" / "cost_model.json").read_text(encoding="utf-8"))
    keys = {key for expected in golden["aggregates"].values() for key in expected}
    assert {agg.algorithm for agg in report.aggregates} == set(golden["aggregates"])
    for agg in report.aggregates:
        for key in keys:
            getattr(agg, key)
