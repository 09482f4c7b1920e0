"""The public API: ``prp_sort.__all__`` holds what callers outside the
package use, and every such use resolves."""

import ast
import re
from pathlib import Path

import prp_sort

ROOT = Path(__file__).resolve().parents[1]
# benchmark/micro.py still builds the deleted MemoizedOracle and reports the
# figure as 0; mending it is a change to the benchmark.
STALE = {"MemoizedOracle"}


def _used_names(source: str) -> set[str]:
    """Every ``prp_sort.<name>`` and ``from prp_sort import <name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "prp_sort":
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "prp_sort":
            names.update(alias.name for alias in node.names)
    return names


def _outside_uses() -> set[str]:
    sources = [p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("scripts/*.py"))]
    sources += [p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("benchmark/*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    names = set()
    for source in sources:
        names |= _used_names(source)
    return {name for name in names if not name.startswith("__")}


def test_every_exported_name_resolves():
    assert len(set(prp_sort.__all__)) == len(prp_sort.__all__)
    for name in prp_sort.__all__:
        assert getattr(prp_sort, name, None) is not None, name


def test_every_outside_use_is_exported():
    used = _outside_uses()
    assert "run_experiment" in used and "select_pivot" in used  # the scan sees both forms
    assert used - STALE <= set(prp_sort.__all__), sorted(used - STALE - set(prp_sort.__all__))
