"""The public API: ``prp_sort.__all__`` holds what callers outside the
package use, and every such use resolves."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import prp_sort
from prp_sort import experiment

ROOT = Path(__file__).resolve().parents[1]
# benchmark/micro.py still uses these two deleted names and reports their
# figures as 0; mending it is a change to the benchmark.
STALE = {"MemoizedOracle", "canonical_pair"}
# Exported though nothing outside the package names them: heapsort (its two
# siblings appear in the README example), the ledger the sorters return and
# the errors a caller may catch.
API_WITHOUT_OUTSIDE_USE = {
    "heapsort_topk",
    "CostLedger",
    "BackendFailure",
    "InvalidConfig",
    "ParseFallbackWarning",
    "RankingError",
}


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
    paths = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("benchmark/*.py"))
    paths.append(ROOT / "tests" / "goldens.py")  # the module the golden scripts import
    sources = [p.read_text(encoding="utf-8") for p in paths]
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


def test_every_export_is_used_or_listed():
    """An export nothing outside the package uses is dropped from ``__all__``
    (it stays importable from its submodule) or named above."""
    used = _outside_uses()
    unused = set(prp_sort.__all__) - used - API_WITHOUT_OUTSIDE_USE
    assert not unused, sorted(unused)
    assert API_WITHOUT_OUTSIDE_USE <= set(prp_sort.__all__)
    assert not API_WITHOUT_OUTSIDE_USE & used, sorted(API_WITHOUT_OUTSIDE_USE & used)


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds by ``def``, ``class`` or
    assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _read_names(node: ast.AST) -> set[str]:
    """Every name a piece of code reads, imports or looks up as an attribute."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def test_every_private_module_name_is_used():
    """A module-level ``_name`` that nothing else in the package reads is
    dead: a deletion left it behind."""
    statements = []
    for path in sorted((ROOT / "src" / "prp_sort").glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(path.name, statement) for statement in module.body]
    reads = [_read_names(statement) for _, statement in statements]
    dead = []
    for at, (module, statement) in enumerate(statements):
        for name in _defined_names(statement):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names for other, names in enumerate(reads) if other != at):
                dead.append(f"{module}:{name}")
    assert not dead, dead


def test_readme_example_runs_and_gives_its_stated_ranking():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    stated = '# ranking == ["d2", "d3"]'
    assert stated in block
    for code in (block.split(stated)[0], block):
        namespace: dict = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert namespace["ranking"] == ["d2", "d3"]


def test_readme_report_schema_lists_the_report_columns_in_order():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    schema = readme.split("### Report schema", 1)[1]
    block = re.search(r"```\n(.*?)```", schema, flags=re.DOTALL)[1]
    assert [name.strip() for name in block.split(",")] == experiment.REPORT_COLUMNS


# Not loaded by the import: the HTTP modules load when a connection opens,
# and nothing looks the version up, since it is a literal in the package.
NOT_LOADED_BY_IMPORT = [
    "importlib.metadata",
    "concurrent.futures",
    "http.client",
    "email.parser",
    "ssl",
    "urllib.request",
    "socket",
    "select",
    "statistics",
    "csv",
]


def test_package_needs_no_third_party_http_client(server):
    """With ``requests`` unimportable, the package imports and makes a call.
    The import loads none of ``NOT_LOADED_BY_IMPORT``."""
    code = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "import prp_sort\n"
        f"loaded = [name for name in {NOT_LOADED_BY_IMPORT!r} if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        f"endpoint = prp_sort.LlmEndpoint(url={server.url!r}, retries=0, timeout_s=5.0)\n"
        "assert prp_sort.llm_compare_batch(endpoint, ['p1']) == [prp_sort.Preference.FIRST]\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert len(server.requests) == 1
