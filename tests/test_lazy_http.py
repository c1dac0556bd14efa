"""The HTTP stack loads only when a run talks HTTP.

``claimgraph.retry`` is the one module that imports ``requests``, inside the
functions that need it; every other module names it only for type checking.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import claimgraph

REPO = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: the test process has long since loaded requests.
OFFLINE_THEN_HTTP = """
import shutil
import sys
from pathlib import Path

import claimgraph.cli
from claimgraph.fixtures import build_fixture_dataset
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, load_run_records, run_batch

root = Path(sys.argv[1])
records, _ = load_records(load_manifest(build_fixture_dataset(root / "data", 2, seed=7)))
run_batch(records, PipelineConfig(), root / "scripted")
shutil.copytree(root / "scripted" / "cache", root / "fixtures")
replay = PipelineConfig(provider={"type": "fixture", "path": str(root / "fixtures")})
run_batch(records, replay, root / "replay")
for run in ("scripted", "replay"):
    assert [r.succeeded for r in load_run_records(root / run)] == [True, True], run
assert "requests" not in sys.modules, "an offline batch loaded requests"

from claimgraph.adapters import HttpAdapterClient
from claimgraph.gateway import HttpProvider
from claimgraph.retrieval import RemoteEncoderClient

clients = [
    HttpProvider("http://127.0.0.1:9"),
    RemoteEncoderClient("http://127.0.0.1:9/embed", dimension=4),
    HttpAdapterClient("http://127.0.0.1:9/predict"),
]
import requests

assert all(isinstance(c.session, requests.Session) for c in clients)
print("ok")
"""


def test_an_offline_batch_never_loads_requests_and_http_clients_still_get_sessions(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", OFFLINE_THEN_HTTP, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _requests_imports(tree: ast.AST):
    """``(line, place)`` of each import of requests; place is where it sits:
    ``"type_checking"`` (under ``if TYPE_CHECKING:``), ``"function"`` or ``"module"``."""
    found = []

    def visit(node, place):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            names = []
        if any(name == "requests" or name.startswith("requests.") for name in names):
            found.append((node.lineno, place))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            place = "function"
        if isinstance(node, ast.If) and _is_type_checking(node) and place == "module":
            for child in node.body:
                visit(child, "type_checking")
            for child in node.orelse:
                visit(child, place)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, place)

    visit(tree, "module")
    return found


def test_only_retry_functions_import_requests_at_run_time():
    """Elsewhere ``requests`` is named only for type checking."""
    package = Path(claimgraph.__file__).parent
    retry = package / "retry.py"
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {"type_checking", "function"} if path == retry else {"type_checking"}
        found += [
            f"{path.relative_to(package)}:{line} {place}"
            for line, place in _requests_imports(tree)
            if place not in allowed
        ]
    assert found == []
    in_retry = _requests_imports(ast.parse(retry.read_text(encoding="utf-8")))
    assert "function" in {place for _, place in in_retry}


def test_requests_import_scan_tells_the_three_places_apart():
    tree = ast.parse(
        "import requests\n"
        "if TYPE_CHECKING:\n    from requests import Session\nelse:\n    import requests.adapters\n"
        "def f():\n    import requests\n"
        "import requestsish\n"
    )
    assert _requests_imports(tree) == [(1, "module"), (3, "type_checking"), (5, "module"), (7, "function")]
