"""Loading a dataset loads none of the pipeline.

``claimgraph.ingest`` reads manifests and claims; the benchmark's ``setup_s``
times that load alone. Its imports reach only the modules named here, so a
change to any other module cannot move ``setup_s``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

INGEST_LOADS = {
    "claimgraph",
    "claimgraph.errors",
    "claimgraph.ingest",
    "claimgraph.jsonform",
    "claimgraph.labels",
    "claimgraph.records",
    "claimgraph.retrieval",
    "claimgraph.retry",
}
NEVER_LOADED = ("pipeline", "gateway", "explain", "graphs", "inference", "summarize", "evaluation")

# Runs in a fresh interpreter: the test process has long since loaded the whole package.
LOADED = """
import json
import sys

import claimgraph.ingest

print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "claimgraph")))
"""


def test_importing_ingest_loads_none_of_the_pipeline():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", LOADED], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    modules = {name.split(".")[1] for name in loaded if "." in name}
    assert modules.isdisjoint(NEVER_LOADED), sorted(modules)
    assert loaded == INGEST_LOADS
