"""Shared fixtures: a synthetic dataset and a recorded offline batch.

The session-scoped workspace runs the ten-claim batch once against the
scripted responder; the run's response cache, copied, is the fixture set.
Tests that need end-to-end artifacts replay those recordings through the
fixture provider instead of paying for another full run.
"""
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

import pytest

from claimgraph.fixtures import build_fixture_dataset
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.ingest import DatasetManifest, load_manifest, load_records
from claimgraph.pipeline import BatchResult, PipelineConfig, run_batch
from claimgraph.records import ClaimRecord


@dataclass(frozen=True)
class Workspace:
    root: Path
    manifest_path: Path
    manifest: DatasetManifest
    records: List[ClaimRecord]
    fixture_dir: Path
    recorded_run_dir: Path
    config: PipelineConfig
    recorded_result: BatchResult


@pytest.fixture(scope="session")
def workspace(tmp_path_factory) -> Workspace:
    root = tmp_path_factory.mktemp("workspace")
    manifest_path = build_fixture_dataset(root / "data", claim_count=10, seed=7)
    manifest = load_manifest(manifest_path)
    records, rejects = load_records(manifest)
    assert not rejects, rejects
    fixture_dir = root / "provider_fixtures"
    config = PipelineConfig(provider={"type": "fixture", "path": str(fixture_dir)})
    recorded_run_dir = root / "recorded_run"
    result = run_batch(records, config, recorded_run_dir, provider=ScriptedResponder(seed=0))
    assert result.processed == len(records)
    shutil.copytree(recorded_run_dir / "cache", fixture_dir)
    return Workspace(
        root=root,
        manifest_path=manifest_path,
        manifest=manifest,
        records=records,
        fixture_dir=fixture_dir,
        recorded_run_dir=recorded_run_dir,
        config=config,
        recorded_result=result,
    )


@pytest.fixture()
def scripted_config() -> PipelineConfig:
    return PipelineConfig()


@pytest.fixture()
def two_records(workspace) -> List[ClaimRecord]:
    return list(workspace.records[:2])


def pytest_terminal_summary(terminalreporter):
    """One visible verdict line per acceptance criterion, capture-proof."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for n, verdict in sorted(results):
        terminalreporter.write_line(f"ACCEPTANCE {n}: {verdict}")
