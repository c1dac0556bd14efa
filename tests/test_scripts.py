"""Smoke tests of the offline scripts and of the test and benchmark tooling."""
import os
import subprocess
import sys
from pathlib import Path

from claimgraph.fixtures import build_fixture_dataset
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, load_run_records, run_batch

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_make_fixtures_then_replay_them(tmp_path):
    made = run_script("make_fixtures.py", "--out", tmp_path, "--claims", 2)
    assert made.returncode == 0, made.stderr
    fixture_dir = tmp_path / "provider_fixtures"
    recorded = sorted(p.name for p in (tmp_path / "recorded_run" / "cache").glob("*.json"))
    assert recorded
    assert sorted(p.name for p in fixture_dir.glob("*.json")) == recorded
    assert f"({len(recorded)} exchanges recorded)" in made.stdout

    replayed = run_script(
        "run_fixture_batch.py",
        "--manifest", tmp_path / "data" / "manifest.json",
        "--out", tmp_path / "replay",
        "--fixtures", fixture_dir,
    )
    assert replayed.returncode == 0, replayed.stderr
    assert "processed 2, skipped 0" in replayed.stdout
    # A fixture miss would still write a record, as a failure.
    records = load_run_records(tmp_path / "replay")
    assert len(records) == 2 and all(r.succeeded for r in records)


def test_traced_benchmark_wraps_only_names_that_exist(monkeypatch):
    # perfbench/run.py --trace 1 replaces each (owner, attr) with a span
    # wrapper; a name missing from the owner would break the traced run.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import simprovider
    import spans

    targets = spans._targets(simprovider.CountingProvider)
    assert targets
    for owner, attr, *_ in targets:
        assert attr in owner.__dict__, (owner, attr)


def test_a_traced_batch_fires_every_span_name(monkeypatch, tmp_path):
    # A refactor that routes around a wrapped name zeroes its per-layer
    # metric without breaking the traced run.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import simprovider
    import spans

    manifest = build_fixture_dataset(tmp_path / "data", claim_count=2)
    tracer = spans.Tracer()
    with spans.instrumented(tracer, simprovider.CountingProvider):
        records, rejects = load_records(load_manifest(manifest))
        assert not rejects
        provider = simprovider.CountingProvider()
        run_batch(records, PipelineConfig(), tmp_path / "run", provider=provider)
    wrapped = {name for _owner, _attr, name, *_ in spans._targets(simprovider.CountingProvider)}
    assert wrapped - {span.name for span in tracer.spans} == set()


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 10


def test_the_next_test():
    pass
"""


def test_a_failing_property_fails_like_any_test(tmp_path):
    # Run under the repository's warning filters, which turn warnings into
    # errors: hypothesis's failure report must still get through.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "test_property.py::test_the_next_test PASSED" in output
    assert "1 failed, 1 passed" in output
