"""Smoke tests of the offline scripts and of the test and benchmark tooling.

``make_fixtures.py`` records a fixture set, and the ``claimgraph`` CLI
replays it in a subprocess, as a user would; the benchmark's tracer and
reader are checked against a real batch.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from claimgraph.fixtures import build_fixture_dataset
from claimgraph.gateway import Stage
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, load_run_records, run_batch

REPO = Path(__file__).resolve().parent.parent


def run_python(*args, cwd=None):
    """``python *args`` in a subprocess, with the repository's src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def test_make_fixtures_then_replay_them(tmp_path):
    # A relative --out, replayed from another directory: the recorded config
    # names its fixture set by absolute path.
    (tmp_path / "elsewhere").mkdir()
    script = REPO / "scripts" / "make_fixtures.py"
    made = run_python(script, "--out", "made", "--claims", 2, cwd=tmp_path)
    assert made.returncode == 0, made.stderr
    out = tmp_path / "made"
    fixture_dir = out / "provider_fixtures"
    recorded = (out / "recorded_run" / "cache" / "responses.jsonl").read_bytes()
    assert recorded
    assert [p.name for p in fixture_dir.iterdir()] == ["responses.jsonl"]
    assert (fixture_dir / "responses.jsonl").read_bytes() == recorded
    assert f"({len(recorded.splitlines())} exchanges recorded)" in made.stdout
    assert f"--config {out / 'recorded_run' / 'config.json'}" in made.stdout

    replay = tmp_path / "replay"
    replayed = run_python(
        "-m", "claimgraph.cli", "run",
        "--manifest", out / "data" / "manifest.json",
        "--config", out / "recorded_run" / "config.json",
        "--out", replay,
        cwd=tmp_path / "elsewhere",
    )
    assert replayed.returncode == 0, replayed.stderr
    assert "processed 2, skipped 0" in replayed.stdout
    # A fixture miss would still write a record, as a failure.
    records = load_run_records(replay)
    assert len(records) == 2 and all(r.succeeded for r in records)
    # A replay stores the replies it used, so its cache is itself a fixture set.
    used = (replay / "cache" / "responses.jsonl").read_bytes()
    assert sorted(used.splitlines()) == sorted(recorded.splitlines())

    cost = run_python(
        "-m", "claimgraph.cli", "cost", "--run-dir", replay, cwd=tmp_path / "elsewhere"
    )
    assert cost.returncode == 0, cost.stderr
    # Every stage a default run calls the provider in, booked as when it was recorded.
    stages = {Stage.CLAIM_DECOMPOSITION, Stage.EDGE_GENERATION, Stage.EXPLANATION_GENERATION,
              Stage.INFERENCE, Stage.FINAL_EXPLANATION_GENERATION}
    assert {line.split()[0] for line in cost.stdout.splitlines()} >= stages
    recorded_usage = json.loads((out / "recorded_run" / "cost.json").read_text())["stage_tokens"]
    assert set(recorded_usage) == stages
    assert json.loads((replay / "cost.json").read_text())["stage_tokens"] == recorded_usage


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
    # A batch builds no explanation graph: a record derives its own when it is read.
    derived_on_read = {"build_explanation_graph", "export_structured"}
    assert wrapped - {span.name for span in tracer.spans} == derived_on_read


def test_the_benchmark_reads_a_batch_with_no_problems(monkeypatch, tmp_path):
    # perfbench/measure.py reads each record file's claim_id, failure and
    # prediction label, and report.json and cost.json; a change to their form
    # that it cannot read fails every benchmark batch.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import measure
    import simprovider

    manifest = build_fixture_dataset(tmp_path / "data", claim_count=3)
    records, rejects = load_records(load_manifest(manifest))
    assert not rejects
    provider = simprovider.CountingProvider()
    outcome = measure.run_one_batch(run_batch, records, PipelineConfig(), tmp_path / "run", provider)
    assert outcome.error is None
    assert outcome.problems == []
    assert outcome.recorded == outcome.attempted == 3
    assert outcome.failed == 0


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
