"""Smoke test of the two offline scripts, run as a user would run them."""
import os
import subprocess
import sys
from pathlib import Path

from claimgraph.pipeline import load_run_records

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
