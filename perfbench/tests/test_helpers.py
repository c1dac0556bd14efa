"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
import threading

import pytest

from claimgraph import pipeline
from claimgraph.fixtures import build_fixture_dataset
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, run_batch

import workloads
from measure import check_batch, failed_claims, run_one_batch, tail_percentile
from simprovider import CountingProvider
from spans import Span, Tracer, instrumented, self_times


def _span(id, start, end, parent=None, name="s"):
    return Span(id, name, "layer", start, end, parent, None)


def test_self_time_subtracts_nested_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, 1), _span(3, 2.0, 3.0, 2), _span(4, 6.0, 7.0, 1)]
    assert self_times(spans) == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children on two threads overlap on [3, 5]; the last one outlives its parent.
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 5.0, 1), _span(3, 3.0, 8.0, 1), _span(4, 9.0, 12.0, 1)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


@pytest.mark.parametrize(
    "samples, expected",
    [(10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_every_workload_batch_supports_the_declared_p95():
    for workload in workloads.WORKLOADS.values():
        assert tail_percentile(workload.submitted) == 95.0


def test_tracer_keeps_a_parent_stack_per_thread_and_inherits_claim_ids():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=5)

    def claim(claim_id):
        with tracer.span("run_claim", "pipeline", claim_id):
            barrier.wait()
            with tracer.span("complete", "gateway"):
                barrier.wait()

    threads = [threading.Thread(target=claim, args=(c,)) for c in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    roots = {s.claim_id: s for s in tracer.spans if s.name == "run_claim"}
    for child in (s for s in tracer.spans if s.name == "complete"):
        assert roots[child.claim_id].id == child.parent
        assert roots[child.claim_id].parent is None


def _dataset(tmp_path, claims=4, seed=3):
    manifest = build_fixture_dataset(tmp_path / "data", claim_count=claims, seed=seed)
    records, rejects = load_records(load_manifest(manifest))
    assert not rejects
    return records


class _ReplyLog(CountingProvider):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.replies = []

    def generate(self, request):
        response = super().generate(request)
        self.replies.append(response.text)
        return response


def test_same_seed_gives_the_same_latencies_and_replies(tmp_path):
    records = _dataset(tmp_path)
    runs = []
    for attempt in range(2):
        sleeps = []
        provider = _ReplyLog(fixed_ms=5.0, per_output_token_ms=0.25, sleep=sleeps.append)
        outcome = run_one_batch(
            run_batch, records, PipelineConfig(claim_concurrency=1), tmp_path / f"run{attempt}", provider
        )
        assert not outcome.problems and outcome.error is None
        runs.append((sleeps, provider.replies, outcome.digest, provider.output_tokens))
    assert runs[1] == runs[0]
    sleeps, replies, _digest, output_tokens = runs[0]
    assert len(sleeps) == len(replies) > 0
    assert sum(sleeps) == pytest.approx((5.0 * len(sleeps) + 0.25 * output_tokens) / 1000.0)


class _FailingProvider(CountingProvider):
    """Raises an error that is not a ClaimGraphError on one call."""

    def __init__(self, fail_on_call):
        super().__init__()
        self.fail_on_call = fail_on_call

    def generate(self, request):
        if self.calls + 1 == self.fail_on_call:
            raise RuntimeError("provider crashed")
        return super().generate(request)


def test_an_aborted_batch_counts_every_claim_without_a_record_as_failed(tmp_path):
    records = _dataset(tmp_path, claims=6)
    # Claims run in order on one worker, at 9-10 calls each: call 25 is in the third.
    provider = _FailingProvider(fail_on_call=25)
    outcome = run_one_batch(
        run_batch, records, PipelineConfig(claim_concurrency=1), tmp_path / "run", provider
    )
    assert outcome.error == "RuntimeError"
    assert outcome.recorded == 2
    assert outcome.failed == 4
    assert outcome.problems == []


def test_a_failure_record_counts_as_failed():
    records = [
        {"claim_id": "a", "prediction": {"label": "true"}, "failure": None},
        {"claim_id": "b", "prediction": None, "failure": {"stage": "inference"}},
    ]
    assert failed_claims(["a", "b", "c"], records) == 2


def test_checks_catch_missing_records_and_unbooked_usage(tmp_path):
    records = _dataset(tmp_path, claims=2)
    config = PipelineConfig(claim_concurrency=1)
    run_dir = tmp_path / "run"
    run_batch(records, config, run_dir, provider=CountingProvider())
    written = [json.loads(p.read_text()) for p in sorted((run_dir / "runs").glob("*.json"))]
    labels = config.scheme.labels
    outcome = run_one_batch(run_batch, records, config, tmp_path / "again", CountingProvider())
    assert outcome.problems == [] and check_batch(outcome, written, run_dir, labels) == []
    outcome.calls += 1
    assert any("cost.json books" in p for p in check_batch(outcome, written, run_dir, labels))
    assert any("records" in p for p in check_batch(outcome, written[1:], run_dir, labels))
    written[0]["prediction"]["label"] = "maybe"
    assert any("not in the scheme" in p for p in check_batch(outcome, written, run_dir, labels))


def test_instrumentation_is_removed_after_the_traced_batch():
    original = pipeline.run_claim
    tracer = Tracer()
    with instrumented(tracer, CountingProvider):
        assert pipeline.run_claim is not original
    assert pipeline.run_claim is original


def test_provider_counters_survive_concurrent_calls():
    provider = CountingProvider()
    request = pipeline.LlmGateway(provider).build_request("Understood?", "inference")
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [provider.generate(request) for _ in range(200)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert provider.calls == 1600
    assert provider.in_flight == 0
    assert 1 <= provider.max_in_flight <= 8
    assert provider.output_tokens == 1600 * provider.generate(request).usage.output_tokens


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    def claims(seed, name, copy=0):
        out = tmp_path / f"{name}-{seed}-{copy}"
        workloads.generate(name, seed, out)
        return (out / "claims.jsonl").read_text(encoding="utf-8")

    repeated = claims(5, "repeated_claims")
    assert repeated == claims(5, "repeated_claims", copy=1)
    assert claims(5, "fixture_cpu") != claims(6, "fixture_cpu")
    assert len(repeated.splitlines()) == workloads.WORKLOADS["repeated_claims"].submitted
