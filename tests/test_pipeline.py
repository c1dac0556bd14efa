import dataclasses
import errno
import gc
import hashlib
import json
import os
import re
import select
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from claimgraph import adapters, jsonform, pipeline, retrieval
from claimgraph.adapters import LineAdapterClient
from claimgraph.cli import main as cli_main
from claimgraph.evaluation import evaluate_run
from claimgraph.errors import (
    ConfigError,
    EmbeddingError,
    ProviderUnavailableError,
    RetryableProviderError,
)
from claimgraph.fixtures import build_fixture_dataset
from claimgraph.gateway import (
    FixtureProvider,
    GenerationRequest,
    GenerationResponse,
    LlmGateway,
    ResponseCache,
    Stage,
    TokenUsage,
)
from claimgraph.gateway import provider as provider_module
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.graphs import HyperGraph
from claimgraph.inference import graph_to_seq, hypergraph_to_seq
from claimgraph.ingest import load_manifest, load_records
from claimgraph.labels import SIX_WAY
from claimgraph.records import ClaimRecord, Report
from claimgraph.pipeline import (
    Failure,
    PipelineConfig,
    RunRecord,
    build_runtime,
    cost_report,
    judge_run,
    load_run_config,
    load_run_records,
    run_batch,
    run_claim,
    write_reports,
)
from claimgraph.summarize import export_dot, parse_structured

from test_acceptance import _EXPECTED_TRACES as ACCEPTED_TRACES
from test_record_stability import (
    CONFIGS as STABILITY_CONFIGS,
    STUB_ADAPTER,
    PromptSpy,
    evidence_lines,
)

STANDARD_TRACE = [
    "claim_decomposition",
    "edge_generation",
    "evidence_retrieval",
    "explanation_generation",
    "inference",
    "final_explanation_generation",
]


RUN_OPTIONS = {
    "claim_concurrency": 1,
    "provider_concurrency": 3,
    "pricing_input_per_million": "2.00",
    "pricing_output_per_million": "6.00",
}


# The config a resume is compared with, and a value of each field that differs from it.
RESUMED = PipelineConfig(adapter=STUB_ADAPTER)
CHANGED = {
    "scheme_name": "six_way",
    "k": 3,
    "background_pool_size": 10,
    "decomposition": "enhanced",
    "graph_structure": "hypergraph",
    "with_background": True,
    "ablations": ("no_edges",),
    "inference_path": "external_adapter",
    "generation_temperature": 0.5,
    "judge_temperature": 0.3,
    "model_id": "another-model",
    "max_output_tokens": 512,
    "provider": {"type": "scripted", "seed": 1},
    "embedder": {"type": "hashing", "dimension": 32},
    "adapter": {"type": "stub", "probabilities": [0.2, 0.6, 0.2]},
    # A cache hit or a joined call reuses a sampled reply, so cache_enabled can change a record.
    "cache_enabled": False,
    **RUN_OPTIONS,
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig)])
def test_every_config_field_is_compared_on_resume_or_is_a_run_option(name, tmp_path):
    run_dir = tmp_path / "run"
    run_batch([], RESUMED, run_dir)
    config = replace(RESUMED, **{name: CHANGED[name]})
    assert getattr(config, name) != getattr(RESUMED, name)
    if name in RUN_OPTIONS:
        run_batch([], config, run_dir)
        assert load_run_config(run_dir) == config
        return
    was, given = RESUMED.to_dict()[name], config.to_dict()[name]
    message = (
        f"run directory was created with {name}={json.dumps(was)}, "
        f"not {name}={json.dumps(given)}; use a fresh directory"
    )
    with pytest.raises(ConfigError) as refused:
        run_batch([], config, run_dir)
    assert str(refused.value) == message
    assert load_run_config(run_dir) == RESUMED


def test_the_run_options_are_the_fields_marked_run_option():
    fields = dataclasses.fields(PipelineConfig)
    assert {f.name for f in fields if f.metadata.get("run_option")} == set(RUN_OPTIONS)
    assert set(CHANGED) == {f.name for f in fields}


def test_a_refused_resume_names_every_differing_field(two_records, tmp_path):
    run_dir = tmp_path / "run"
    run_batch([], PipelineConfig(), run_dir)
    changed = PipelineConfig(k=3, cache_enabled=False, provider_concurrency=2)
    with pytest.raises(ConfigError) as refused:
        run_batch(two_records, changed, run_dir)
    assert str(refused.value) == (
        "run directory was created with k=5 and cache_enabled=true, "
        "not k=3 and cache_enabled=false; use a fresh directory"
    )


def test_ablations_are_sorted_and_deduped():
    config = PipelineConfig(ablations=("no_edges", "no_competing", "no_edges"))
    assert config.ablations == ("no_competing", "no_edges")
    assert config.ablated("no_edges") and not config.ablated("no_evidence")


def test_unknown_ablation_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig(ablations=("no_truth",))


def test_no_inference_training_forces_zero_shot():
    config = PipelineConfig(
        ablations=("no_inference_training",),
        inference_path="external_adapter",
        adapter={"type": "stub", "probabilities": [0.1, 0.7, 0.2]},
    )
    assert config.inference_path == "zero_shot"


@pytest.mark.parametrize("ablation", ["no_evidence", "no_subclaims"])
def test_background_requires_evidence(ablation):
    with pytest.raises(ConfigError):
        PipelineConfig(with_background=True, ablations=(ablation,))


def test_adapter_path_requires_adapter_config():
    with pytest.raises(ConfigError):
        PipelineConfig(inference_path="external_adapter")


def test_config_round_trip_and_unknown_field(tmp_path):
    config = PipelineConfig(k=3, ablations=("no_edges",), scheme_name="six_way")
    assert PipelineConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(dict(config.to_dict(), verbosity=2))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert PipelineConfig.from_file(path) == config


def run_one(config, claim_record):
    return run_claim(build_runtime(config), claim_record)


STRUCTURE_LINE = "# Graph Structure: "


def run_spied(config, claim_record):
    """``run_one`` on a ``PromptSpy``: the record and the structure lines its prompts held."""
    spy = PromptSpy()
    record = run_claim(build_runtime(config, provider=spy), claim_record)
    lines = [
        line.removeprefix(STRUCTURE_LINE)
        for prompt in spy.prompts
        for line in prompt.splitlines()
        if line.startswith(STRUCTURE_LINE)
    ]
    return record, lines


def test_standard_stage_trace(scripted_config, two_records):
    record, structure_lines = run_spied(scripted_config, two_records[0])
    assert record.succeeded
    assert record.stage_trace == STANDARD_TRACE
    assert record.n == len(record.sub_claims) >= 2
    assert record.graph is not None and record.hypergraph is None
    # Inference and the final explanation both see the dependency graph.
    assert len(structure_lines) == 2
    assert all(line.startswith("Directed Graph") for line in structure_lines)
    assert json.loads(record.explanation_graph)["format"] == "explanation-graph/v1"


def test_no_subclaims_trace(two_records):
    config = PipelineConfig(ablations=("no_subclaims",))
    record = run_one(config, two_records[0])
    assert record.succeeded
    assert record.stage_trace == ["evidence_retrieval", "explanation_generation", "inference"]
    assert record.n == 0 and not record.sub_claims
    assert record.summary


def test_no_edges_trace(two_records):
    config = PipelineConfig(ablations=("no_edges",))
    record, structure_lines = run_spied(config, two_records[0])
    assert record.stage_trace == [s for s in STANDARD_TRACE if s != "edge_generation"]
    # Safeguard links only: every edge points at the claim node.
    assert all(e.target == 0 for e in record.graph.edges)
    assert all(e.provenance == "safeguard" for e in record.graph.edges)
    assert structure_lines == []


def test_no_evidence_trace(two_records):
    config = PipelineConfig(ablations=("no_evidence",))
    record = run_one(config, two_records[0])
    assert record.stage_trace == [s for s in STANDARD_TRACE if s != "evidence_retrieval"]
    assert all(not e.items for e in record.evidence)


def test_hypergraph_trace(two_records):
    config = PipelineConfig(graph_structure="hypergraph")
    record, structure_lines = run_spied(config, two_records[0])
    expected = list(STANDARD_TRACE)
    expected[1] = "hyperedge_generation"
    assert record.stage_trace == expected
    assert len(structure_lines) == 2
    assert all(line.startswith("Hypergraph") for line in structure_lines)
    assert isinstance(record.hypergraph, HyperGraph)
    assert record.hypergraph.sub_claims == tuple(record.sub_claims)


def test_background_trace(two_records):
    config = PipelineConfig(with_background=True)
    record = run_one(config, two_records[0])
    expected = list(STANDARD_TRACE)
    expected.insert(4, "background_generation")
    assert record.stage_trace == expected
    assert all(e.background for e in record.explanations)


def test_adapter_prediction_source(two_records):
    config = PipelineConfig(
        inference_path="external_adapter",
        adapter={"type": "stub", "probabilities": [0.1, 0.7, 0.2]},
    )
    record = run_one(config, two_records[0])
    assert record.prediction.source == "external_adapter"
    assert record.prediction.label == "half"
    assert record.prediction.probabilities == (0.1, 0.7, 0.2)


SHARED = "The council cut the transit budget by forty percent."
OWN_SENTENCES = ("Riders protested outside city hall.", "The vote was seven to two.")


def syndicated_claim(claim_id, *extra_reports):
    """A claim whose first report's opening sentence a second report copies."""
    reports = (Report((SHARED, *OWN_SENTENCES)), *extra_reports)
    return ClaimRecord(claim_id, "The council cut the transit budget after a vote.", reports)


def rationale_prompts(prompts):
    return [prompt for prompt in prompts if prompt.startswith("Given a claim: ")]


def test_a_copied_sentence_is_two_hits_but_one_line_of_each_rationale_prompt():
    spy = PromptSpy()
    claim = syndicated_claim("copied", Report(("A wire copy follows.", SHARED)))
    record = run_claim(build_runtime(PipelineConfig(), provider=spy), claim)
    assert record.succeeded
    for evidence in record.evidence:
        hits = [(hit.report_index, hit.sentence_index) for hit in evidence.items]
        assert {(0, 0), (1, 1)} <= set(hits)
        similarities = [hit.similarity for hit in evidence.items]
        assert similarities == sorted(similarities, reverse=True)
    prompts = rationale_prompts(spy.prompts)
    assert len(prompts) == 2 * len(record.sub_claims)
    assert all(evidence_lines(prompt).count(SHARED) == 1 for prompt in prompts)


def test_evidence_that_differs_only_by_a_copy_is_answered_by_the_store(tmp_path):
    # The same sub-claims over the same distinct evidence: the second claim's
    # rationale prompts are the first's, byte for byte.
    spy = PromptSpy()
    runtime = build_runtime(PipelineConfig(), tmp_path, provider=spy)
    first = run_claim(runtime, syndicated_claim("first"))
    second = run_claim(runtime, syndicated_claim("second", Report((SHARED,))))
    runtime.close()
    assert first.succeeded and second.succeeded
    assert second.sub_claims == first.sub_claims
    assert [len(e.items) for e in second.evidence] == [len(e.items) + 1 for e in first.evidence]
    prompts = rationale_prompts(spy.prompts)
    assert len(prompts) == len(set(prompts)) == 2 * len(first.sub_claims)
    assert Stage.EXPLANATION_GENERATION not in second.stage_usage
    assert second.explanations == first.explanations


class DeadProvider:
    """Fails every request immediately (no retryable path, no sleeps)."""

    def generate(self, request):
        raise ProviderUnavailableError("endpoint gone")


def test_failures_are_recorded_not_raised(two_records, tmp_path):
    config = PipelineConfig()
    runtime = build_runtime(config, provider=DeadProvider())
    record = run_claim(runtime, two_records[0])
    assert not record.succeeded
    assert record.failure == Failure(Stage.CLAIM_DECOMPOSITION, "endpoint gone")
    assert record.failure.stage.value == record.stage_trace[-1]

    result = run_batch(two_records, config, tmp_path / "run", provider=DeadProvider())
    assert result.processed == 2
    assert result.report.failure_count == 2
    assert result.report.failures_by_stage == {"claim_decomposition": 2}


TRANSCRIPTIONS = Path(__file__).parent / "data" / "prompt_transcriptions"


def prompt_marker(template: str) -> str:
    """The fixed opening of a frozen prompt: its first line up to the first slot."""
    first_line = (TRANSCRIPTIONS / f"{template}.txt").read_text(encoding="utf-8")
    return first_line.splitlines()[0].split("{{")[0]


class RefusingProvider:
    """Scripted replies, except that prompts matching ``refuse`` raise ``error``."""

    def __init__(self, refuse, error: Exception):
        self.inner = ScriptedResponder(seed=0)
        self.refuse = refuse
        self.error = error

    def generate(self, request):
        if self.refuse(request.prompt_text):
            raise self.error
        return self.inner.generate(request)


class CountingRefuser(RefusingProvider):
    """A ``RefusingProvider`` whose calls take ``delay`` seconds; counts answered calls."""

    def __init__(self, refuse, error, delay=0.0):
        super().__init__(refuse, error)
        self.delay = delay
        self.answered = 0
        self.lock = threading.Lock()

    def generate(self, request):
        time.sleep(self.delay)
        response = super().generate(request)
        with self.lock:
            self.answered += 1
        return response


def booked_calls(record) -> int:
    return sum(entry["calls"] for entry in record.stage_usage.values())


@pytest.fixture()
def running_pieces(monkeypatch):
    """How many pieces of stage work are running now, on any thread."""
    running, lock = [0], threading.Lock()
    timed = pipeline._ClaimStages._timed

    def counted(self, place, fn, args):
        with lock:
            running[0] += 1
        try:
            return timed(self, place, fn, args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(pipeline._ClaimStages, "_timed", counted)
    return lambda: running[0]


@pytest.mark.parametrize(
    "ablations, template, stage",
    [
        ((), "decompose", "claim_decomposition"),
        ((), "edges", "edge_generation"),
        ((), "rationale", "explanation_generation"),
        ((), "inference", "inference"),
        ((), "summarize", "final_explanation_generation"),
        (("no_subclaims",), "rationale", "explanation_generation"),
        (("no_subclaims",), "inference", "inference"),
    ],
    ids=lambda value: ("-".join(value) or "full") if isinstance(value, tuple) else value,
)
def test_failure_is_charged_to_the_running_stage(
    two_records, ablations, template, stage, running_pieces
):
    marker = prompt_marker(template)
    provider = CountingRefuser(
        lambda prompt: prompt.startswith(marker), ProviderUnavailableError("refused"), 0.01
    )
    runtime = build_runtime(PipelineConfig(ablations=ablations), provider=provider)
    record = run_claim(runtime, two_records[0])
    assert running_pieces() == 0
    assert not record.succeeded
    assert record.failure == Failure(Stage(stage), "refused")
    assert record.failure.stage.value == record.stage_trace[-1] == stage
    # Overlapped calls already running when the claim failed were waited for
    # and booked; none runs after the record is returned.
    answered = provider.answered
    assert answered == booked_calls(record)
    time.sleep(0.05)
    assert provider.answered == answered


def test_a_claim_failed_at_its_edges_keeps_no_later_part(two_records):
    """Retrieval finishes while the edge call is in flight; as in a sequential
    run, the failed claim's record holds no evidence and no explanations."""
    marker = prompt_marker("edges")
    provider = CountingRefuser(
        lambda prompt: prompt.startswith(marker), ProviderUnavailableError("refused"), 0.05
    )
    record = run_claim(build_runtime(PipelineConfig(), provider=provider), two_records[0])
    assert record.failure == Failure(Stage.EDGE_GENERATION, "refused")
    assert "evidence_retrieval" in record.durations
    assert (record.graph, record.evidence, record.explanations) == (None, [], [])


class LateFirstNodeRefuser:
    """Scripted replies; every rationale call raises, node 1's only after ``delay``."""

    def __init__(self, first_sub_claim: str, delay: float):
        self.inner = ScriptedResponder(seed=0)
        self.rationale = prompt_marker("rationale")
        self.first_node = f"{self.rationale}{first_sub_claim}, "
        self.delay = delay

    def generate(self, request):
        if request.prompt_text.startswith(self.first_node):
            time.sleep(self.delay)
            raise ProviderUnavailableError("node 1 failed")
        if request.prompt_text.startswith(self.rationale):
            raise ProviderUnavailableError("a later node failed")
        return self.inner.generate(request)


def test_a_stage_is_charged_the_error_of_its_earliest_piece(two_records):
    sub_claims = run_one(PipelineConfig(), two_records[0]).sub_claims
    assert len(sub_claims) == 2
    # Node 2's error arrives first in time; a sequential run would see node 1's.
    for _ in range(5):
        provider = LateFirstNodeRefuser(sub_claims[0], delay=0.1)
        record = run_claim(build_runtime(PipelineConfig(), provider=provider), two_records[0])
        assert record.failure == Failure(Stage.EXPLANATION_GENERATION, "node 1 failed")
        assert record.failure.stage.value == record.stage_trace[-1]
        assert record.stage_trace == STANDARD_TRACE[:4]


class BarrierProvider:
    """Scripted replies; the edge prompt and the first rationale prompt meet at a barrier.

    The claim succeeds only if the two calls are in flight at the same time.
    """

    def __init__(self):
        self.inner = ScriptedResponder(seed=0)
        self.barrier = threading.Barrier(2, timeout=5)
        self.edges = prompt_marker("edges")
        self.rationale = prompt_marker("rationale")
        self.waiting_for_rationale = True
        self.lock = threading.Lock()

    def generate(self, request):
        meets = request.prompt_text.startswith(self.edges)
        if request.prompt_text.startswith(self.rationale):
            with self.lock:
                meets, self.waiting_for_rationale = self.waiting_for_rationale, False
        if meets:
            self.barrier.wait()
        return self.inner.generate(request)


def test_edges_and_competing_pairs_are_in_flight_together(two_records):
    provider = BarrierProvider()
    record = run_claim(build_runtime(PipelineConfig(), provider=provider), two_records[0])
    assert record.failure is None
    assert record.stage_trace == STANDARD_TRACE
    assert not provider.barrier.broken


class RaisingEmbedder:
    """Embeds nothing: every call raises."""

    def embed(self, text):
        raise EmbeddingError("encoder down")

    def embed_batch(self, texts):
        raise EmbeddingError("encoder down")


@pytest.mark.parametrize("refuse_edges", [False, True], ids=["edges-ok", "edges-refused"])
def test_retrieval_failure_is_charged_in_program_order(two_records, refuse_edges, running_pieces):
    marker = prompt_marker("edges")
    # The edge call is still in flight when retrieval raises.
    provider = CountingRefuser(
        lambda prompt: refuse_edges and prompt.startswith(marker),
        ProviderUnavailableError("refused"),
        0.05,
    )
    runtime = build_runtime(PipelineConfig(), provider=provider)
    runtime.embedder = RaisingEmbedder()
    record = run_claim(runtime, two_records[0])
    assert running_pieces() == 0
    stage = "edge_generation" if refuse_edges else "evidence_retrieval"
    assert record.failure.stage.value == stage == record.stage_trace[-1]
    assert record.stage_trace == STANDARD_TRACE[: STANDARD_TRACE.index(stage) + 1]
    # The edges were joined before the failure was charged, as at a sequential run.
    assert (record.graph is None) == refuse_edges
    assert provider.answered == booked_calls(record)


# Acceptance 10's full traces, by the config they are drawn under.
FULL_TRACES = {
    "default": ACCEPTED_TRACES[()],
    "hypergraph": [s.replace("edge_", "hyperedge_") for s in ACCEPTED_TRACES[()]],
    "with_background": ACCEPTED_TRACES[()][:4] + ["background_generation"] + ACCEPTED_TRACES[()][4:],
    **{name: ACCEPTED_TRACES[(name,)] for name in ("no_edges", "no_evidence", "no_subclaims", "no_competing")},
}
TRACED_CONFIGS = {
    "default": {},
    "hypergraph": {"graph_structure": "hypergraph"},
    "with_background": {"with_background": True},
    **{name: {"ablations": (name,)} for name in ("no_edges", "no_evidence", "no_subclaims", "no_competing")},
}


class RefusingCall(ScriptedResponder):
    """Scripted replies, except that call number ``refused`` (from 0, as calls arrive) raises."""

    def __init__(self, refused: int):
        super().__init__(seed=0)
        self.refused = refused
        self.calls = 0
        self.lock = threading.Lock()

    def generate(self, request):
        with self.lock:
            number, self.calls = self.calls, self.calls + 1
        if number == self.refused:
            raise ProviderUnavailableError(f"call {number} refused")
        return super().generate(request)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FULL_TRACES)), refused=st.integers(0, 11))
def test_a_written_records_trace_is_its_full_trace_cut_at_its_failed_stage(workspace, name, refused):
    provider = RefusingCall(refused)
    with tempfile.TemporaryDirectory() as run_dir:
        run_batch(workspace.records[:1], PipelineConfig(**TRACED_CONFIGS[name]), run_dir, provider=provider)
        (record,) = load_run_records(run_dir)
    full = FULL_TRACES[name]
    assert record.succeeded == (refused >= provider.calls)
    if record.failure is None:
        assert record.stage_trace == full
    else:
        assert record.stage_trace == full[: full.index(record.failure.stage) + 1]
        assert record.failure.stage == record.stage_trace[-1]


def test_a_failed_stage_without_a_duration_ends_the_trace():
    """Only a hand-built record, or an error raised outside every piece after
    the last piece was cancelled, fails at a stage it has no duration for."""
    durations = {Stage(stage): 0.1 for stage in STANDARD_TRACE[:3]}
    record = RunRecord("c", "x", "three_way", durations=durations,
                       failure=Failure(Stage.EXPLANATION_GENERATION, "m"))
    assert record.stage_trace == STANDARD_TRACE[:4]
    assert RunRecord.from_dict(record.to_dict()).stage_trace == STANDARD_TRACE[:4]
    assert replace(record, failure=Failure(Stage.EDGE_GENERATION, "m")).stage_trace == STANDARD_TRACE[:2]
    assert replace(record, failure=None).stage_trace == STANDARD_TRACE[:3]


class InFlightProvider:
    """Scripted replies after a short sleep; tracks how many calls are in flight."""

    def __init__(self):
        self.inner = ScriptedResponder(seed=0)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def generate(self, request):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(0.003)
            return self.inner.generate(request)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_overlapped_calls_respect_the_provider_cap(workspace, tmp_path):
    provider = InFlightProvider()
    config = PipelineConfig(provider_concurrency=2, claim_concurrency=2)
    result = run_batch(workspace.records[:4], config, tmp_path / "run", provider=provider)
    assert result.report.failure_count == 0
    assert provider.max_in_flight == 2


def test_a_batch_starts_no_more_threads_than_its_claim_and_call_pools(
    workspace, tmp_path, monkeypatch
):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    config = PipelineConfig(claim_concurrency=2)
    provider = ScriptedResponder(seed=0)
    result = run_batch(workspace.records[:10], config, tmp_path / "run", provider=provider)
    assert result.processed == 10 and result.report.failure_count == 0
    assert len(started) <= config.claim_concurrency + config.provider_concurrency, started


def without_durations(record):
    return replace(record, durations={})


def test_a_failed_claim_leaves_the_claims_beside_it_as_an_isolated_run_has_them(
    workspace, tmp_path, running_pieces
):
    """The claims share one call pool; the victim's cancelled pieces are its own."""
    claims, config = workspace.records[:6], PipelineConfig(claim_concurrency=3)
    victim = claims[2]
    first_pair = f"{prompt_marker('rationale')}{run_one(config, victim).sub_claims[0]}, "
    provider = CountingRefuser(
        lambda prompt: prompt.startswith(first_pair), ProviderUnavailableError("refused"), 0.005
    )
    result = run_batch(claims, config, tmp_path / "run", provider=provider)
    assert running_pieces() == 0
    assert result.report.failures_by_stage == {"explanation_generation": 1}
    records = {r.claim_id: r for r in load_run_records(tmp_path / "run")}
    assert records[victim.claim_id].failure == Failure(Stage.EXPLANATION_GENERATION, "refused")
    for claim in claims:
        if claim is not victim:
            alone = run_one(config, claim)
            assert without_durations(records[claim.claim_id]) == without_durations(alone)


def test_a_batch_opens_its_response_log_once_per_store(workspace, tmp_path, monkeypatch):
    opened = []
    os_open = os.open

    def counted(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counted)
    run_dir, config, provider = tmp_path / "run", PipelineConfig(), ScriptedResponder(seed=0)
    log = str(run_dir / "cache" / "responses.jsonl")
    run_batch(workspace.records[:4], config, run_dir, provider=provider)
    assert opened.count(log) == 1
    # Resumed with two more claims: one more store, opened once more.
    run_batch(workspace.records[:6], config, run_dir, provider=provider)
    assert opened.count(log) == 2


class FakeSession:
    closed = False

    def close(self):
        self.closed = True


def test_close_closes_every_http_clients_session(monkeypatch):
    sessions = []

    def new_session():
        sessions.append(FakeSession())
        return sessions[-1]

    for module in (provider_module, retrieval, adapters):
        monkeypatch.setattr(module, "new_session", new_session)
    unreachable = "http://127.0.0.1:9"  # never called: no request is sent
    config = PipelineConfig(
        provider={"type": "http", "base_url": unreachable},
        embedder={"type": "remote", "endpoint": f"{unreachable}/embed", "dimension": 4},
        inference_path="external_adapter",
        adapter={"type": "http", "url": f"{unreachable}/predict"},
    )
    runtime = build_runtime(config)
    clients = (runtime.gateway.provider, runtime.embedder, runtime.adapter)
    assert [client.session for client in clients] == sessions
    assert len(sessions) == 3 and not any(session.closed for session in sessions)
    runtime.close()
    assert [session.closed for session in sessions] == [True, True, True]


def test_the_response_log_is_closed_by_close_and_by_collection(two_records, tmp_path):
    open_fds = Path("/proc/self/fd")
    if not open_fds.is_dir():
        pytest.skip("counting open file descriptors needs /proc/self/fd")

    def count():
        return len(list(open_fds.iterdir()))

    before = count()
    runtime = build_runtime(PipelineConfig(), tmp_path / "run", provider=ScriptedResponder())
    run_claim(runtime, two_records[0])
    assert count() == before + 1  # the log, held open between puts
    runtime.close()
    assert count() == before
    dropped = ResponseCache(tmp_path / "dropped")
    dropped.put(GenerationRequest("p", 0.8, "m", 10), GenerationResponse("t", TokenUsage(1, 1)))
    assert count() == before + 1
    del dropped
    gc.collect()
    assert count() == before


class SlowProvider:
    """Scripted replies after a delay chosen by the prompt's template."""

    def __init__(self, delays):
        self.inner = ScriptedResponder(seed=0)
        self.delays = {prompt_marker(template): delay for template, delay in delays.items()}

    def generate(self, request):
        for marker, delay in self.delays.items():
            if request.prompt_text.startswith(marker):
                time.sleep(delay)
        return self.inner.generate(request)


def test_stage_durations_are_each_stages_own_work(two_records):
    edges, rationale = 0.1, 0.02
    provider = SlowProvider({"edges": edges, "rationale": rationale})
    runtime = build_runtime(PipelineConfig(), provider=provider)
    started = time.perf_counter()
    record = run_claim(runtime, two_records[0])
    wall = time.perf_counter() - started
    assert record.succeeded
    # Each competing pair is two calls; the pairs overlap, their times add up.
    assert record.durations["explanation_generation"] >= 2 * record.n * rationale
    assert sum(record.durations.values()) > wall
    # The claim thread waits for the slow edge call; that wait is not edge work.
    assert edges <= record.durations["edge_generation"] < wall


def test_every_pieces_time_reaches_the_record_under_thread_switching(two_records):
    rationale = 0.002
    provider = SlowProvider({"rationale": rationale})
    runtime = build_runtime(PipelineConfig(provider_concurrency=8), provider=provider)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            records = list(pool.map(lambda claim: run_claim(runtime, claim), two_records * 4))
    finally:
        sys.setswitchinterval(interval)
    for record in records:
        assert record.succeeded
        assert list(record.durations) == record.stage_trace
        # A lost piece time would leave the stage short of its calls' sleeps.
        assert record.durations["explanation_generation"] >= 2 * record.n * rationale


class IntervalProvider(SlowProvider):
    """A ``SlowProvider`` that keeps each call's prompt, start and end time."""

    def __init__(self, delays):
        super().__init__(delays)
        self.calls = []

    def generate(self, request):
        started = time.perf_counter()
        try:
            return super().generate(request)
        finally:
            self.calls.append((request.prompt_text, started, time.perf_counter()))


def test_the_two_sides_of_a_pair_are_in_flight_together(two_records):
    provider = IntervalProvider({"rationale": 0.05})
    record = run_claim(build_runtime(PipelineConfig(), provider=provider), two_records[0])
    assert record.succeeded and record.n >= 2
    for sub_claim in record.sub_claims:
        node = f"{prompt_marker('rationale')}{sub_claim}, "
        sides = [(start, end) for prompt, start, end in provider.calls if prompt.startswith(node)]
        assert len(sides) == 2
        (first_start, first_end), (second_start, second_end) = sides
        assert max(first_start, second_start) < min(first_end, second_end)


@pytest.mark.parametrize("side", ["false", "true"])
def test_a_pair_is_charged_the_error_of_the_side_that_failed(two_records, side, running_pieces):
    provider = CountingRefuser(
        lambda prompt: f"a veracity label {side}, please" in prompt,
        ProviderUnavailableError(f"{side} side refused"),
        0.01,
    )
    record = run_claim(build_runtime(PipelineConfig(), provider=provider), two_records[0])
    assert running_pieces() == 0
    assert record.failure == Failure(Stage.EXPLANATION_GENERATION, f"{side} side refused")
    assert record.stage_trace == STANDARD_TRACE[:4]
    # The other side's call, spent already, is booked; none runs afterwards.
    answered = provider.answered
    assert answered == booked_calls(record)
    time.sleep(0.05)
    assert provider.answered == answered


class OneWorkerPool(ThreadPoolExecutor):
    """A 1-worker call pool on which another claim's slow call is queued just
    before the ``nth`` piece that ``claim_thread`` submits."""

    def __init__(self, claim_thread: threading.Thread, nth: int, slow_call):
        super().__init__(max_workers=1)
        self.claim_thread, self.nth, self.slow_call = claim_thread, nth, slow_call
        self.submitted = 0
        self.slow: list = []

    def submit(self, fn, *args, **kwargs):
        if threading.current_thread() is self.claim_thread:
            self.submitted += 1
            if self.submitted == self.nth:
                self.slow.append(super().submit(self.slow_call))
        return super().submit(fn, *args, **kwargs)


def test_a_failed_claim_waits_only_for_its_own_running_pieces(two_records, running_pieces):
    """Node 1's pair fails while node 2's pair is queued behind another claim's
    slow call: the record comes back at once, and node 2's pair never runs."""
    sub_claims = run_one(PipelineConfig(), two_records[0]).sub_claims
    assert len(sub_claims) == 2
    first_pair = f"{prompt_marker('rationale')}{sub_claims[0]}, "
    provider = CountingRefuser(
        lambda prompt: prompt.startswith(first_pair), ProviderUnavailableError("refused")
    )
    runtime = build_runtime(PipelineConfig(), provider=provider)
    runtime.calls.shutdown()
    release = threading.Event()
    # The claim thread submits the edges, node 1's pair, then node 2's pair.
    runtime.calls = OneWorkerPool(threading.current_thread(), 3, lambda: release.wait(3))
    try:
        record = run_claim(runtime, two_records[0])
        assert not runtime.calls.slow[0].done()
        assert running_pieces() == 0
    finally:
        release.set()
        runtime.calls.shutdown()
    assert record.failure == Failure(Stage.EXPLANATION_GENERATION, "refused")
    assert record.stage_trace == STANDARD_TRACE[:4]
    # The pool has drained: node 2's cancelled pair made no call.
    assert provider.answered == booked_calls(record) == 2


class ResettingProvider:
    """Every call fails in transport: a retryable error raised from a ConnectionError."""

    def generate(self, request):
        try:
            raise ConnectionError("connection reset by peer")
        except ConnectionError as exc:
            raise RetryableProviderError(f"transport failure: {exc}") from exc


def test_a_failure_keeps_the_cause_at_the_end_of_its_chain(two_records):
    runtime = build_runtime(PipelineConfig())
    runtime.gateway = LlmGateway(ResettingProvider(), sleeper=lambda _seconds: None)
    record = run_claim(runtime, two_records[0])
    # ProviderUnavailableError from RetryableProviderError from ConnectionError.
    assert record.failure == Failure(
        Stage.CLAIM_DECOMPOSITION,
        "failed after 3 attempts: transport failure: connection reset by peer",
        "ConnectionError: connection reset by peer",
    )
    assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


class GarblingResponder(ScriptedResponder):
    """Scripted replies, except that prompts opening with ``marker`` get
    ``reply 1``, ``reply 2``, ...: none of them parses as a label or a summary."""

    def __init__(self, marker):
        super().__init__(seed=0)
        self.marker = marker
        self.garbled = 0

    def respond(self, prompt):
        if not prompt.startswith(self.marker):
            return super().respond(prompt)
        self.garbled += 1
        return f"reply {self.garbled}"


@pytest.mark.parametrize(
    "template, stage, message, cause",
    [
        (
            "inference",
            Stage.INFERENCE,
            "no parseable label after re-ask: could not find a three_way label in 'reply 2' "
            "(first reply: could not find a three_way label in 'reply 1')",
            "UnparseableLabelError: could not find a three_way label in 'reply 2'",
        ),
        (
            "summarize",
            Stage.FINAL_EXPLANATION_GENERATION,
            "no usable final-explanation after re-ask",
            "ValueError: summary reply lacks a final-explanation",
        ),
    ],
)
def test_a_reply_that_never_parses_is_named_in_the_failure(
    two_records, template, stage, message, cause
):
    provider = GarblingResponder(prompt_marker(template))
    record = run_claim(build_runtime(PipelineConfig(), provider=provider), two_records[0])
    assert provider.garbled == 2
    assert record.failure == Failure(stage, message, cause)
    assert record.stage_usage[stage]["calls"] == 2
    assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


def test_a_failed_record_without_a_failure_counts_under_unknown(two_records):
    config = PipelineConfig()
    done = run_one(config, two_records[0])
    failed = replace(done, claim_id="failed", failure=Failure(Stage.INFERENCE, "m"), prediction=None)
    unexplained = replace(done, claim_id="unexplained", prediction=None)
    assert not unexplained.succeeded and unexplained.failure is None
    outcomes = pipeline.outcomes_from_records([done, failed, unexplained], config.scheme)
    assert [o.failure_stage for o in outcomes] == [None, Stage.INFERENCE, None]
    report = evaluate_run(outcomes, config.scheme)
    assert report.failures_by_stage == {"inference": 1, "unknown": 1}
    assert report.to_dict()["failures_by_stage"] == {"inference": 1, "unknown": 1}


FORKING_BATCH = """
import sys
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, run_batch

manifest, run_dir, provider_concurrency = sys.argv[1], sys.argv[2], int(sys.argv[3])
records, _rejects = load_records(load_manifest(manifest))
config = PipelineConfig(claim_concurrency=4, provider_concurrency=provider_concurrency)
result = run_batch(records, config, run_dir, provider=ScriptedResponder(seed=0))
assert result.processed == 20 and result.report.failure_count == 0
"""


@pytest.mark.parametrize("provider_concurrency", [1, 2])
def test_no_call_pool_size_deadlocks_the_forked_pairs(tmp_path, provider_concurrency):
    """Four claims fork their pairs onto a pool of one or two workers: every
    worker can be holding a pair's piece, and a side no worker has started is
    run by its pair's piece itself."""
    manifest = build_fixture_dataset(tmp_path / "data", claim_count=20)
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # In a child process, so that a deadlock fails the test instead of hanging
    # the session: the stuck pool threads are killed with it.
    argv = [sys.executable, "-c", FORKING_BATCH, str(manifest), str(tmp_path / "run")]
    try:
        batch = subprocess.run(
            [*argv, str(provider_concurrency)], env=env, capture_output=True, text=True, timeout=60
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the batch is still running after 60 s: deadlocked")
    assert batch.returncode == 0, batch.stderr
    records, _rejects = load_records(load_manifest(manifest))
    run_batch(records, PipelineConfig(), tmp_path / "default", provider=ScriptedResponder(seed=0))
    forked, default = (
        [replace(record, durations={}) for record in load_run_records(run_dir)]
        for run_dir in (tmp_path / "run", tmp_path / "default")
    )
    assert len(forked) == 20 and forked == default


def test_unexpected_exception_fails_one_claim_not_the_batch(two_records, tmp_path):
    victim = two_records[1]
    provider = RefusingProvider(lambda prompt: victim.claim in prompt, RuntimeError("client bug"))
    result = run_batch(two_records, PipelineConfig(), tmp_path / "run", provider=provider)
    assert result.processed == 2
    records = {r.claim_id: r for r in load_run_records(tmp_path / "run")}
    assert set(records) == {r.claim_id for r in two_records}
    assert records[two_records[0].claim_id].succeeded
    assert records[victim.claim_id].failure == Failure(
        Stage.CLAIM_DECOMPOSITION, "RuntimeError: client bug"
    )
    assert records[victim.claim_id].stage_trace == ["claim_decomposition"]
    assert result.report.failures_by_stage == {"claim_decomposition": 1}


def test_a_stage_prints_as_its_name_in_both_text_reports(two_records, tmp_path):
    victim = two_records[1]
    provider = RefusingProvider(lambda prompt: victim.claim in prompt, RuntimeError("client bug"))
    run_batch(two_records, PipelineConfig(), tmp_path / "run", provider=provider)
    runner = CliRunner()
    cost = runner.invoke(cli_main, ["cost", "--run-dir", str(tmp_path / "run")])
    evaluate = runner.invoke(cli_main, ["evaluate", "--run-dir", str(tmp_path / "run")])
    assert cost.exit_code == 0, cost.output
    assert evaluate.exit_code == 0, evaluate.output
    assert any(line.startswith("claim_decomposition ") for line in cost.output.splitlines())
    assert "failures at claim_decomposition: 1" in evaluate.output.splitlines()


class HoldingProvider:
    """Scripted replies; the first call for ``held`` waits until a record exists."""

    def __init__(self, held: str, runs_dir: Path, patience: float = 5.0):
        self.inner = ScriptedResponder(seed=0)
        self.held = held
        self.runs_dir = runs_dir
        self.patience = patience
        self.holding = True
        self.released = False  # a record appeared within the patience

    def generate(self, request):
        if self.holding and self.held in request.prompt_text:
            self.holding = False
            deadline = time.monotonic() + self.patience
            while not self.released and time.monotonic() < deadline:
                time.sleep(0.01)
                self.released = any(self.runs_dir.glob("*.json"))
        return self.inner.generate(request)


def test_run_batch_writes_each_record_as_it_finishes(two_records, tmp_path):
    first, second = two_records
    run_dir = tmp_path / "run"
    provider = HoldingProvider(first.claim, run_dir / "runs")
    config = PipelineConfig(claim_concurrency=2)
    result = run_batch([first, second], config, run_dir, provider=provider)
    # The second claim's record was on disk while the first claim still ran.
    assert provider.released
    assert result.processed == 2
    assert {r.claim_id for r in load_run_records(run_dir)} == {first.claim_id, second.claim_id}


def test_a_record_that_cannot_be_written_stops_the_batch(workspace, tmp_path, monkeypatch):
    claims = workspace.records
    started, returned, closed = [], [], []
    run_claim_, write_record, close = (
        pipeline.run_claim, pipeline._write_record, pipeline.PipelineRuntime.close
    )

    def starting(runtime, claim_record):
        started.append(claim_record.claim_id)
        record = run_claim_(runtime, claim_record)
        returned.append(record)
        return record

    def disk_full_after_one(run_dir, record):
        if any((run_dir / "runs").glob("*.json")):
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_record(run_dir, record)

    def closing(runtime):
        closed.append(runtime)
        close(runtime)

    monkeypatch.setattr(pipeline, "run_claim", starting)
    monkeypatch.setattr(pipeline, "_write_record", disk_full_after_one)
    monkeypatch.setattr(pipeline.PipelineRuntime, "close", closing)
    provider = CountingRefuser(lambda prompt: False, None)
    run_dir = tmp_path / "run"
    config = PipelineConfig(claim_concurrency=1)
    with pytest.raises(OSError, match="No space left on device"):
        run_batch(claims, config, run_dir, provider=provider)
    assert len(closed) == 1
    # The first record survives; the claims not yet started never ran, and
    # the provider answered only the claims that did.
    assert [r.claim_id for r in load_run_records(run_dir)] == started[:1]
    assert 2 <= len(started) <= 3 < len(claims)
    assert provider.answered == sum(booked_calls(r) for r in returned)

    monkeypatch.setattr(pipeline, "_write_record", write_record)
    started.clear()
    result = run_batch(claims, config, run_dir)
    assert result.processed == len(claims) - 1
    assert sorted(started) == sorted(c.claim_id for c in claims[1:])
    assert len(load_run_records(run_dir)) == len(claims)


def test_judge_run_scores_every_succeeded_claim(workspace, tmp_path):
    run_dir = tmp_path / "judged"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    plain = write_reports(run_dir, workspace.config, load_run_records(run_dir))
    report = judge_run(run_dir, workspace.config, provider=ScriptedResponder(seed=0))

    succeeded = [r for r in load_run_records(run_dir) if r.succeeded]
    assert succeeded
    assert report.judged_count == len(succeeded) == report.success_count
    assert report.judge_failure_count == 0
    assert set(report.judge_means) == {
        "misleadingness", "informativeness", "soundness", "readability"
    }
    assert all(1 <= mean <= 5 for mean in report.judge_means.values())
    judge_fields = ("judge_means", "judged", "judge_failures")
    unjudged = {k: v for k, v in report.to_dict().items() if k not in judge_fields}
    assert unjudged == {k: v for k, v in plain.to_dict().items() if k not in judge_fields}
    on_disk = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert on_disk == report.to_dict()

    # The CLI replays the judge replies from the run's cache: the recorded
    # fixtures hold no judge prompts, so a provider call would fail loudly.
    result = CliRunner().invoke(cli_main, ["evaluate", "--run-dir", str(run_dir), "--judge"])
    assert result.exit_code == 0, result.output
    assert json.loads((run_dir / "report.json").read_text(encoding="utf-8")) == on_disk


def test_judge_provider_failure_counts_as_judge_failure(workspace, tmp_path):
    # The recorded fixtures hold no judge prompts: every judge call misses.
    run_dir = tmp_path / "judged"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    before = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert before["judge_failures"] == 0
    provider = FixtureProvider(workspace.fixture_dir)
    report = judge_run(run_dir, workspace.config, provider=provider)

    succeeded = [r for r in load_run_records(run_dir) if r.succeeded]
    assert succeeded
    assert provider.call_count == len(succeeded)
    assert report.judged_count == 0
    assert report.judge_failure_count == len(succeeded)
    on_disk = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert on_disk == report.to_dict()
    assert on_disk["judge_failures"] == len(succeeded)


class FailingSecondJudge(ScriptedResponder):
    """The scripted provider, whose client raises a plain ``RuntimeError`` on its
    second judge call; judge calls run at once, so they are counted under a lock."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.judge_calls = 0
        self.lock = threading.Lock()

    def generate(self, request):
        if request.prompt_text.startswith("You are an impartial judge"):
            with self.lock:
                self.judge_calls += 1
                second = self.judge_calls == 2
            if second:
                raise RuntimeError("client bug")
        return super().generate(request)


def test_one_claims_judge_raising_anything_counts_as_its_judge_failure(workspace, tmp_path):
    run_dir = tmp_path / "judged"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    provider = FailingSecondJudge()
    report = judge_run(run_dir, workspace.config, provider=provider)

    succeeded = [r for r in load_run_records(run_dir) if r.succeeded]
    assert len(succeeded) >= 3
    assert provider.judge_calls == len(succeeded)
    assert report.judge_failure_count == 1
    assert report.judged_count == len(succeeded) - 1
    on_disk = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert on_disk == report.to_dict()
    assert (on_disk["judged"], on_disk["judge_failures"]) == (len(succeeded) - 1, 1)


def test_resume_spends_no_provider_calls(workspace):
    provider = FixtureProvider(workspace.fixture_dir)
    result = run_batch(
        workspace.records, workspace.config, workspace.recorded_run_dir, provider=provider
    )
    assert result.processed == 0
    assert result.skipped == len(workspace.records)
    assert provider.call_count == 0


def test_a_rerun_after_a_lost_record_replays_it_from_the_cache(two_records, tmp_path):
    run_dir = tmp_path / "run"
    run_batch(two_records, PipelineConfig(), run_dir)
    lost = run_dir / "runs" / pipeline._record_filename(two_records[0].claim_id)
    lost.unlink()
    provider = CountingRefuser(lambda prompt: False, None)
    result = run_batch(two_records, PipelineConfig(), run_dir, provider=provider)
    assert (result.processed, result.skipped) == (1, 1)
    assert provider.answered == 0
    assert lost.exists()


def _file_bytes(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_run_batch_sweeps_orphaned_temp_files(two_records, tmp_path):
    run_dir = tmp_path / "run"
    run_batch(two_records, PipelineConfig(), run_dir)
    records, cache = _file_bytes(run_dir / "runs"), _file_bytes(run_dir / "cache")
    assert records and cache
    # What a kill inside jsonform.write_text leaves: <name>.<random>.tmp files.
    orphans = [
        run_dir / "report.json.k3x9q1.tmp",
        run_dir / "runs" / f"{sorted(records)[0]}.a8b2c7.tmp",
        run_dir / "cache" / f"{sorted(cache)[0]}.zz01mn.tmp",
    ]
    for orphan in orphans:
        orphan.write_text('{"partial', encoding="utf-8")
    result = run_batch(two_records, PipelineConfig(), run_dir)
    assert result.processed == 0
    assert not any(orphan.exists() for orphan in orphans)
    assert _file_bytes(run_dir / "runs") == records
    assert _file_bytes(run_dir / "cache") == cache


def test_a_fixture_replay_stores_the_replies_it_used(workspace, tmp_path):
    # The config names the fixture provider; a replay's cache is itself a fixture set.
    claims, run_dir = workspace.records[:2], tmp_path / "replay"
    result = run_batch(claims, workspace.config, run_dir)
    assert result.processed == 2
    records = load_run_records(run_dir)
    assert all(r.succeeded for r in records)
    used = (run_dir / "cache" / "responses.jsonl").read_text(encoding="utf-8").splitlines()
    recorded = (workspace.fixture_dir / "responses.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(used) == sum(booked_calls(r) for r in records) and set(used) <= set(recorded)
    again = replace(workspace.config, provider={"type": "fixture", "path": str(run_dir / "cache")})
    run_batch(claims, again, tmp_path / "again")
    assert list(map(without_durations, load_run_records(tmp_path / "again"))) == list(
        map(without_durations, records)
    )


@pytest.mark.parametrize("claim_concurrency", [1, 4])
def test_a_replay_books_what_its_recording_booked(workspace, tmp_path, claim_concurrency):
    # Same-text copies: the recording's cache answers each copy's calls, or they join the first's.
    claims = workspace.records[:3]
    claims += [replace(claim, claim_id=f"{claim.claim_id}-copy") for claim in claims]
    fixtures = tmp_path / "fixtures"
    config = PipelineConfig(
        provider={"type": "fixture", "path": str(fixtures)}, claim_concurrency=claim_concurrency
    )
    run_batch(claims, config, tmp_path / "recorded", provider=ScriptedResponder(seed=0))
    shutil.copytree(tmp_path / "recorded" / "cache", fixtures)
    replay = FixtureProvider(fixtures)
    run_batch(claims, config, tmp_path / "replay", provider=replay)

    def booked(run):
        return json.loads((tmp_path / run / "cost.json").read_text(encoding="utf-8"))["stage_tokens"]

    assert booked("replay") == booked("recorded")
    assert replay.call_count == len((fixtures / "responses.jsonl").read_text(encoding="utf-8").splitlines())


class GatedProvider:
    """Scripted replies, each held until ``release`` is set; ``entered`` is set by the first call."""

    def __init__(self):
        self.inner = ScriptedResponder(seed=0)
        self.entered, self.release = threading.Event(), threading.Event()

    def generate(self, request):
        self.entered.set()
        if not self.release.wait(60):
            raise RuntimeError("never released")
        return self.inner.generate(request)


def test_a_second_batch_on_a_locked_directory_fails_at_once(two_records, tmp_path):
    run_dir = tmp_path / "run"
    gate = GatedProvider()
    in_use = f"^run directory {re.escape(str(run_dir))} is in use by another batch$"
    with ThreadPoolExecutor(max_workers=1) as outside:
        first = outside.submit(run_batch, two_records, PipelineConfig(), run_dir, gate)
        try:
            assert gate.entered.wait(30)
            # A temp file of the first batch's, mid-write: a second sweep would delete it.
            (run_dir / "runs" / "record.json.0123456789abcdef.tmp").write_text("{", encoding="utf-8")
            before = _tree_bytes(run_dir)
            started = time.monotonic()
            with pytest.raises(ConfigError, match=in_use):
                run_batch(two_records, PipelineConfig(), run_dir)
            with pytest.raises(ConfigError, match=in_use):
                judge_run(run_dir, PipelineConfig())
            assert time.monotonic() - started < 10
            assert _tree_bytes(run_dir) == before
        finally:
            gate.release.set()
        result = first.result(timeout=60)
    assert (result.processed, result.report.failure_count) == (2, 0)
    assert len(load_run_records(run_dir)) == 2


STALLED_BATCH = """
import sys, time
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, run_batch

class Stalled:
    def generate(self, request):
        print("stalled", flush=True)
        time.sleep(600)

records, _rejects = load_records(load_manifest(sys.argv[1]))
run_batch(records[:2], PipelineConfig(), sys.argv[2], provider=Stalled())
"""


def test_a_batch_killed_while_it_holds_the_lock_leaves_the_directory_usable(workspace, tmp_path):
    run_dir = tmp_path / "run"
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-c", STALLED_BATCH, str(workspace.manifest_path), str(run_dir)]
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    try:
        assert select.select([child.stdout], [], [], 60)[0], "the child never reached the provider"
        assert child.stdout.readline() == "stalled\n"
        with pytest.raises(ConfigError, match="is in use by another batch"):
            run_batch(workspace.records[:2], PipelineConfig(), run_dir)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    result = run_batch(workspace.records[:2], PipelineConfig(), run_dir)
    assert (result.processed, result.report.failure_count) == (2, 0)


def _tree_bytes(directory: Path) -> dict:
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


@pytest.mark.parametrize("option", RUN_OPTIONS)
def test_a_resume_may_change_a_run_option(two_records, tmp_path, option):
    run_dir = tmp_path / "run"
    run_batch(two_records[:1], PipelineConfig(), run_dir)
    done = _file_bytes(run_dir / "runs")
    provider = CountingRefuser(lambda prompt: False, None)
    config = PipelineConfig(**{option: RUN_OPTIONS[option]})
    result = run_batch(two_records, config, run_dir, provider=provider)
    assert (result.processed, result.skipped) == (1, 1)
    assert provider.answered == booked_calls(pipeline.load_run_record(run_dir, two_records[1].claim_id))
    assert {name: _file_bytes(run_dir / "runs")[name] for name in done} == done
    # config.json stores the options the run was resumed with; cost.json is priced by them.
    assert load_run_config(run_dir) == config
    cost = json.loads((run_dir / "cost.json").read_text(encoding="utf-8"))
    assert cost == cost_report(run_dir, config).to_dict()


@pytest.mark.parametrize(
    "change",
    [{"k": 2}, {"scheme_name": "six_way"}, {"ablations": ("no_edges",)}, {"cache_enabled": False}],
    ids=["k", "scheme_name", "ablation", "cache_enabled"],
)
def test_a_resume_may_not_change_what_a_record_holds(two_records, tmp_path, change):
    run_dir = tmp_path / "run"
    run_batch(two_records[:1], PipelineConfig(), run_dir)
    before = _tree_bytes(run_dir)
    (name,) = change
    with pytest.raises(ConfigError, match=f"^run directory was created with {name}=.*, not {name}="):
        run_batch(two_records, PipelineConfig(**change), run_dir)
    assert _tree_bytes(run_dir) == before


# config.json of a default run, as written when a hash of the config (then
# covering the run options too) was stored beside its fields and
# provider_concurrency defaulted to 8.
OLD_DEFAULT_CONFIG_JSON = """{
  "scheme_name": "three_way",
  "k": 5,
  "background_pool_size": 20,
  "decomposition": "standard",
  "graph_structure": "dependency",
  "with_background": false,
  "ablations": [],
  "inference_path": "zero_shot",
  "generation_temperature": 0.8,
  "judge_temperature": 0.0,
  "model_id": "offline-scripted",
  "max_output_tokens": 1024,
  "provider": {
    "type": "scripted"
  },
  "embedder": {
    "type": "hashing",
    "dimension": 64
  },
  "adapter": null,
  "pricing_input_per_million": "0.50",
  "pricing_output_per_million": "1.50",
  "claim_concurrency": 4,
  "provider_concurrency": 8,
  "cache_enabled": true,
  "config_hash": "e8355168e6a6"
}"""


def test_a_run_directory_stamped_with_a_config_hash_resumes_under_its_stored_config(
    workspace, two_records, tmp_path
):
    run_dir = tmp_path / "run"
    run_batch(two_records[:1], PipelineConfig(provider_concurrency=8), run_dir)
    claim_id = two_records[0].claim_id
    export = ["export", "--run-dir", str(run_dir), "--claim-id", claim_id]
    exported = CliRunner().invoke(cli_main, export).output
    (run_dir / "config.json").write_text(OLD_DEFAULT_CONFIG_JSON, encoding="utf-8")
    (record_path,) = (run_dir / "runs").iterdir()
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert "config_hash" not in record
    record_path.write_text(json.dumps(dict(record, config_hash="e8355168e6a6")), encoding="utf-8")
    assert load_run_config(run_dir) == PipelineConfig(provider_concurrency=8)
    assert PipelineConfig().provider_concurrency == 16

    run = ["run", "--manifest", str(workspace.manifest_path), "--out", str(run_dir), "--limit", "2"]
    result = CliRunner().invoke(cli_main, run)
    assert result.exit_code == 0, result.output
    assert "processed 1, skipped 1 (already done)" in result.output
    stamped = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    assert stamped == PipelineConfig(provider_concurrency=8).to_dict()
    assert {r.claim_id for r in load_run_records(run_dir)} == {r.claim_id for r in two_records}
    assert CliRunner().invoke(cli_main, export).output == exported


def _files_naming(run_dir: Path, text: str) -> list:
    return [path for path, data in _tree_bytes(run_dir).items() if text.encode() in data]


def test_a_cli_resume_starts_from_the_run_directory_config(workspace, tmp_path):
    run_dir = tmp_path / "run"
    run = ["run", "--manifest", str(workspace.manifest_path), "--out", str(run_dir)]
    runner = CliRunner()
    first = runner.invoke(cli_main, [*run, "--k", "3", "--provider-concurrency", "4", "--limit", "1"])
    assert first.exit_code == 0, first.output

    plain = runner.invoke(cli_main, [*run, "--limit", "2"])
    assert plain.exit_code == 0, plain.output
    assert "processed 1, skipped 1 (already done)" in plain.output
    assert load_run_config(run_dir) == PipelineConfig(k=3, provider_concurrency=4)

    before = _tree_bytes(run_dir)
    refused = runner.invoke(cli_main, [*run, "--k", "2"])
    assert refused.exit_code == 1
    assert "Error: run directory was created with k=3, not k=2; use a fresh directory" in refused.output
    assert _tree_bytes(run_dir) == before

    option = runner.invoke(cli_main, [*run, "--limit", "2", "--provider-concurrency", "8"])
    assert option.exit_code == 0, option.output
    assert "processed 0, skipped 2 (already done)" in option.output
    assert load_run_config(run_dir) == PipelineConfig(k=3, provider_concurrency=8)
    assert _files_naming(run_dir, "config_hash") == []

    six_way = build_fixture_dataset(tmp_path / "six_way", claim_count=2, scheme=SIX_WAY)
    other = runner.invoke(cli_main, ["run", "--manifest", str(six_way), "--out", str(run_dir)])
    assert other.exit_code == 1
    assert "Error: config scheme three_way does not match manifest scheme six_way" in other.output


def test_unreadable_run_config_is_a_config_error(workspace, two_records, tmp_path):
    run_dir = tmp_path / "run"
    run_batch(two_records[:1], PipelineConfig(), run_dir)
    config_path = run_dir / "config.json"
    config_path.write_text(config_path.read_text(encoding="utf-8")[:40], encoding="utf-8")
    with pytest.raises(ConfigError, match="unreadable run config"):
        run_batch(two_records, PipelineConfig(), run_dir)

    result = CliRunner().invoke(
        cli_main,
        ["run", "--manifest", str(workspace.manifest_path), "--out", str(run_dir)],
    )
    assert result.exit_code == 1
    assert "Error: unreadable run config" in result.output
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback


def test_run_batch_reads_the_records_once(two_records, tmp_path, monkeypatch):
    calls = []
    load = pipeline.load_run_records

    def counting(run_dir):
        calls.append(run_dir)
        return load(run_dir)

    monkeypatch.setattr(pipeline, "load_run_records", counting)
    run_batch(two_records[:1], PipelineConfig(), tmp_path / "run")
    assert len(calls) == 1
    run_batch(two_records, PipelineConfig(), tmp_path / "run")
    assert len(calls) == 2


def test_batch_reports_match_the_reports_rebuilt_from_disk(workspace, tmp_path):
    run_dir = tmp_path / "run"
    config = PipelineConfig()
    # A resumed batch: its reports mix records read back with new ones.
    run_batch(workspace.records[3:6], config, run_dir)
    run_batch(workspace.records[:8], config, run_dir)
    report = (run_dir / "report.json").read_bytes()
    cost = (run_dir / "cost.json").read_bytes()
    rebuilt = json.dumps(cost_report(run_dir, config).to_dict(), ensure_ascii=False, indent=2)
    assert cost.decode("utf-8") == rebuilt

    result = CliRunner().invoke(cli_main, ["evaluate", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert (run_dir / "report.json").read_bytes() == report
    assert (run_dir / "cost.json").read_bytes() == cost


ANSWERING_CHILD = (
    "import sys\n"
    "for _ in sys.stdin:\n"
    "    print('{\"probabilities\": [0.1, 0.7, 0.2]}', flush=True)\n"
)


def test_run_batch_stops_the_command_adapter(two_records, tmp_path, monkeypatch):
    children = []
    spawn = LineAdapterClient._ensure_process

    def spying(self):
        child = spawn(self)
        if child not in children:
            children.append(child)
        return child

    monkeypatch.setattr(LineAdapterClient, "_ensure_process", spying)
    config = PipelineConfig(
        inference_path="external_adapter",
        adapter={"type": "command", "argv": [sys.executable, "-c", ANSWERING_CHILD]},
    )
    try:
        result = run_batch(two_records, config, tmp_path / "run")
        assert result.report.failure_count == 0
        assert len(children) == 1
        child = children[0]
        assert child.returncode == 0
        assert child.stdin.closed and child.stdout.closed
    finally:
        for child in children:
            if child.returncode is None:  # left running: stop it here instead
                child.kill()
                child.wait(timeout=10)
                child.stdin.close()
                child.stdout.close()


def test_run_record_round_trip(workspace):
    records = load_run_records(workspace.recorded_run_dir)
    assert records
    for record in records:
        assert RunRecord.from_dict(record.to_dict()) == record


@pytest.mark.parametrize("name", sorted(STABILITY_CONFIGS))
def test_a_fresh_record_reads_back_equal_from_its_json(name, workspace):
    """A record as ``run_claim`` builds it, not one already read back, so a
    part held as a tuple where its annotation says list (or the reverse) shows."""
    runtime = build_runtime(PipelineConfig(**STABILITY_CONFIGS[name]))
    for claim in workspace.records[:3]:
        record = run_claim(runtime, claim)
        assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


def test_a_failed_record_reads_back_equal_from_its_json(two_records):
    record = run_claim(build_runtime(PipelineConfig(), provider=DeadProvider()), two_records[0])
    assert record.failure is not None
    assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


def test_a_written_record_is_one_line_that_reads_back_equal(workspace, tmp_path):
    (tmp_path / "runs").mkdir()  # made once per batch, by _prepare_run_dir
    for record in load_run_records(workspace.recorded_run_dir):
        text = pipeline._write_record(tmp_path, record).read_text(encoding="utf-8")
        assert "\n" not in text
        assert RunRecord.from_dict(json.loads(text)) == record


def _run_dir_with_a_corrupt_record(workspace, tmp_path, text='{"claim_id": '):
    """A copy of the recorded run whose second record holds ``text``; returns (dir, first id)."""
    run_dir = tmp_path / "run"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    first, second = load_run_records(run_dir)[:2]
    path = run_dir / "runs" / pipeline._record_filename(second.claim_id)
    path.write_text(text, encoding="utf-8")
    return run_dir, first.claim_id


def test_export_reads_only_its_own_claims_record(workspace, tmp_path):
    run_dir, claim_id = _run_dir_with_a_corrupt_record(workspace, tmp_path)
    result = CliRunner().invoke(
        cli_main, ["export", "--run-dir", str(run_dir), "--claim-id", claim_id]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["format"] == "explanation-graph/v1"


@pytest.mark.parametrize(
    "failed, cause",
    [(True, "failed at inference: m"), (False, "it was run without sub-claims")],
    ids=["failed", "succeeded"],
)
def test_export_of_a_claim_without_an_explanation_graph_says_why(
    workspace, tmp_path, failed, cause
):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    if failed:
        record = load_run_records(run_dir)[0]
        record = replace(record, failure=Failure(Stage.INFERENCE, "m"), prediction=None)
    else:
        # The one succeeded record without a graph: a claim run without sub-claims.
        record = run_one(PipelineConfig(ablations=("no_subclaims",)), workspace.records[0])
        assert record.succeeded and record.n == 0 and not record.sub_claims
        assert record.graph is None
    pipeline._write_record(run_dir, record)
    export = ["export", "--run-dir", str(run_dir), "--claim-id", record.claim_id]
    result = CliRunner().invoke(cli_main, export)
    assert result.exit_code == 1
    assert result.output == (
        f"Error: claim {record.claim_id!r} has no explanation graph ({cause})\n"
    )


@pytest.fixture()
def stored_graph_run(workspace, tmp_path):
    """A copy of the recorded run with every record in the form written while
    the graph was stored: its JSON form plus ``explanation_graph``, the
    structured export. Returns the run directory and each claim's stored text."""
    run_dir = tmp_path / "run"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    stored = {}
    for record in load_run_records(run_dir):
        stored[record.claim_id] = record.explanation_graph
        path = run_dir / "runs" / pipeline._record_filename(record.claim_id)
        jsonform.write_json(path, dict(record.to_dict(), explanation_graph=stored[record.claim_id]))
    assert all(stored.values())
    return run_dir, stored


def test_a_record_with_a_stored_graph_reads_and_counts_as_done(workspace, stored_graph_run):
    run_dir, stored = stored_graph_run
    files = {path: path.read_bytes() for path in (run_dir / "runs").glob("*.json")}
    records = load_run_records(run_dir)
    assert {r.claim_id: r.explanation_graph for r in records} == stored
    # Every claim has its record: a provider that fails every call is never asked.
    result = run_batch(workspace.records, workspace.config, run_dir, provider=DeadProvider())
    assert (result.processed, result.skipped) == (0, len(stored))
    assert result.report.failure_count == 0
    assert {path: path.read_bytes() for path in (run_dir / "runs").glob("*.json")} == files


@pytest.mark.parametrize("fmt", ["structured", "dot"])
def test_export_of_a_record_with_a_stored_graph_prints_the_stored_bytes(stored_graph_run, fmt):
    run_dir, stored = stored_graph_run
    for claim_id, text in stored.items():
        export = ["export", "--run-dir", str(run_dir), "--claim-id", claim_id, "--format", fmt]
        result = CliRunner().invoke(cli_main, export)
        assert result.exit_code == 0, result.output
        assert result.output == (text if fmt == "structured" else export_dot(parse_structured(text)))


def test_a_stored_graph_is_ignored_for_the_one_its_parts_form(workspace, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    record = load_run_records(run_dir)[0]
    path = run_dir / "runs" / pipeline._record_filename(record.claim_id)
    jsonform.write_json(path, dict(record.to_dict(), explanation_graph="not a graph"))
    export = ["export", "--run-dir", str(run_dir), "--claim-id", record.claim_id]
    result = CliRunner().invoke(cli_main, export)
    assert result.exit_code == 0, result.output
    assert result.output == record.explanation_graph


EVIDENCE_FIELDS = ("report_index", "sentence_index", "text", "similarity")
# The fields of the parts a record writes as rows, keyed as files held them before.
EXPLANATION_FIELDS = ("sub_claim_index", "false_oriented", "true_oriented", "analysis", "background")
VERDICT_FIELDS = ("sub_claim_index", "verdict", "reasoning", "fallback")
EDGE_FIELDS = ("source", "target", "provenance")
USAGE_FIELDS = ("input_tokens", "output_tokens", "calls")


def _inline_text_form(payload: dict) -> dict:
    """A record's JSON form as files held it before its evidence texts were
    one table: no ``texts``, each evidence set the dict of its fields and
    each hit row holding its text, and the stage trace stored."""
    payload = dict(payload, stage_trace=[*map(str, RunRecord.from_dict(payload).stage_trace)])
    texts = payload.pop("texts")
    payload["evidence"] = [
        {"sub_claim_index": node, "items": [[*hit[:2], texts[hit[2]], hit[3]] for hit in hits], "k": k}
        for node, hits, k in payload["evidence"]
    ]
    return payload


def _keyed_form(payload: dict) -> dict:
    """A record's JSON form as files held it before explanations, verdicts,
    graph edges and stage usage were rows: each part the dict of its fields,
    and each hit holding its text and the trace stored (``_inline_text_form``)."""
    payload = _inline_text_form(payload)
    payload = dict(
        payload,
        explanations=[dict(zip(EXPLANATION_FIELDS, row)) for row in payload["explanations"]],
        verdicts=[dict(zip(VERDICT_FIELDS, row)) for row in payload["verdicts"]],
        stage_usage={stage: dict(zip(USAGE_FIELDS, row)) for stage, row in payload["stage_usage"].items()},
    )
    if payload["graph"] is not None:
        edges = [dict(zip(EDGE_FIELDS, row)) for row in payload["graph"]["edges"]]
        payload["graph"] = dict(payload["graph"], edges=edges)
    return payload


def _pre_change_form(record) -> dict:
    """``record``'s JSON form as files held it when each part was a dict of
    its fields (``_keyed_form``, and each evidence hit), the graph repeated
    the claim and sub-claims, the hypergraph was an untyped dict and the
    record stored ``n`` and its graph-structure line, ``structure_text`` (for
    a config without ``no_edges``)."""
    payload = _keyed_form(record.to_dict())
    for evidence_set in payload["evidence"]:
        evidence_set["items"] = [dict(zip(EVIDENCE_FIELDS, hit)) for hit in evidence_set["items"]]
    payload["graph"] = dict(payload["graph"], claim=record.claim, sub_claims=record.sub_claims)
    payload["n"] = len(record.sub_claims)
    if record.hypergraph is not None:
        payload["structure_text"] = hypergraph_to_seq(record.hypergraph)
    else:
        payload["structure_text"] = graph_to_seq(record.graph)
    return payload


@pytest.mark.parametrize("fmt", ["structured", "dot"])
def test_a_record_in_the_pre_change_form_reads_exports_and_resumes_the_same(
    workspace, tmp_path, fmt
):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    record = load_run_records(run_dir)[0]
    export = ["export", "--run-dir", str(run_dir), "--claim-id", record.claim_id, "--format", fmt]
    new_form = CliRunner().invoke(cli_main, export)
    assert new_form.exit_code == 0, new_form.output
    old = _pre_change_form(record)
    assert isinstance(old["evidence"][0]["items"][0], dict) and old["graph"]["sub_claims"]
    assert old["n"] == len(record.sub_claims) >= 2
    assert old["stage_trace"] == STANDARD_TRACE
    assert old["structure_text"].startswith("Directed Graph")
    path = run_dir / "runs" / pipeline._record_filename(record.claim_id)
    jsonform.write_json(path, old)
    written = path.read_bytes()

    reread = {r.claim_id: r for r in load_run_records(run_dir)}[record.claim_id]
    assert reread == record
    assert reread.derived_explanation_graph() == record.derived_explanation_graph()
    old_form = CliRunner().invoke(cli_main, export)
    assert old_form.exit_code == 0, old_form.output
    assert old_form.output == new_form.output
    # Its claim counts as done: a provider that fails every call is never asked.
    result = run_batch(workspace.records, workspace.config, run_dir, provider=DeadProvider())
    assert (result.processed, result.skipped) == (0, len(workspace.records))
    assert result.report.failure_count == 0
    assert path.read_bytes() == written


def test_a_hypergraph_record_in_the_pre_change_form_reads_back_typed(two_records):
    record = run_one(PipelineConfig(graph_structure="hypergraph"), two_records[0])
    old = _pre_change_form(record)
    assert set(old["hypergraph"]) == {"hyperedges", "provenance"}
    assert old["structure_text"].startswith("Hypergraph")
    reread = RunRecord.from_dict(json.loads(json.dumps(old)))
    assert reread == record
    assert isinstance(reread.hypergraph, HyperGraph)
    assert reread.to_dict() == record.to_dict()


class RequestSpy(ScriptedResponder):
    """The default scripted provider, keeping every request it is sent."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        return super().generate(request)


def _sha256_key(request) -> str:
    """The 64-hex key a store held for ``request`` when keys were the whole sha256."""
    fields = {"model_id": request.model_id, "prompt_text": request.prompt_text,
              "temperature": request.temperature}
    text = json.dumps(fields, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(*argv) -> str:
    result = CliRunner().invoke(cli_main, [str(arg) for arg in argv])
    assert result.exit_code == 0, result.output
    return result.output


def test_a_run_directory_in_the_keyed_form_resumes_and_reads_the_same(workspace, tmp_path):
    """Record files with keyed parts and a store with 64-hex keys, as written
    before parts were rows and keys 128 bits, still resume, cost, export and judge."""
    claims, config = workspace.records[:3], PipelineConfig()
    new, old = tmp_path / "new", tmp_path / "old"
    spy = RequestSpy()
    run_batch(claims, config, new, provider=spy)
    shutil.copytree(new, old)
    records = load_run_records(new)
    for path in (old / "runs").iterdir():
        jsonform.write_json(path, _keyed_form(json.loads(path.read_text(encoding="utf-8"))))
    full = {provider_module.request_key(request): _sha256_key(request) for request in spy.requests}
    log = old / "cache" / "responses.jsonl"
    lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    log.write_text("".join(json.dumps([full[key], *rest]) + "\n" for key, *rest in lines), encoding="utf-8")
    assert all(len(key) == 64 and key.startswith(short) for short, key in full.items())
    assert isinstance(json.loads(next((old / "runs").iterdir()).read_text())["verdicts"][0], dict)

    # Every old record decodes equal to its new form.
    assert load_run_records(old) == records
    assert _cli("cost", "--run-dir", old) == _cli("cost", "--run-dir", new)
    for record in records:
        for fmt in ("structured", "dot"):
            export = ("export", "--claim-id", record.claim_id, "--format", fmt, "--run-dir")
            assert _cli(*export, old) == _cli(*export, new)
    assert judge_run(old, config).to_dict() == judge_run(new, config).to_dict()

    # A resume skips the done claims, and a lost record's replies are all in the store.
    lost = old / "runs" / pipeline._record_filename(claims[0].claim_id)
    lost.unlink()
    kept = _file_bytes(old / "runs")
    provider = CountingRefuser(lambda prompt: False, None)
    result = run_batch(claims, config, old, provider=provider)
    assert (result.processed, result.skipped, provider.answered) == (1, 2, 0)
    assert {name: _file_bytes(old / "runs")[name] for name in kept} == kept
    replayed = pipeline.load_run_record(old, claims[0].claim_id)
    (original,) = [r for r in records if r.claim_id == claims[0].claim_id]
    assert replace(replayed, durations={}, stage_usage={}) == replace(
        original, durations={}, stage_usage={}
    )


def test_a_run_directory_in_the_inline_text_form_resumes_and_reads_the_same(workspace, tmp_path):
    """Record files whose hits hold their texts, as written before the text
    table, resume beside new ones and read, cost, export and judge as a fresh run's."""
    claims, config = workspace.records[:4], PipelineConfig()
    fresh, mixed = tmp_path / "fresh", tmp_path / "mixed"
    run_batch(claims, config, fresh, provider=ScriptedResponder(seed=0))
    shutil.copytree(fresh, mixed)
    for path in (mixed / "runs").iterdir():
        jsonform.write_json(path, _inline_text_form(json.loads(path.read_text(encoding="utf-8"))))
    # Two records and the response log are lost, so the resume runs those
    # claims again and books their calls (a reply from the store books none).
    lost = {claim.claim_id: mixed / "runs" / pipeline._record_filename(claim.claim_id) for claim in claims[::2]}
    for path in lost.values():
        path.unlink()
    shutil.rmtree(mixed / "cache")
    result = run_batch(claims, config, mixed, provider=ScriptedResponder(seed=0))
    assert (result.processed, result.skipped) == (2, 2)
    tabled = {path for path in (mixed / "runs").iterdir() if "texts" in json.loads(path.read_text(encoding="utf-8"))}
    assert tabled == set(lost.values())
    # Only their timings differ from the fresh run's; give them its durations.
    fresh_records = {record.claim_id: record for record in load_run_records(fresh)}
    for claim_id, path in lost.items():
        replayed = pipeline.load_run_record(mixed, claim_id)
        jsonform.write_json(path, replace(replayed, durations=fresh_records[claim_id].durations).to_dict())

    assert load_run_records(mixed) == load_run_records(fresh)
    assert _cli("cost", "--run-dir", mixed) == _cli("cost", "--run-dir", fresh)
    for record in fresh_records.values():
        for fmt in ("structured", "dot"):
            export = ("export", "--claim-id", record.claim_id, "--format", fmt, "--run-dir")
            assert _cli(*export, mixed) == _cli(*export, fresh)
    assert judge_run(mixed, config).to_dict() == judge_run(fresh, config).to_dict()


def test_export_of_a_claim_without_a_record_names_it(workspace):
    export = ["export", "--run-dir", str(workspace.recorded_run_dir), "--claim-id", "ghost"]
    result = CliRunner().invoke(cli_main, export)
    assert result.exit_code == 1
    assert result.output == "Error: no record for claim id 'ghost'\n"


@pytest.mark.parametrize("text", ['{"claim_id": ', "[]", "{}"])
def test_an_unreadable_record_is_a_one_line_error(workspace, tmp_path, text):
    run_dir, _ = _run_dir_with_a_corrupt_record(workspace, tmp_path, text)
    with pytest.raises(ConfigError, match="^unreadable run record .*runs"):
        load_run_records(run_dir)
    result = CliRunner().invoke(cli_main, ["cost", "--run-dir", str(run_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: unreadable run record ")
    assert len(result.output.splitlines()) == 1


def test_load_run_config(workspace):
    assert load_run_config(workspace.recorded_run_dir) == workspace.config


def test_cost_report_arithmetic(workspace):
    records = load_run_records(workspace.recorded_run_dir)
    report = cost_report(workspace.recorded_run_dir, workspace.config)
    assert report.claim_count == len(records)

    expected_in = sum(
        entry["input_tokens"] for r in records for entry in r.stage_usage.values()
    )
    expected_out = sum(
        entry["output_tokens"] for r in records for entry in r.stage_usage.values()
    )
    assert report.total_input_tokens == expected_in
    assert report.total_output_tokens == expected_out
    assert sum(e["input_tokens"] for e in report.stage_tokens.values()) == expected_in
    assert report.avg_tokens_per_claim == pytest.approx(
        (expected_in + expected_out) / len(records)
    )
    assert report.input_cost + report.output_cost == report.total_cost

    c = report.latency_components
    assert report.estimated_latency == pytest.approx(
        c["T_dec"]
        + c["T_rel"]
        + report.avg_subclaims * (c["T_ret"] + c["T_comp"] + c["T_bg"])
        + c["T_pred"]
        + c["T_final"]
    )
    assert report.measured_latency > 0
    assert report.predictions_by_source == {"zero_shot": len(records)}
    assert "latency model:" in report.render_text()


def test_cost_report_empty_run(tmp_path):
    run_dir = tmp_path / "run"
    run_batch([], PipelineConfig(), run_dir)
    report = cost_report(run_dir, PipelineConfig())
    assert report.claim_count == 0
    assert report.total_cost == 0
    assert report.estimated_latency == 0.0


STAGE_SECONDS = {
    "claim_decomposition": 0.011,
    "edge_generation": 0.013,
    "hyperedge_generation": 0.029,
    "evidence_retrieval": 0.0021,
    "explanation_generation": 0.067,
    "background_generation": 0.031,
    "inference": 0.017,
    "final_explanation_generation": 0.019,
}

# (stage trace, node count, n) of one claim.
WRITTEN_SHAPES = {
    "default": (STANDARD_TRACE, 3, 3),
    "no_edges": ([s for s in STANDARD_TRACE if s != "edge_generation"], 3, 3),
    "no_subclaims": (["evidence_retrieval", "explanation_generation", "inference"], 1, 0),
    "hypergraph": ([s.replace("edge_", "hyperedge_") for s in STANDARD_TRACE], 3, 3),
    "background": (STANDARD_TRACE[:4] + ["background_generation"] + STANDARD_TRACE[4:], 3, 3),
}


def scripted_shape(name, claim):
    """The shape of one scripted ``run_claim`` under a record-stability config."""
    record = run_claim(build_runtime(PipelineConfig(**STABILITY_CONFIGS[name])), claim)
    assert record.failure is None
    return list(record.durations), len(record.explanations), record.n


def test_latency_formula_names_every_term():
    assert set(re.findall(r"T_[a-z]+", pipeline.LATENCY_FORMULA)) == {
        "T_total", *pipeline.LATENCY_TERMS.values()
    }


@pytest.mark.parametrize(
    "shape", [*WRITTEN_SHAPES, *(f"scripted-{name}" for name in STABILITY_CONFIGS)]
)
def test_estimated_latency_equals_measured_for_one_claim(shape, workspace, tmp_path):
    if shape in WRITTEN_SHAPES:
        trace, nodes, n = WRITTEN_SHAPES[shape]
    else:
        # Every stage a config times must have its term in the model.
        trace, nodes, n = scripted_shape(shape.removeprefix("scripted-"), workspace.records[0])
    record = RunRecord(
        claim_id="c1",
        claim="A claim.",
        scheme="three_way",
        sub_claims=[f"Sub-claim {i}." for i in range(1, n + 1)],
        explanations=[{} for _ in range(nodes)],  # only their number counts here
        durations={stage: STAGE_SECONDS[stage] for stage in trace},
    )
    write_reports(tmp_path, PipelineConfig(), [record])
    cost = json.loads((tmp_path / "cost.json").read_text(encoding="utf-8"))
    assert cost["measured_latency_sec"] == pytest.approx(sum(record.durations.values()))
    assert abs(cost["estimated_latency_sec"] - cost["measured_latency_sec"]) < 1e-9
    assert cost["avg_subclaims"] == nodes


def test_cli_ingest_reports_match(workspace):
    runner = CliRunner()
    result = runner.invoke(cli_main, ["ingest", "--manifest", str(workspace.manifest_path)])
    assert result.exit_code == 0, result.output
    assert "expected stats: match" in result.output


def test_cli_run_evaluate_cost_export(workspace, tmp_path):
    runner = CliRunner()
    run_dir = tmp_path / "cli_run"
    result = runner.invoke(
        cli_main,
        [
            "run",
            "--manifest", str(workspace.manifest_path),
            "--out", str(run_dir),
            "--limit", "2",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "processed 2, skipped 0" in result.output

    result = runner.invoke(cli_main, ["evaluate", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert "macro precision" in result.output

    result = runner.invoke(cli_main, ["cost", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert "latency model:" in result.output

    claim_id = load_run_records(run_dir)[0].claim_id
    result = runner.invoke(
        cli_main, ["export", "--run-dir", str(run_dir), "--claim-id", claim_id]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["format"] == "explanation-graph/v1"

    dot_path = tmp_path / "graph.dot"
    result = runner.invoke(
        cli_main,
        [
            "export",
            "--run-dir", str(run_dir),
            "--claim-id", claim_id,
            "--format", "dot",
            "--out", str(dot_path),
        ],
    )
    assert result.exit_code == 0, result.output
    assert dot_path.read_text(encoding="utf-8").startswith("digraph")

    result = runner.invoke(
        cli_main, ["export", "--run-dir", str(run_dir), "--claim-id", "ghost"]
    )
    assert result.exit_code != 0
    assert "no record" in result.output


def test_cli_run_accepts_a_runs_own_config(workspace, tmp_path):
    runner = CliRunner()
    run = ["run", "--manifest", str(workspace.manifest_path), "--limit", "1"]
    first, again = tmp_path / "first", tmp_path / "again"
    result = runner.invoke(cli_main, [*run, "--out", str(first), "--ablation", "no_edges"])
    assert result.exit_code == 0, result.output
    config_path = first / "config.json"
    result = runner.invoke(cli_main, [*run, "--out", str(again), "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "processed 1, skipped 0" in result.output
    assert (again / "config.json").read_bytes() == config_path.read_bytes()


def test_cli_run_sets_both_concurrency_flags(workspace, tmp_path, monkeypatch):
    seen = []
    build = pipeline.build_runtime

    def building(config, *args, **kwargs):
        runtime = build(config, *args, **kwargs)
        seen.append((runtime.calls._max_workers, runtime.gateway._in_flight._value))
        return runtime

    monkeypatch.setattr(pipeline, "build_runtime", building)
    run_dir = tmp_path / "run"
    run = ["run", "--manifest", str(workspace.manifest_path), "--out", str(run_dir)]
    result = CliRunner().invoke(cli_main, [*run, "--limit", "1"])
    assert result.exit_code == 0, result.output
    flags = ["--claim-concurrency", "1", "--provider-concurrency", "3"]
    result = CliRunner().invoke(cli_main, [*run, "--limit", "2", *flags])
    assert result.exit_code == 0, result.output
    assert "processed 1, skipped 1" in result.output
    config = load_run_config(run_dir)
    assert (config.claim_concurrency, config.provider_concurrency) == (1, 3)
    assert seen == [(16, 16), (3, 3)]

    result = CliRunner().invoke(cli_main, [*run, "--provider-concurrency", "0"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--provider-concurrency'" in result.output
    help_text = CliRunner().invoke(cli_main, ["run", "--help"]).output
    assert "--claim-concurrency" in help_text and "--provider-concurrency" in help_text


def test_cli_run_rejects_a_negative_limit(workspace, tmp_path):
    run_dir = tmp_path / "run"
    result = CliRunner().invoke(
        cli_main,
        ["run", "--manifest", str(workspace.manifest_path), "--out", str(run_dir), "--limit", "-1"],
    )
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--limit'" in result.output
    assert not run_dir.exists()


def _mode(path: Path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


def test_every_file_a_run_or_export_writes_has_a_plain_writes_mode(two_records, tmp_path):
    run_dir, out = tmp_path / "run", tmp_path / "graph.json"
    run_batch(two_records, PipelineConfig(), run_dir)
    claim_id = load_run_records(run_dir)[0].claim_id
    export = ["export", "--run-dir", str(run_dir), "--claim-id", claim_id, "--out", str(out)]
    result = CliRunner().invoke(cli_main, export)
    assert result.exit_code == 0, result.output
    written = [out, *(path for path in run_dir.rglob("*") if path.is_file())]
    assert {path.parent.name for path in written} == {tmp_path.name, "run", "runs", "cache"}
    plain = {}
    for directory in {path.parent for path in written}:
        probe = directory / "plain.probe"
        probe.write_text("x", encoding="utf-8")
        plain[directory] = _mode(probe)
        probe.unlink()
    assert {path: _mode(path) for path in written} == {path: plain[path.parent] for path in written}


def test_a_failed_export_write_leaves_the_old_file_whole(workspace, tmp_path, monkeypatch):
    out = tmp_path / "graph.json"
    out.write_text("old graph", encoding="utf-8")
    claim_id = next(
        r.claim_id for r in load_run_records(workspace.recorded_run_dir) if r.explanation_graph
    )

    def disk_full(source, target):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(jsonform.os, "replace", disk_full)
    result = CliRunner().invoke(
        cli_main,
        ["export", "--run-dir", str(workspace.recorded_run_dir), "--claim-id", claim_id,
         "--out", str(out)],
    )
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == ["Error: [Errno 28] No space left on device"]
    assert out.read_text(encoding="utf-8") == "old graph"
    assert list(tmp_path.iterdir()) == [out]


def test_cli_run_rejects_scheme_mismatch(workspace, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(PipelineConfig(scheme_name="six_way").to_dict()), encoding="utf-8"
    )
    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        [
            "run",
            "--manifest", str(workspace.manifest_path),
            "--out", str(tmp_path / "run"),
            "--config", str(config_path),
        ],
    )
    assert result.exit_code != 0
    assert "does not match" in result.output


def test_cli_run_applies_ablation_overrides(workspace, tmp_path):
    runner = CliRunner()
    run_dir = tmp_path / "ablated"
    result = runner.invoke(
        cli_main,
        [
            "run",
            "--manifest", str(workspace.manifest_path),
            "--out", str(run_dir),
            "--limit", "1",
            "--ablation", "no_edges",
        ],
    )
    assert result.exit_code == 0, result.output
    config = load_run_config(run_dir)
    assert config.ablations == ("no_edges",)
    record = load_run_records(run_dir)[0]
    assert "edge_generation" not in record.stage_trace
