import errno
import json
import re
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from click.testing import CliRunner

from claimgraph import pipeline
from claimgraph.adapters import LineAdapterClient
from claimgraph.cli import main as cli_main
from claimgraph.errors import ConfigError, EmbeddingError, ProviderUnavailableError
from claimgraph.gateway import FixtureProvider
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.pipeline import (
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

from test_record_stability import CONFIGS as STABILITY_CONFIGS

STANDARD_TRACE = [
    "claim_decomposition",
    "edge_generation",
    "evidence_retrieval",
    "explanation_generation",
    "inference",
    "final_explanation_generation",
]


def test_config_hash_tracks_content():
    a, b = PipelineConfig(), PipelineConfig()
    assert a.config_hash() == b.config_hash()
    assert PipelineConfig(k=3).config_hash() != a.config_hash()
    assert len(a.config_hash()) == 12


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


def test_standard_stage_trace(scripted_config, two_records):
    record = run_one(scripted_config, two_records[0])
    assert record.succeeded
    assert record.stage_trace == STANDARD_TRACE
    assert record.n >= 2
    assert record.graph is not None
    assert record.structure_text.startswith("Directed Graph")
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
    record = run_one(config, two_records[0])
    assert record.stage_trace == [s for s in STANDARD_TRACE if s != "edge_generation"]
    # Safeguard links only: every edge points at the claim node.
    assert all(e["target"] == 0 for e in record.graph["edges"])
    assert all(e["provenance"] == "safeguard" for e in record.graph["edges"])
    assert record.structure_text is None


def test_no_evidence_trace(two_records):
    config = PipelineConfig(ablations=("no_evidence",))
    record = run_one(config, two_records[0])
    assert record.stage_trace == [s for s in STANDARD_TRACE if s != "evidence_retrieval"]
    assert all(not e["items"] for e in record.evidence)


def test_hypergraph_trace(two_records):
    config = PipelineConfig(graph_structure="hypergraph")
    record = run_one(config, two_records[0])
    expected = list(STANDARD_TRACE)
    expected[1] = "hyperedge_generation"
    assert record.stage_trace == expected
    assert record.structure_text.startswith("Hypergraph")
    assert record.hypergraph is not None


def test_background_trace(two_records):
    config = PipelineConfig(with_background=True)
    record = run_one(config, two_records[0])
    expected = list(STANDARD_TRACE)
    expected.insert(4, "background_generation")
    assert record.stage_trace == expected
    assert all(e["background"] for e in record.explanations)


def test_adapter_prediction_source(two_records):
    config = PipelineConfig(
        inference_path="external_adapter",
        adapter={"type": "stub", "probabilities": [0.1, 0.7, 0.2]},
    )
    record = run_one(config, two_records[0])
    assert record.prediction["source"] == "external_adapter"
    assert record.prediction["label"] == "half"
    assert record.prediction["probabilities"] == [0.1, 0.7, 0.2]


class DeadProvider:
    """Fails every request immediately (no retryable path, no sleeps)."""

    def generate(self, request):
        raise ProviderUnavailableError("endpoint gone")


def test_failures_are_recorded_not_raised(two_records, tmp_path):
    config = PipelineConfig()
    runtime = build_runtime(config, provider=DeadProvider())
    record = run_claim(runtime, two_records[0])
    assert not record.succeeded
    assert record.failure == {
        "stage": "claim_decomposition",
        "message": "endpoint gone",
    }
    assert record.failure["stage"] == record.stage_trace[-1]

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
def test_failure_is_charged_to_the_running_stage(two_records, ablations, template, stage):
    marker = prompt_marker(template)
    provider = CountingRefuser(
        lambda prompt: prompt.startswith(marker), ProviderUnavailableError("refused"), 0.01
    )
    runtime = build_runtime(PipelineConfig(ablations=ablations), provider=provider)
    record = run_claim(runtime, two_records[0])
    assert not record.succeeded
    assert record.failure == {"stage": stage, "message": "refused"}
    assert record.failure["stage"] == record.stage_trace[-1] == stage
    # Overlapped calls already running when the claim failed were waited for
    # and booked; none runs after the record is returned.
    answered = provider.answered
    assert answered == booked_calls(record)
    time.sleep(0.05)
    assert provider.answered == answered


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
        assert record.failure == {"stage": "explanation_generation", "message": "node 1 failed"}
        assert record.failure["stage"] == record.stage_trace[-1]
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
def test_retrieval_failure_is_charged_in_program_order(two_records, refuse_edges):
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
    stage = "edge_generation" if refuse_edges else "evidence_retrieval"
    assert record.failure["stage"] == stage == record.stage_trace[-1]
    assert record.stage_trace == STANDARD_TRACE[: STANDARD_TRACE.index(stage) + 1]
    # The edges were joined before the failure was charged, as at a sequential run.
    assert (record.graph is None) == refuse_edges
    assert provider.answered == booked_calls(record)


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


def test_unexpected_exception_fails_one_claim_not_the_batch(two_records, tmp_path):
    victim = two_records[1]
    provider = RefusingProvider(lambda prompt: victim.claim in prompt, RuntimeError("client bug"))
    result = run_batch(two_records, PipelineConfig(), tmp_path / "run", provider=provider)
    assert result.processed == 2
    records = {r.claim_id: r for r in load_run_records(tmp_path / "run")}
    assert set(records) == {r.claim_id for r in two_records}
    assert records[two_records[0].claim_id].succeeded
    assert records[victim.claim_id].failure == {
        "stage": "claim_decomposition",
        "message": "RuntimeError: client bug",
    }
    assert records[victim.claim_id].stage_trace == ["claim_decomposition"]
    assert result.report.failures_by_stage == {"claim_decomposition": 1}


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


def test_resume_spends_no_provider_calls(workspace):
    provider = FixtureProvider(workspace.fixture_dir)
    result = run_batch(
        workspace.records, workspace.config, workspace.recorded_run_dir, provider=provider
    )
    assert result.processed == 0
    assert result.skipped == len(workspace.records)
    assert provider.call_count == 0


def _file_bytes(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_run_batch_sweeps_orphaned_temp_files(two_records, tmp_path):
    run_dir = tmp_path / "run"
    run_batch(two_records, PipelineConfig(), run_dir)
    records, cache = _file_bytes(run_dir / "runs"), _file_bytes(run_dir / "cache")
    assert records and cache
    # What a kill inside write_text_atomic leaves: <name>.<random>.tmp files.
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


def test_fixture_replay_writes_no_copy_of_the_fixtures(workspace, tmp_path):
    # The config names the fixture provider; its replies are already stored.
    run_dir = tmp_path / "replay"
    result = run_batch(workspace.records[:2], workspace.config, run_dir)
    assert result.processed == 2
    assert all(r.succeeded for r in load_run_records(run_dir))
    assert list((run_dir / "cache").iterdir()) == []


def test_config_mismatch_guard(workspace, two_records, tmp_path):
    run_dir = tmp_path / "run"
    run_batch(two_records, PipelineConfig(), run_dir)
    with pytest.raises(ConfigError):
        run_batch(two_records, PipelineConfig(k=2), run_dir)
    result = run_batch(two_records, PipelineConfig(k=2), run_dir, force=True)
    assert result.skipped == 2  # existing records are still honored


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
        config_hash="0" * 12,
        n=n,
        explanations=[{} for _ in range(nodes)],  # only their number counts here
        stage_trace=list(trace),
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
