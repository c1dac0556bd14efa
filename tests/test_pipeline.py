import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from claimgraph.cli import main as cli_main
from claimgraph.errors import ConfigError, ProviderUnavailableError
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
    provider = RefusingProvider(
        lambda prompt: prompt.startswith(marker), ProviderUnavailableError("refused")
    )
    runtime = build_runtime(PipelineConfig(ablations=ablations), provider=provider)
    record = run_claim(runtime, two_records[0])
    assert not record.succeeded
    assert record.failure == {"stage": stage, "message": "refused"}
    assert record.failure["stage"] == record.stage_trace[-1] == stage


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
    assert result.report.failures_by_stage == {"claim_decomposition": 1}


def test_judge_run_scores_every_succeeded_claim(workspace, tmp_path):
    run_dir = tmp_path / "judged"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    plain = write_reports(run_dir, workspace.config)
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
        + report.avg_subclaims * (c["T_ret"] + c["T_comp"])
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
