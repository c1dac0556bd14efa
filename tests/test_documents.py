"""Malformed documents: every JSON document read back is one checked read.

Each reader is run through the command line on a truncated, a non-object,
an empty and a wrong-typed document, and run records also on wrong nested
values and on parts that cannot form an explanation graph. Each must exit 1
with one ``Error:`` line, never a traceback. A config whose runtime cannot
be built must leave no ``config.json`` behind, so the corrected config is
not refused.
"""
import dataclasses
import json
import operator
import shutil
from functools import reduce
from pathlib import Path

import pytest
from click.testing import CliRunner

from claimgraph import pipeline
from claimgraph.cli import main as cli_main
from claimgraph.errors import ConfigError
from claimgraph.explain import CompetingExplanations
from claimgraph.graphs import LLM_GENERATED, DependencyEdge
from claimgraph.pipeline import (
    PipelineConfig,
    RunRecord,
    build_runtime,
    load_run_records,
    run_batch,
)
from claimgraph.retrieval import EvidenceSet, RetrievedEvidence
from claimgraph.summarize import SubClaimVerdict

TRUNCATED, NOT_AN_OBJECT, EMPTY = '{"k": ', "[]", "{}"
NO_SUCH_DIRECTORY = str(Path(__file__).with_name("no-such-fixtures"))

# An empty config is the default config, so ``{}`` is no malformed config.
CONFIG_BODIES = {
    "truncated": TRUNCATED,
    "not_an_object": NOT_AN_OBJECT,
    "k_str": '{"k": "x"}',
    "k_float": '{"k": 2.0}',
    "k_bool": '{"k": true}',
    "claim_concurrency_str": '{"claim_concurrency": "4"}',
    "provider_concurrency_zero": '{"provider_concurrency": 0}',
    "provider_str": '{"provider": "x"}',
    "ablations_int": '{"ablations": 5}',
    "scheme_unknown": '{"scheme_name": "nine_way"}',
}
# Decoded, but no runtime can be built from them; only ``run`` builds one.
RUNTIME_BODIES = {
    "stub_without_probabilities": json.dumps(
        {"inference_path": "external_adapter", "adapter": {"type": "stub"}}
    ),
    "fixture_without_path": '{"provider": {"type": "fixture"}}',
    "fixture_path_missing": json.dumps(
        {"provider": {"type": "fixture", "path": NO_SUCH_DIRECTORY}}
    ),
}
DOCUMENT_BODIES = {"truncated": TRUNCATED, "not_an_object": NOT_AN_OBJECT, "empty": EMPTY}


def _explained_record(run_dir):
    return next(r for r in load_run_records(run_dir) if r.explanation_graph)


def _copy_run(workspace, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace.recorded_run_dir, run_dir)
    return run_dir, _explained_record(run_dir)


def _record_path(run_dir, record):
    return run_dir / "runs" / pipeline._record_filename(record.claim_id)


def run_with_config(workspace, tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--manifest", str(workspace.manifest_path), "--out", str(out)]
    return argv + ["--config", str(path), "--limit", "1"]


def cost_with_run_config(workspace, tmp_path, body):
    run_dir, _ = _copy_run(workspace, tmp_path)
    (run_dir / "config.json").write_text(body, encoding="utf-8")
    return ["cost", "--run-dir", str(run_dir)]


def ingest_manifest(workspace, tmp_path, body):
    path = tmp_path / "manifest.json"
    path.write_text(body, encoding="utf-8")
    return ["ingest", "--manifest", str(path)]


def _run_with_record(workspace, tmp_path, body):
    run_dir, record = _copy_run(workspace, tmp_path)
    _record_path(run_dir, record).write_text(body, encoding="utf-8")
    return str(run_dir)


def evaluate_record(workspace, tmp_path, body):
    return ["evaluate", "--run-dir", _run_with_record(workspace, tmp_path, body)]


def cost_with_record(workspace, tmp_path, body):
    return ["cost", "--run-dir", _run_with_record(workspace, tmp_path, body)]


def export_explanation_graph(workspace, tmp_path, body):
    run_dir, record = _copy_run(workspace, tmp_path)
    _record_path(run_dir, record).write_text(body, encoding="utf-8")
    return ["export", "--run-dir", str(run_dir), "--claim-id", record.claim_id, "--format", "dot"]


def judge_explanation_graph(workspace, tmp_path, body):
    return ["evaluate", "--run-dir", _run_with_record(workspace, tmp_path, body), "--judge"]


def _explained_payload(workspace):
    return _explained_record(workspace.recorded_run_dir).to_dict()


def _record_with(workspace, **fields):
    return json.dumps(dict(_explained_payload(workspace), **fields))


def _at(kind, name):
    """The position of field ``name`` in a row of ``kind``, as a record writes its parts."""
    return [f.name for f in dataclasses.fields(kind)].index(name)


def _row_with(row, position, value):
    return [value if i == position else item for i, item in enumerate(row)]


def _record_leaf(workspace, path, value):
    """The explained record with the leaf at ``path``, keys and indices, set to ``value``."""
    payload = _explained_payload(workspace)
    *parents, leaf = path
    reduce(operator.getitem, parents, payload)[leaf] = value
    return json.dumps(payload)


def _kept_side(workspace):
    """The position of the side of node 1's pair that its verdict keeps in the explanation graph."""
    verdict = _explained_payload(workspace)["verdicts"][0][_at(SubClaimVerdict, "verdict")]
    return _at(CompetingExplanations, "true_oriented" if verdict else "false_oriented")


def _verdicts_with(workspace, edit):
    return _record_with(workspace, verdicts=edit(_explained_payload(workspace)["verdicts"]))


def _edge_added(workspace, source, target):
    payload = _explained_payload(workspace)
    payload["graph"]["edges"].append([source, target, LLM_GENERATED])
    return json.dumps(payload)


# The first hit of node 1's evidence set: its index into the record's ``texts``.
HIT_TEXT = ("evidence", 0, _at(EvidenceSet, "items"), 0, _at(RetrievedEvidence, "text"))
MANIFEST = '{"name": "t", "scheme": "three_way", "split": "test", "claims": 5}'
USAGE = {"input_tokens": 1, "output_tokens": 1}
# Record parts of the wrong shape: each is decoded into its typed part.
PART_BODIES = {
    "evidence_without_fields": lambda ws: _record_with(ws, evidence=[{"x": 1}]),
    "explanation_index_str": lambda ws: _record_with(
        ws, explanations=[{"sub_claim_index": "a"}]
    ),
    "graph_edges_int": lambda ws: _record_with(ws, graph={"edges": 5}),
    "explanation_row_short": lambda ws: _record_with(ws, explanations=[[1, "a", "b"]]),
    "evidence_row_short": lambda ws: _record_with(ws, evidence=[[1, []]]),
    "evidence_text_index_beyond_texts": lambda ws: _record_leaf(
        ws, HIT_TEXT, len(_explained_payload(ws)["texts"])
    ),
    "evidence_text_index_str": lambda ws: _record_leaf(ws, HIT_TEXT, "0"),
    "texts_dict": lambda ws: _record_with(ws, texts={}),
}
# Records whose nested values are wrong: each stage must be a stage of a
# claim, each duration a number, each usage entry the ledger's int counts.
RECORD_BODIES = {
    **PART_BODIES,
    "duration_str": lambda ws: _record_with(ws, durations={"inference": "x"}),
    "duration_of_no_stage": lambda ws: _record_with(ws, durations={"bogus_stage": 0.1}),
    # A Stage, but evaluation's call, not a claim's.
    "usage_of_judge": lambda ws: _record_with(ws, stage_usage={"judge": dict(USAGE, calls=1)}),
    "usage_without_calls": lambda ws: _record_with(ws, stage_usage={"inference": USAGE}),
    "usage_calls_str": lambda ws: _record_with(
        ws, stage_usage={"inference": dict(USAGE, calls="1")}
    ),
}
VERDICT = ("verdicts", 0, _at(SubClaimVerdict, "verdict"))
INDEX = _at(SubClaimVerdict, "sub_claim_index")
EDGE_SOURCE = ("graph", "edges", 0, _at(DependencyEdge, "source"))
# A fault in a part the explanation graph is derived from: the record is unreadable.
GRAPH_BODIES = dict(
    DOCUMENT_BODIES,
    sub_claims_int=lambda ws: _record_leaf(ws, ("sub_claims",), 5),
    verdict_str=lambda ws: _record_leaf(ws, VERDICT, "no"),
    verdict_int=lambda ws: _record_leaf(ws, VERDICT, 0),
    edge_source_str=lambda ws: _record_leaf(ws, EDGE_SOURCE, "1"),
    kept_text_int=lambda ws: _record_leaf(ws, ("explanations", 0, _kept_side(ws)), 5),
    sub_claim_text_int=lambda ws: _record_leaf(ws, ("sub_claims", 0), 5),
    claim_int=lambda ws: _record_leaf(ws, ("claim",), 5),
    summary_int=lambda ws: _record_with(ws, summary=5),
    index_str=lambda ws: _verdicts_with(
        ws, lambda verdicts: [_row_with(v, INDEX, str(v[INDEX])) for v in verdicts]
    ),
)
# Parts that read back but cannot form an explanation graph.
UNDERIVABLE_BODIES = {
    "verdicts_short": lambda ws: _verdicts_with(ws, lambda verdicts: verdicts[:-1]),
    "verdicts_repeated": lambda ws: _verdicts_with(ws, lambda verdicts: verdicts[:1] + verdicts[:-1]),
    "verdict_beyond_n": lambda ws: _verdicts_with(
        ws, lambda verdicts: verdicts[:-1] + [_row_with(verdicts[-1], INDEX, len(verdicts) + 1)]
    ),
    "explanations_short": lambda ws: _record_with(
        ws, explanations=_explained_payload(ws)["explanations"][:-1]
    ),
    "label_outside_scheme": lambda ws: _record_leaf(ws, ("prediction", "label"), "bogus"),
    "edge_beyond_n": lambda ws: _edge_added(ws, 9, 0),
    "self_loop": lambda ws: _edge_added(ws, 1, 1),
}
# (reader, bodies, what its one error line starts with, if fixed); a callable
# body is built from the recorded run.
READERS = [
    (run_with_config, dict(CONFIG_BODIES, **RUNTIME_BODIES), None),
    (cost_with_run_config, CONFIG_BODIES, None),
    (ingest_manifest, dict(DOCUMENT_BODIES, claims_int=MANIFEST), "Error: unreadable manifest "),
    (
        evaluate_record,
        dict(
            DOCUMENT_BODIES,
            durations_list=lambda ws: _record_with(ws, durations=[]),
            prediction_empty=lambda ws: _record_with(ws, prediction={}),
            prediction_label_int=lambda ws: _record_with(ws, prediction={"label": 3}),
            failure_stage_int=lambda ws: _record_with(ws, failure={"stage": 5}),
            **PART_BODIES,
        ),
        "Error: unreadable run record ",
    ),
    (cost_with_record, RECORD_BODIES, "Error: unreadable run record "),
    (export_explanation_graph, GRAPH_BODIES, "Error: unreadable run record "),
    (judge_explanation_graph, GRAPH_BODIES, "Error: unreadable run record "),
    (export_explanation_graph, UNDERIVABLE_BODIES, "Error: claim "),
    # A label outside the scheme fails the judge's outcomes before any graph is derived.
    (judge_explanation_graph, UNDERIVABLE_BODIES, None),
]
CASES = [
    pytest.param(reader, body, said, id=f"{reader.__name__}-{name}")
    for reader, bodies, said in READERS
    for name, body in bodies.items()
]


@pytest.mark.parametrize("reader, body, said", CASES)
def test_a_malformed_document_is_one_error_line(workspace, tmp_path, reader, body, said):
    if callable(body):
        body = body(workspace)
    result = CliRunner().invoke(cli_main, reader(workspace, tmp_path, body))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(said or "Error: "), result.output
    assert not (tmp_path / "out" / "config.json").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 2.0),
        ("k", True),
        ("max_output_tokens", False),
        ("generation_temperature", True),
        ("claim_concurrency", "4"),
        ("provider", "x"),
        ("adapter", []),
        ("ablations", 5),
        ("cache_enabled", 1),
    ],
)
def test_a_config_value_of_the_wrong_json_type_names_its_field(field, value):
    with pytest.raises(ConfigError, match=f"PipelineConfig field '{field}' must be"):
        PipelineConfig.from_dict({field: value})


@pytest.mark.parametrize(
    "build", [PipelineConfig.from_dict, lambda fields: PipelineConfig(**fields)]
)
def test_an_unknown_scheme_names_its_field(build):
    with pytest.raises(ConfigError, match="^scheme_name: unknown label scheme: 'nine_way'$"):
        build({"scheme_name": "nine_way"})


@pytest.mark.parametrize(
    "field", ["k", "background_pool_size", "max_output_tokens", "claim_concurrency",
              "provider_concurrency"]
)
def test_a_count_below_one_names_its_field(field):
    with pytest.raises(ConfigError, match=f"^{field} must be at least 1$"):
        PipelineConfig.from_dict({field: 0})


@pytest.mark.parametrize(
    "payload, fault",
    [
        ({"ablations": [5]}, "field 'ablations' item 0 must be str, not int"),
        ({"provider": {"type": "fixture", "path": 5}}, None),
        ({"adapter": {"type": "stub", "probabilities": [True]}}, None),
    ],
)
def test_config_items_are_checked_where_the_annotation_types_them(payload, fault):
    if fault is None:
        assert PipelineConfig.from_dict(payload) == PipelineConfig(**payload)
    else:
        with pytest.raises(ConfigError, match=f"^PipelineConfig {fault}$"):
            PipelineConfig.from_dict(payload)


@pytest.mark.parametrize(
    "fields, fault",
    [
        (
            {"durations": {"inference": True}},
            "field 'durations' item 'inference' must be int or float, not bool",
        ),
        (
            {"stage_usage": {"inference": dict(USAGE, calls=1.0)}},
            "field 'stage_usage' item 'inference' field 'calls' must be int, not float",
        ),
        (
            {"evidence": [{"sub_claim_index": 1, "items": [], "k": 5}, []]},
            "field 'evidence' item 1 must hold 3 items, not 0",
        ),
        (
            {"stage_usage": {"inference": {"input_tokens": 1, "calls": 1}}},
            "field 'stage_usage' item 'inference' field 'output_tokens' is missing",
        ),
        (
            {"durations": {"bogus_stage": 0.1}},
            "field 'durations' key 'bogus_stage' must be a Stage value, not 'bogus_stage'",
        ),
    ],
)
def test_record_items_are_checked_down_to_the_leaves(fields, fault):
    payload = dict(claim_id="c", claim="x", scheme="three_way", **fields)
    with pytest.raises(TypeError, match=f"^RunRecord {fault}$"):
        RunRecord.from_dict(payload)


def test_a_record_file_holding_a_stage_trace_reads_back_equal(workspace, tmp_path):
    """A file written when the trace was stored holds a ``stage_trace`` key; it is ignored."""
    run_dir, record = _copy_run(workspace, tmp_path)
    path = _record_path(run_dir, record)
    path.write_text(_record_with(workspace, stage_trace=[*map(str, record.stage_trace)]), encoding="utf-8")
    assert "stage_trace" in json.loads(path.read_text(encoding="utf-8"))
    assert load_run_records(run_dir) == load_run_records(workspace.recorded_run_dir)
    assert pipeline.load_run_record(run_dir, record.claim_id).stage_trace == record.stage_trace


def test_float_fields_take_ints_and_keep_them():
    config = PipelineConfig.from_dict({"generation_temperature": 1})
    assert config == PipelineConfig(generation_temperature=1)
    assert type(config.generation_temperature) is int


EXTERNAL = {"inference_path": "external_adapter"}


def stub(*probabilities):
    return {"type": "stub", "probabilities": list(probabilities)}


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"provider": {"type": "fixture"}}, "path"),
        ({"provider": {"type": "http"}}, "base_url"),
        ({"provider": {"type": "scripted", "seed": "x"}}, "seed"),
        ({"embedder": {"type": "remote", "dimension": 8}}, "endpoint"),
        ({"embedder": {"type": "remote", "endpoint": "http://e"}}, "dimension"),
        ({"embedder": {"type": "hashing", "dimension": 0}}, "dimension"),
        (dict(EXTERNAL, adapter={"type": "stub"}), "probabilities"),
        (dict(EXTERNAL, adapter={"type": "stub", "probabilities": 0.5}), "probabilities"),
        (dict(EXTERNAL, adapter={"type": "http"}), "url"),
        (dict(EXTERNAL, adapter={"type": "command"}), "argv"),
        ({"provider": {"type": "fixture", "path": NO_SUCH_DIRECTORY}}, "path"),
        ({"embedder": {"type": "remote", "endpoint": "http://e", "dimension": 0}}, "dimension"),
        ({"embedder": {"type": "remote", "endpoint": "http://e", "dimension": -3}}, "dimension"),
        (dict(EXTERNAL, adapter={"type": "command", "argv": []}), "argv"),
        # A stub that could never predict: sum not 1, a negative entry, NaN.
        (dict(EXTERNAL, adapter=stub(0.5, 0.1, 0.1)), "probabilities"),
        (dict(EXTERNAL, adapter=stub(1.2, -0.2, 0.0)), "probabilities"),
        (dict(EXTERNAL, adapter=stub(float("nan"), 0.5, 0.5)), "probabilities"),
    ],
)
def test_a_runtime_that_cannot_be_built_names_the_key(changes, key):
    with pytest.raises(ConfigError, match=f"^unreadable [a-z]+ config .*'{key}'"):
        build_runtime(PipelineConfig(**changes))


def test_a_config_whose_runtime_cannot_be_built_never_stamps_the_run_dir(workspace, tmp_path):
    run_dir = tmp_path / "run"
    broken = PipelineConfig(**EXTERNAL, adapter={"type": "stub"})
    with pytest.raises(ConfigError, match="'probabilities'"):
        run_batch(workspace.records[:1], broken, run_dir)
    assert not run_dir.exists()
    fixed = PipelineConfig(**EXTERNAL, adapter={"type": "stub", "probabilities": [0.2, 0.3, 0.5]})
    result = run_batch(workspace.records[:1], fixed, run_dir)
    assert result.processed == 1
    assert pipeline.load_run_config(run_dir) == fixed
