import pytest

from claimgraph.adapters import StubAdapter
from claimgraph.errors import AdapterContractError, AssemblyError, PredictionError
from claimgraph.explain import CompetingExplanations
from claimgraph.gateway import Stage
from claimgraph.graphs import HyperGraph, assemble_claim_graph
from claimgraph.inference import (
    DefenseGraph,
    build_claim_only_prompt,
    build_graph_block,
    build_inference_prompt,
    build_node_content,
    graph_to_seq,
    hypergraph_to_seq,
    predict_with_adapter,
    predict_zero_shot,
    serialize_edges,
)
from claimgraph.labels import SIX_WAY, THREE_WAY

from fakes import FakeGateway

GOLDEN = (
    "Directed Graph describes a graph among 0, 1, 2, 3, 4, 5. "
    "Node 0 is connected to nodes 3, 4, and 5 by incoming edges. "
    "Node 3 is connected to nodes 1 and 2 by incoming edges."
)


def test_golden_serialization_is_byte_exact():
    pairs = [(3, 0), (4, 0), (5, 0), (1, 3), (2, 3)]
    assert serialize_edges(6, pairs) == GOLDEN


def test_serialization_source_count_phrasings():
    one = serialize_edges(2, [(1, 0)])
    assert one == (
        "Directed Graph describes a graph among 0, 1. "
        "Node 0 is connected to node 1 by incoming edges."
    )
    two = serialize_edges(3, [(1, 0), (2, 0)])
    assert two.endswith("Node 0 is connected to nodes 1 and 2 by incoming edges.")
    three = serialize_edges(4, [(1, 0), (2, 0), (3, 0)])
    assert three.endswith("Node 0 is connected to nodes 1, 2, and 3 by incoming edges.")


def test_serialization_orders_targets_and_sources_ascending():
    pairs = [(2, 1), (1, 0), (3, 1)]
    text = serialize_edges(4, pairs)
    assert text == (
        "Directed Graph describes a graph among 0, 1, 2, 3. "
        "Node 0 is connected to node 1 by incoming edges. "
        "Node 1 is connected to nodes 2 and 3 by incoming edges."
    )


def test_nodes_without_incoming_edges_are_omitted():
    text = serialize_edges(3, [])
    assert text == "Directed Graph describes a graph among 0, 1, 2."


def test_graph_to_seq_uses_all_nodes():
    graph = assemble_claim_graph("c", ["a", "b"], {(2, 1)})
    assert graph_to_seq(graph) == (
        "Directed Graph describes a graph among 0, 1, 2. "
        "Node 0 is connected to nodes 1 and 2 by incoming edges. "
        "Node 1 is connected to node 2 by incoming edges."
    )


def test_hypergraph_serialization():
    hyper = HyperGraph(
        claim="c",
        sub_claims=("a", "b", "d"),
        hyperedges=((1, 2, 0), (2, 3, 0)),
        provenance=("llm_generated", "llm_generated"),
    )
    assert hypergraph_to_seq(hyper) == (
        "Hypergraph describes a graph among 0, 1, 2, 3. "
        "Hyperedge 1 connects nodes 1, 2, and 0. "
        "Hyperedge 2 connects nodes 2, 3, and 0."
    )


def make_defense(with_background=False, lone=False):
    graph = assemble_claim_graph("The claim text.", ["sub one", "sub two"], {(2, 1)})
    entries = []
    for i in (1, 2):
        if lone:
            entry = CompetingExplanations(i, analysis=f"analysis {i}")
        else:
            entry = CompetingExplanations(
                i,
                false_oriented=f"false take {i}",
                true_oriented=f"true take {i}",
                background=f"background {i}" if with_background else None,
            )
        entries.append(entry)
    return DefenseGraph(graph, tuple(entries))


def test_node_content_layout():
    content = build_node_content(make_defense())
    lines = content.splitlines()
    assert lines[0] == "Node 0 (claim): The claim text."
    assert lines[1] == "Node 1 (Sub-claim 1): sub one;"
    assert lines[2] == (
        "Competing explanations: True-oriented explanation: true take 1; "
        "False-oriented explanation: false take 1."
    )
    assert lines[3] == "Node 2 (Sub-claim 2): sub two;"


def test_node_content_with_background_line():
    content = build_node_content(make_defense(with_background=True))
    lines = content.splitlines()
    assert lines[2] == "Background: background 1."
    assert lines[3].startswith("Competing explanations:")


def test_node_content_lone_analysis_line():
    content = build_node_content(make_defense(lone=True))
    assert "Analysis: analysis 1." in content
    assert "Competing explanations" not in content


def test_defense_graph_requires_full_coverage():
    graph = assemble_claim_graph("c", ["a", "b"], set())
    only_one = (CompetingExplanations(1, analysis="x"),)
    with pytest.raises(AssemblyError):
        DefenseGraph(graph, only_one)
    duplicated = (
        CompetingExplanations(1, analysis="x"),
        CompetingExplanations(1, analysis="y"),
    )
    with pytest.raises(AssemblyError):
        DefenseGraph(graph, duplicated)
    out_of_order = (
        CompetingExplanations(2, analysis="second"),
        CompetingExplanations(1, analysis="first"),
    )
    defense = DefenseGraph(graph, out_of_order)
    assert [e.sub_claim_index for e in defense.explanations] == [1, 2]
    assert defense.explanation_for(1).analysis == "first"
    assert defense.explanation_for(2).analysis == "second"


def test_inference_prompt_contains_structure_and_label_set():
    defense = make_defense()
    prompt = build_inference_prompt(defense, THREE_WAY, structure_text=graph_to_seq(defense.graph))
    assert "# Graph Structure: Directed Graph describes a graph among 0, 1, 2." in prompt
    assert "{false, half, true}" in prompt
    assert prompt.rstrip().endswith(
        "Please directly output your predicted label from {false, half, true}."
    )


def test_inference_prompt_structure_can_be_omitted():
    prompt = build_inference_prompt(make_defense(), THREE_WAY)
    assert "# Graph Structure" not in prompt
    assert "Directed Graph describes" not in prompt
    assert "# Node Content:" in prompt


def test_inference_prompt_accepts_structure_override():
    prompt = build_inference_prompt(
        make_defense(), THREE_WAY, structure_text="Hypergraph describes a graph among 0, 1, 2."
    )
    assert "# Graph Structure: Hypergraph describes" in prompt
    assert "Directed Graph describes" not in prompt


def test_graph_block_is_inference_body_minus_query():
    defense = make_defense()
    structure = graph_to_seq(defense.graph)
    block = build_graph_block(defense, structure_text=structure)
    assert "# Query" not in block
    assert "# Node Content:" in block
    assert "# Graph Structure:" in block
    full = build_inference_prompt(defense, THREE_WAY, structure_text=structure)
    assert full.startswith(block)


def test_claim_only_prompt_has_single_node_and_no_structure():
    pair = CompetingExplanations(0, false_oriented="f", true_oriented="t")
    prompt = build_claim_only_prompt("Just the claim.", pair, THREE_WAY)
    assert "Node 0 (claim): Just the claim." in prompt
    assert "Sub-claim" not in prompt
    assert "# Graph Structure" not in prompt
    assert "{false, half, true}" in prompt


def test_zero_shot_parses_verbose_reply():
    gw = FakeGateway(["I would say the label is half."])
    result = predict_zero_shot(gw, "prompt", THREE_WAY)
    assert result.label.identifier == "half"
    assert result.source == "zero_shot"
    assert result.probabilities is None


def test_zero_shot_retries_once_with_note():
    gw = FakeGateway(["no verdict in sight", "true"])
    result = predict_zero_shot(gw, "prompt", THREE_WAY)
    assert result.label.identifier == "true"
    assert gw.prompts[1][1] == "prompt\nAnswer with exactly one label."
    assert all(stage == Stage.INFERENCE for stage, _ in gw.prompts)


def test_zero_shot_fails_after_two_bad_replies():
    gw = FakeGateway(["nothing", "still nothing"])
    with pytest.raises(PredictionError):
        predict_zero_shot(gw, "prompt", THREE_WAY)


def test_adapter_path_takes_argmax():
    result = predict_with_adapter("p", THREE_WAY, StubAdapter([0.1, 0.7, 0.2]))
    assert result.label.identifier == "half"
    assert result.source == "external_adapter"
    assert result.probabilities == (0.1, 0.7, 0.2)


def test_adapter_ties_break_to_lower_index():
    result = predict_with_adapter("p", THREE_WAY, StubAdapter([0.5, 0.5, 0.0]))
    assert result.label.identifier == "false"


def test_adapter_length_mismatch_is_contract_error():
    with pytest.raises(AdapterContractError):
        predict_with_adapter("p", THREE_WAY, StubAdapter([0.2, 0.2, 0.2, 0.2, 0.2]))


def test_adapter_bad_sum_is_contract_error():
    with pytest.raises(AdapterContractError):
        predict_with_adapter("p", THREE_WAY, StubAdapter([0.5, 0.6, 0.2]))
    with pytest.raises(AdapterContractError):
        predict_with_adapter("p", THREE_WAY, StubAdapter([-0.1, 0.6, 0.5]))


def test_prediction_result_checks_probability_consistency():
    six = predict_with_adapter(
        "p", SIX_WAY, StubAdapter([0.0, 0.0, 0.0, 0.0, 0.5, 0.5])
    )
    assert six.label.identifier == "mostly-true"
