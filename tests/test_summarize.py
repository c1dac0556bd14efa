import json

import pytest
from hypothesis import given, strategies as st

from claimgraph.errors import ConsistencyError, SummarizationError
from claimgraph.explain import CompetingExplanations
from claimgraph.gateway import Stage
from claimgraph.graphs import assemble_claim_graph
from claimgraph.inference import DefenseGraph
from claimgraph.labels import THREE_WAY
from claimgraph.summarize import (
    ANALYSIS,
    FALSE_ORIENTED,
    TRUE_ORIENTED,
    SubClaimVerdict,
    build_explanation_graph,
    export_dot,
    export_structured,
    fallback_verdict,
    judge_payload,
    parse_structured,
    parse_summary_response,
    summarize_explanations,
)

from fakes import FakeGateway


def good_reply(n=2, predictions=("true", "false"), final="All considered, mixed."):
    entries = {
        f"sub-claim {i}": {"reasoning": f"because {i}", "prediction": predictions[i - 1]}
        for i in range(1, n + 1)
    }
    return json.dumps({"sub-claims-veracity": entries, "final-explanation": final})


def make_defense(n=2, lone_at=()):
    subs = [f"sub {i}" for i in range(1, n + 1)]
    graph = assemble_claim_graph("The claim.", subs, set())
    entries = []
    for i in range(1, n + 1):
        if i in lone_at:
            entries.append(CompetingExplanations(i, analysis=f"analysis {i}"))
        else:
            entries.append(
                CompetingExplanations(
                    i, false_oriented=f"c{i}-minus", true_oriented=f"c{i}-plus"
                )
            )
    return DefenseGraph(graph, tuple(entries))


def test_parse_strict_json():
    verdicts, final = parse_summary_response(good_reply())
    assert verdicts == {1: (True, "because 1"), 2: (False, "because 2")}
    assert final == "All considered, mixed."


def test_parse_python_dict_spelling():
    text = (
        "{'sub-claims-veracity': {'sub-claim 1': {'reasoning': 'r', 'prediction': 'false'}},"
        " 'final-explanation': 'done'}"
    )
    verdicts, final = parse_summary_response(text)
    assert verdicts == {1: (False, "r")}
    assert final == "done"


def test_parse_salvages_from_prose():
    text = (
        'Here you go:\n"sub-claim 1": {"reasoning": "fits", "prediction": "true"}\n'
        'and "final-explanation": "short version" as requested'
    )
    verdicts, final = parse_summary_response(text)
    assert verdicts == {1: (True, "fits")}
    assert final == "short version"


def test_parse_missing_final_is_none():
    verdicts, final = parse_summary_response(
        '{"sub-claims-veracity": {"sub-claim 1": {"prediction": "true", "reasoning": ""}}}'
    )
    assert 1 in verdicts
    assert final is None


def test_fallback_verdict_thresholds():
    assert fallback_verdict(THREE_WAY.label("true")) is True
    assert fallback_verdict(THREE_WAY.label("half")) is True  # 2.5 >= 2.5
    assert fallback_verdict(THREE_WAY.label("false")) is False


def test_summarize_happy_path_is_single_call():
    gw = FakeGateway([good_reply()])
    outcome = summarize_explanations(gw, make_defense(), THREE_WAY.label("half"))
    assert [v.verdict for v in outcome.verdicts] == [True, False]
    assert outcome.summary == "All considered, mixed."
    assert outcome.warnings == ()
    assert len(gw.prompts) == 1
    assert gw.prompts[0][0] == Stage.FINAL_EXPLANATION_GENERATION
    # The prompt embeds the graph rendering, not the query section.
    assert "# Node Content:" in gw.prompts[0][1]
    assert "# Query" not in gw.prompts[0][1]


def test_summarize_reasks_once_and_prefers_usable_reply():
    gw = FakeGateway(["no structure at all", good_reply()])
    outcome = summarize_explanations(gw, make_defense(), THREE_WAY.label("half"))
    assert outcome.summary == "All considered, mixed."
    assert any("re-ask" in w for w in outcome.warnings)
    assert gw.prompts[1][1] != gw.prompts[0][1]


def test_summarize_fallback_fills_missing_verdicts():
    partial = json.dumps(
        {
            "sub-claims-veracity": {
                "sub-claim 1": {"reasoning": "r", "prediction": "false"}
            },
            "final-explanation": "partial but final",
        }
    )
    gw = FakeGateway([partial, partial])
    outcome = summarize_explanations(gw, make_defense(), THREE_WAY.label("true"))
    assert outcome.verdicts[0].verdict is False
    assert outcome.verdicts[0].fallback is False
    assert outcome.verdicts[1].verdict is True  # from the predicted label
    assert outcome.verdicts[1].fallback is True
    assert any("fallback" in w for w in outcome.warnings)


SUB_CLAIMS_1_AND_3 = json.dumps(
    {
        "sub-claims-veracity": {
            "sub-claim 1": {"reasoning": "r1", "prediction": "true"},
            "sub-claim 3": {"reasoning": "r3", "prediction": "true"},
        },
        "final-explanation": "First.",
    }
)
ONLY_SUB_CLAIM_2 = json.dumps(
    {
        "sub-claims-veracity": {"sub-claim 2": {"reasoning": "r2", "prediction": "false"}},
        "final-explanation": "Second.",
    }
)


@pytest.mark.parametrize(
    "re_ask, verdicts, fallbacks, summary",
    [
        pytest.param(
            good_reply(final="Second."),
            [True, False],
            [False, False],
            "Second.",
            id="complete-re-ask",
        ),
        # In range, each reply has one entry: a tie, so the re-ask is kept.
        pytest.param(ONLY_SUB_CLAIM_2, [False, False], [True, False], "Second.", id="in-range-tie"),
    ],
)
def test_an_out_of_range_entry_does_not_hide_a_missing_one(re_ask, verdicts, fallbacks, summary):
    gw = FakeGateway([SUB_CLAIMS_1_AND_3, re_ask])
    outcome = summarize_explanations(gw, make_defense(), THREE_WAY.label("false"))
    assert gw.replies == []
    assert [v.verdict for v in outcome.verdicts] == verdicts
    assert [v.fallback for v in outcome.verdicts] == fallbacks
    assert outcome.summary == summary


def test_summarize_fails_without_final_explanation():
    no_final = '{"sub-claims-veracity": {}}'
    gw = FakeGateway([no_final, no_final])
    with pytest.raises(SummarizationError):
        summarize_explanations(gw, make_defense(), THREE_WAY.label("half"))


def test_filtering_keeps_the_verdict_side():
    defense = make_defense()
    verdicts = (SubClaimVerdict(1, True, "r1"), SubClaimVerdict(2, False, "r2"))
    graph = build_explanation_graph(defense, verdicts, "sum", THREE_WAY.label("half"))
    assert [(k.sub_claim_index, k.orientation, k.text) for k in graph.kept] == [
        (1, TRUE_ORIENTED, "c1-plus"),
        (2, FALSE_ORIENTED, "c2-minus"),
    ]


def test_filtering_keeps_lone_analysis_unchanged():
    defense = make_defense(lone_at=(2,))
    verdicts = (SubClaimVerdict(1, False, ""), SubClaimVerdict(2, True, ""))
    graph = build_explanation_graph(defense, verdicts, "s", THREE_WAY.label("false"))
    assert graph.kept[1].orientation == ANALYSIS
    assert graph.kept[1].text == "analysis 2"


def test_verdict_coverage_is_checked():
    defense = make_defense()
    with pytest.raises(ConsistencyError):
        build_explanation_graph(
            defense, (SubClaimVerdict(1, True, ""),), "s", THREE_WAY.label("half")
        )
    with pytest.raises(ConsistencyError):
        build_explanation_graph(
            defense,
            (SubClaimVerdict(1, True, ""), SubClaimVerdict(3, True, "")),
            "s",
            THREE_WAY.label("half"),
        )


@given(st.lists(st.booleans(), min_size=2, max_size=6))
def test_filtering_property_one_side_per_subclaim(verdict_bits):
    n = len(verdict_bits)
    defense = make_defense(n=n)
    verdicts = tuple(
        SubClaimVerdict(i, verdict_bits[i - 1], "") for i in range(1, n + 1)
    )
    graph = build_explanation_graph(defense, verdicts, "s", THREE_WAY.label("half"))
    assert len(graph.kept) == n
    for i, bit in enumerate(verdict_bits, start=1):
        kept = graph.kept[i - 1]
        wanted = f"c{i}-plus" if bit else f"c{i}-minus"
        discarded = f"c{i}-minus" if bit else f"c{i}-plus"
        assert kept.text == wanted
        assert discarded not in kept.text


def sample_graph():
    defense = make_defense()
    verdicts = (SubClaimVerdict(1, True, "r1"), SubClaimVerdict(2, False, "r2", fallback=True))
    return build_explanation_graph(
        defense, verdicts, 'final "quoted" summary\nwith newline', THREE_WAY.label("half")
    )


def test_structured_export_round_trips_exactly():
    graph = sample_graph()
    text = export_structured(graph)
    assert parse_structured(text) == graph
    # Byte-deterministic: exporting the parsed graph reproduces the text.
    assert export_structured(parse_structured(text)) == text
    payload = json.loads(text)
    assert payload["format"] == "explanation-graph/v1"


def test_structured_export_rejects_other_formats():
    graph = sample_graph()
    payload = json.loads(export_structured(graph))
    payload["format"] = "explanation-graph/v2"
    with pytest.raises(Exception):
        parse_structured(json.dumps(payload))


def test_dot_export_shape():
    graph = sample_graph()
    dot = export_dot(graph)
    assert dot.startswith("digraph explanation_graph {")
    assert dot.endswith("}\n")
    # 1 claim node + n sub-claim nodes + n explanation notes.
    assert dot.count('label="') == 1 + 2 * graph.n
    assert dot.count("shape=note") == graph.n
    # Each sub-claim node feeds the claim and each note feeds its sub-claim.
    assert dot.count("-> n0;") == graph.n


def test_dot_export_escapes_label_texts():
    base = assemble_claim_graph(
        'Claim with "quotes".', ['line\nbreak here', "plain two"], set()
    )
    entries = tuple(
        CompetingExplanations(i, false_oriented=f'f "{i}"', true_oriented=f"t {i}")
        for i in (1, 2)
    )
    defense = DefenseGraph(base, entries)
    verdicts = (SubClaimVerdict(1, False, ""), SubClaimVerdict(2, True, ""))
    dot = export_dot(
        build_explanation_graph(defense, verdicts, "s", THREE_WAY.label("false"))
    )
    assert '\\"quotes\\"' in dot
    assert "line\\nbreak here" in dot
    assert '\\"1\\"' in dot


def test_judge_payload_layout():
    graph = sample_graph()
    payload = judge_payload(graph)
    lines = payload.splitlines()
    assert lines[0].startswith("Directed Graph describes a graph among 0, 1, 2.")
    assert lines[1] == "Node 1: c1-plus"
    assert lines[2] == "Node 2: c2-minus"
    assert lines[-1].endswith("with newline")
