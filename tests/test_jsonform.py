"""``jsonform.from_json``, the one decoder: the inverse of ``as_json`` and its faults.

Every typed record part, the config and each document a run writes must come
back equal from the JSON text of its ``as_json`` form; a value its annotation does not admit is a
fault that names its path.
"""
import dataclasses
import json
import re
import typing
from dataclasses import dataclass, field
from decimal import Decimal
from enum import EnumMeta
from typing import Dict, List, Optional, Tuple, TypedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimgraph.evaluation import EvaluationReport, MacroMetrics
from claimgraph.explain import CompetingExplanations
from claimgraph.gateway import Stage
from claimgraph.graphs import (
    LLM_GENERATED,
    SAFEGUARD,
    ClaimCenteredGraph,
    DependencyEdge,
    HyperGraph,
)
from claimgraph.ingest import DatasetStats, Extent
from claimgraph.jsonform import _plan, as_json, from_json
from claimgraph.pipeline import (
    ABLATIONS,
    CostReport,
    Failure,
    PipelineConfig,
    Prediction,
    RunRecord,
)
from claimgraph.retrieval import EvidenceSet, RetrievedEvidence
from claimgraph.summarize import SubClaimVerdict

texts = st.text(max_size=12)
indices = st.integers(min_value=0, max_value=9)
numbers = st.one_of(st.integers(-5, 5), st.floats(allow_nan=False))
maybe_texts = st.none() | texts
provenances = st.sampled_from([LLM_GENERATED, SAFEGUARD])

graphs = st.builds(
    ClaimCenteredGraph,
    texts,
    st.lists(texts, max_size=4).map(tuple),
    st.lists(st.builds(DependencyEdge, indices, indices, provenances), max_size=4).map(tuple),
)
hypergraphs = st.builds(
    HyperGraph,
    texts,
    st.lists(texts, max_size=4).map(tuple),
    st.lists(st.lists(indices, max_size=4).map(tuple), max_size=3).map(tuple),
    st.lists(provenances, max_size=3).map(tuple),
)
evidence_sets = st.builds(
    EvidenceSet,
    indices,
    st.lists(st.builds(RetrievedEvidence, indices, indices, texts, numbers), max_size=3).map(tuple),
    st.integers(1, 9),
)
explanations = st.one_of(
    st.builds(
        CompetingExplanations, indices,
        false_oriented=texts, true_oriented=texts, background=maybe_texts,
    ),
    st.builds(CompetingExplanations, indices, analysis=texts, background=maybe_texts),
)
verdicts = st.builds(SubClaimVerdict, indices, st.booleans(), texts, st.booleans())
probabilities = st.none() | st.lists(numbers, max_size=3).map(tuple)
predictions = st.builds(Prediction, texts, texts, probabilities)
failures = st.builds(Failure, st.sampled_from(Stage), texts)
configs = st.builds(
    PipelineConfig,
    k=st.integers(1, 20),
    decomposition=st.sampled_from(["standard", "enhanced"]),
    graph_structure=st.sampled_from(["dependency", "hypergraph"]),
    ablations=st.lists(
        st.sampled_from([a for a in ABLATIONS if a != "no_inference_training"]), max_size=3
    ).map(tuple),
    generation_temperature=numbers,
    provider=st.dictionaries(texts, st.one_of(st.integers(), texts, st.lists(st.integers()))),
    adapter=st.none() | st.fixed_dictionaries({"type": st.just("http"), "url": texts}),
    cache_enabled=st.booleans(),
)
counts = st.dictionaries(texts, st.integers(0, 9), max_size=3)
shares = st.lists(numbers, max_size=3).map(tuple)
reports = st.builds(
    EvaluationReport,
    texts, st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), counts,
    st.none() | st.builds(MacroMetrics, numbers, numbers, numbers, shares, shares, shares),
    st.none() | numbers,
    st.none() | numbers,
    st.none() | st.dictionaries(texts, numbers, max_size=4),
    st.integers(0, 9),
    st.integers(0, 9),
)
dollars = st.decimals(allow_nan=False, allow_infinity=False)
usage = st.fixed_dictionaries({"input_tokens": indices, "output_tokens": indices, "calls": indices})
costs = st.builds(
    CostReport,
    st.integers(0, 9),
    st.dictionaries(st.sampled_from(Stage), usage, max_size=3),
    indices, indices,
    dollars, dollars, dollars, numbers,
    st.dictionaries(texts, numbers, max_size=3), numbers, numbers, numbers, counts,
)
extents = st.builds(Extent, indices, indices, numbers)
stats = st.builds(DatasetStats, indices, counts, extents, extents)

PARTS = [
    (ClaimCenteredGraph, graphs),
    (HyperGraph, hypergraphs),
    (EvidenceSet, evidence_sets),
    (CompetingExplanations, explanations),
    (SubClaimVerdict, verdicts),
    (Prediction, predictions),
    (Failure, failures),
    (PipelineConfig, configs),
    (EvaluationReport, reports),
    (CostReport, costs),
    (DatasetStats, stats),
]


@pytest.mark.parametrize("kind, values", PARTS, ids=[kind.__name__ for kind, _ in PARTS])
def test_a_part_reads_back_equal_from_the_json_text_of_its_form(kind, values):
    @given(values)
    def reads_back(value):
        assert from_json(kind, json.loads(json.dumps(as_json(value)))) == value

    reads_back()


@dataclass(frozen=True)
class Leaf:
    count: int
    share: float = 0.0


@dataclass(frozen=True)
class Tree:
    leaves: List[Leaf]
    pair: Tuple[str, ...] = ()
    named: Optional[Dict[str, Optional[Leaf]]] = None
    anything: object = None


@pytest.mark.parametrize(
    "payload, fault",
    [
        ({}, "field 'leaves' is missing"),
        ({"leaves": [{"count": 1}, {}]}, "field 'leaves' item 1 field 'count' is missing"),
        (
            {"leaves": [{"count": True}]},
            "field 'leaves' item 0 field 'count' must be int, not bool",
        ),
        (
            {"leaves": [{"count": 1.5}]},
            "field 'leaves' item 0 field 'count' must be int, not float",
        ),
        ({"leaves": [], "pair": ["a", 2]}, "field 'pair' item 1 must be str, not int"),
        ({"leaves": (), "pair": ()}, "field 'leaves' must be list, not tuple"),
        (
            {"leaves": [], "named": {"a": []}},
            "field 'named' item 'a' must be dict or NoneType, not list",
        ),
        (
            {"leaves": [], "named": {"a": {"count": 1, "share": "x"}}},
            "field 'named' item 'a' field 'share' must be int or float, not str",
        ),
    ],
)
def test_a_fault_names_its_path(payload, fault):
    with pytest.raises(TypeError, match=f"^Tree {fault}$"):
        from_json(Tree, payload)


def test_a_fault_raises_the_callers_error():
    with pytest.raises(KeyError, match="Leaf field 'count' is missing"):
        from_json(Leaf, {}, KeyError)


def test_floats_keep_ints_objects_are_unchecked_and_other_keys_are_ignored():
    tree = from_json(
        Tree,
        {"leaves": [{"count": 2, "share": 1}], "named": {"a": None}, "anything": [True], "x": 0},
    )
    assert tree == Tree([Leaf(2, 1)], (), {"a": None}, [True])
    assert type(tree.leaves[0].share) is int


@dataclass(frozen=True)
class Priced:
    count: int = field(metadata={"json": "n"})
    price: Decimal = Decimal(0)
    unit: str = field(default="usd", init=False)


def test_a_field_goes_under_its_json_key_a_decimal_as_its_str_and_init_false_only_out():
    priced = Priced(2, Decimal("0.10"))
    assert as_json(priced) == {"n": 2, "price": "0.10", "unit": "usd"}
    assert from_json(Priced, {"n": 2, "price": "0.10", "unit": "eur", "count": 5}) == priced


@pytest.mark.parametrize(
    "payload, fault",
    [
        ({"count": 2}, "field 'n' is missing"),
        ({"n": 2, "price": 0.1}, "field 'price' must be str, not float"),
        ({"n": 2, "price": "ten"}, "field 'price' must be a decimal, not 'ten'"),
    ],
)
def test_a_renamed_or_decimal_fault_names_the_json_key(payload, fault):
    with pytest.raises(TypeError, match=f"^Priced {fault}$"):
        from_json(Priced, payload)


@pytest.mark.parametrize(
    "stage, fault",
    [
        ("bogus", "must be a Stage value, not 'bogus'"),
        (5, "must be str, not int"),
    ],
)
def test_an_enum_is_read_from_its_value(stage, fault):
    assert from_json(Failure, {"stage": "inference", "message": "m"}).stage is Stage.INFERENCE
    with pytest.raises(TypeError, match=f"^Failure field 'stage' {fault}$"):
        from_json(Failure, {"stage": stage, "message": "m"})


def test_a_dicts_keys_are_read_and_written_by_their_annotation():
    usage = {"input_tokens": 1, "output_tokens": 2, "calls": 1}
    record = RunRecord.from_dict(
        dict(
            claim_id="c", claim="x", scheme="three_way",
            stage_trace=["inference"], durations={"inference": 0.5},
            stage_usage={"inference": dict(usage, extra=7)},
        )
    )
    assert record.stage_trace == [Stage.INFERENCE] and type(record.stage_trace[0]) is Stage
    assert [type(stage) for stage in (*record.durations, *record.stage_usage)] == [Stage, Stage]
    # A TypedDict entry is a plain dict of its declared keys; others are ignored.
    assert record.stage_usage == {Stage.INFERENCE: usage}
    assert type(record.stage_usage[Stage.INFERENCE]) is dict
    assert as_json({Stage.INFERENCE: 0.5}) == {"inference": 0.5}
    assert type(next(iter(as_json({Stage.INFERENCE: 0.5})))) is str


def test_a_nested_part_extends_the_path():
    payload = dict(
        claim_id="c", claim="x", scheme="three_way",
        evidence=[{"sub_claim_index": 1, "items": [], "k": "5"}],
    )
    with pytest.raises(TypeError, match="^RunRecord field 'evidence' item 0 field 'k' must be int"):
        RunRecord.from_dict(payload)


HIT = [3, 1, "The mayor signed it.", 0.5]


def _record_with_hits(*hits):
    return dict(
        claim_id="c", claim="x", scheme="three_way",
        evidence=[{"sub_claim_index": 1, "items": list(hits), "k": 5}],
    )


def test_an_evidence_hit_is_written_as_the_list_of_its_fields():
    evidence = EvidenceSet(1, (RetrievedEvidence(*HIT),), 5)
    assert as_json(evidence) == {"sub_claim_index": 1, "items": [HIT], "k": 5}
    assert from_json(EvidenceSet, as_json(evidence)) == evidence


def test_an_evidence_hit_reads_back_the_same_from_the_dict_of_its_fields():
    as_dict = dict(zip([f.name for f in dataclasses.fields(RetrievedEvidence)], HIT))
    from_dict = RunRecord.from_dict(_record_with_hits(as_dict))
    assert from_dict == RunRecord.from_dict(_record_with_hits(HIT))
    assert from_dict.evidence[0].items == (RetrievedEvidence(*HIT),)
    assert type(from_dict.evidence[0].items[0]) is RetrievedEvidence


HIT_PATH = "RunRecord field 'evidence' item 0 field 'items' item 0"


@pytest.mark.parametrize(
    "hit, fault",
    [
        (HIT[:3], "must hold 4 items, not 3"),
        (HIT + [0], "must hold 4 items, not 5"),
        (HIT[:3] + ["high"], "field 'similarity' must be int or float, not str"),
        (["3"] + HIT[1:], "field 'report_index' must be int, not str"),
        ("hit", "must be list or dict, not str"),
        ({"report_index": 3}, "field 'sentence_index' is missing"),
    ],
)
def test_a_fault_in_an_evidence_hit_names_its_path(hit, fault):
    with pytest.raises(TypeError, match=f"^{HIT_PATH} {fault}$"):
        RunRecord.from_dict(_record_with_hits(hit))


SHARED = "The mayor signed it."


# Node 1's and node 2's hits share both sentences, as the sub-claims of one claim do.
SHARING = RunRecord("c", "x", "three_way", sub_claims=["a", "b"], evidence=[
    EvidenceSet(1, (RetrievedEvidence(0, 1, SHARED, 0.5), RetrievedEvidence(2, 0, "Other.", 0.25)), 5),
    EvidenceSet(2, (RetrievedEvidence(2, 0, "Other.", 0.75), RetrievedEvidence(0, 1, SHARED, 0.5)), 5),
])


def test_sets_that_share_a_sentence_write_its_text_once():
    payload = SHARING.to_dict()
    assert payload["texts"] == [SHARED, "Other."]
    assert payload["evidence"] == [
        [1, [[0, 1, 0, 0.5], [2, 0, 1, 0.25]], 5],
        [2, [[2, 0, 1, 0.75], [0, 1, 0, 0.5]], 5],
    ]
    text = json.dumps(payload)
    assert text.count(SHARED) == text.count("Other.") == 1
    assert RunRecord.from_dict(json.loads(text)) == SHARING


TEXT_PATH = "RunRecord field 'evidence' item 1 field 'items' item 0 field 'text'"


@pytest.mark.parametrize("index", [2, -1, "0", 0.0, True, None])
def test_a_text_index_out_of_range_or_not_an_int_is_one_error_naming_its_field_and_item(index):
    payload = SHARING.to_dict()
    payload["evidence"][1][1][0][2] = index
    fault = f"must index the 2 texts, not {re.escape(repr(index))}"
    with pytest.raises(TypeError, match=f"^{TEXT_PATH} {fault}$"):
        RunRecord.from_dict(payload)


@pytest.mark.parametrize(
    "texts, fault",
    [
        ({}, "RunRecord field 'texts' must be list, not dict"),
        (
            [SHARED, 5],
            "RunRecord field 'evidence' item 0 field 'items' item 1 field 'text' must be str, not int",
        ),
    ],
)
def test_a_table_that_is_no_list_of_texts_names_its_fault(texts, fault):
    with pytest.raises(TypeError, match=f"^{fault}$"):
        RunRecord.from_dict(dict(SHARING.to_dict(), texts=texts))


def test_each_older_evidence_form_reads_back_the_same_record():
    payload = SHARING.to_dict()
    del payload["texts"]
    # Each set the dict of its fields, each hit its row holding its text.
    inline = [
        dict(sub_claim_index=s.sub_claim_index, items=[[*dataclasses.astuple(hit)] for hit in s.items], k=s.k)
        for s in SHARING.evidence
    ]
    keyed = [json.loads(json.dumps(dataclasses.asdict(s))) for s in SHARING.evidence]
    assert isinstance(keyed[0]["items"][0], dict)
    assert RunRecord.from_dict(dict(payload, evidence=inline)) == SHARING
    assert RunRecord.from_dict(dict(payload, evidence=keyed)) == SHARING


# Hits drawn from a few sentences, so that sets share texts; sets may be
# empty (``no_evidence``) or node 0's (``no_subclaims``).
pooled_hits = st.builds(
    RetrievedEvidence, indices, indices, st.sampled_from(["", SHARED, "Other.", "Þriðja."]), numbers
)
pooled_sets = st.builds(
    EvidenceSet, st.integers(0, 3), st.lists(pooled_hits, max_size=4).map(tuple), st.integers(1, 9)
)
evidence_records = st.builds(
    RunRecord, texts, texts, texts,
    sub_claims=st.lists(texts, max_size=3), evidence=st.lists(pooled_sets, max_size=4),
)


@given(evidence_records)
def test_a_record_reads_back_equal_from_the_json_text_of_each_form(record):
    payload = record.to_dict()
    assert sorted(payload["texts"]) == sorted({hit.text for s in record.evidence for hit in s.items})
    assert RunRecord.from_dict(json.loads(json.dumps(payload))) == record
    assert from_json(RunRecord, json.loads(json.dumps(as_json(record)))) == record


@dataclass(frozen=True)
class Part:
    name: str
    size: int


@dataclass(frozen=True)
class Holder:
    name: str
    part: Optional[Part] = field(default=None, metadata={"shares": ("name",)})


def test_a_part_writes_no_field_it_shares_and_reads_it_from_its_holder():
    assert as_json(Holder("a", Part("a", 2))) == {"name": "a", "part": {"size": 2}}
    assert as_json(Holder("a")) == {"name": "a", "part": None}
    assert from_json(Holder, {"name": "a", "part": {"size": 2}}) == Holder("a", Part("a", 2))
    # A copy the part still holds, as an older file's graph does, is ignored.
    old = {"name": "a", "part": {"name": "stale", "size": 2}}
    assert from_json(Holder, old) == Holder("a", Part("a", 2))
    with pytest.raises(TypeError, match="^Holder field 'part' field 'size' must be int, not str$"):
        from_json(Holder, {"name": "a", "part": {"size": "2"}})


def test_a_records_graph_is_written_as_its_edges():
    graph = ClaimCenteredGraph("x", ("a", "b"), (DependencyEdge(1, 0, SAFEGUARD),))
    record = RunRecord("c", "x", "three_way", "h", sub_claims=["a", "b"], graph=graph)
    payload = record.to_dict()
    assert payload["graph"] == {"edges": [[1, 0, SAFEGUARD]]}
    assert "n" not in payload and record.n == 2
    assert RunRecord.from_dict(json.loads(json.dumps(payload))) == record


class Tally(TypedDict):
    hits: int
    misses: int


@dataclass(frozen=True)
class Sheet:
    leaves: List[Leaf] = field(default_factory=list, metadata={"rows": True})
    tallies: Dict[str, Tally] = field(default_factory=dict, metadata={"rows": True})
    loose: Tuple[Leaf, ...] = ()


SHEET = Sheet([Leaf(1, 0.5)], {"a": Tally(hits=2, misses=3)}, (Leaf(2),))
SHEET_FORM = {"leaves": [[1, 0.5]], "tallies": {"a": [2, 3]}, "loose": [{"count": 2, "share": 0.0}]}


def test_a_rows_fields_parts_are_written_as_rows_and_read_from_rows_or_dicts():
    assert as_json(SHEET) == SHEET_FORM
    assert from_json(Sheet, SHEET_FORM) == SHEET
    keyed = dict(
        SHEET_FORM, leaves=[{"count": 1, "share": 0.5}], tallies={"a": {"hits": 2, "misses": 3}}
    )
    assert from_json(Sheet, keyed) == SHEET
    # Only a part of a rows field is read from a row.
    with pytest.raises(TypeError, match="^Sheet field 'loose' item 0 must be dict, not list$"):
        from_json(Sheet, dict(SHEET_FORM, loose=[[2, 0.0]]))


@pytest.mark.parametrize(
    "payload, fault",
    [
        ({"leaves": [[1, 0.5], [2]]}, "field 'leaves' item 1 must hold 2 items, not 1"),
        ({"tallies": {"a": [2, 3, 4]}}, "field 'tallies' item 'a' must hold 2 items, not 3"),
        ({"leaves": [[1, "x"]]}, "field 'leaves' item 0 field 'share' must be int or float, not str"),
        ({"leaves": ["x"]}, "field 'leaves' item 0 must be list or dict, not str"),
    ],
)
def test_a_fault_in_a_row_names_its_field_and_item(payload, fault):
    with pytest.raises(TypeError, match=f"^Sheet {fault}$"):
        from_json(Sheet, payload)


def test_a_record_row_of_the_wrong_length_is_one_error_naming_its_field_and_item():
    verdicts = [SubClaimVerdict(1, True), SubClaimVerdict(2, False)]
    record = RunRecord("c", "x", "three_way", verdicts=verdicts)
    payload = record.to_dict()
    assert payload["verdicts"] == [[1, True, "", False], [2, False, "", False]]
    payload["verdicts"][1] = payload["verdicts"][1][:3]
    with pytest.raises(TypeError, match="^RunRecord field 'verdicts' item 1 must hold 4 items, not 3$"):
        RunRecord.from_dict(payload)


def test_a_records_hypergraph_is_written_as_its_hyperedges_and_read_back_typed():
    hyper = HyperGraph("x", ("a", "b"), ((1, 2, 0),), (SAFEGUARD,))
    record = RunRecord("c", "x", "three_way", "h", sub_claims=["a", "b"], hypergraph=hyper)
    payload = record.to_dict()
    assert payload["hypergraph"] == {"hyperedges": [[1, 2, 0]], "provenance": [SAFEGUARD]}
    reread = RunRecord.from_dict(json.loads(json.dumps(payload)))
    assert reread == record and type(reread.hypergraph) is HyperGraph
    payload["hypergraph"]["hyperedges"] = [[1, "2"]]
    with pytest.raises(
        TypeError,
        match="^RunRecord field 'hypergraph' field 'hyperedges' item 0 item 1 must be int, not str$",
    ):
        RunRecord.from_dict(payload)


UNTYPED = {(dict,), (list,), (object, bool)}


def _untyped_leaves(plan, path):
    """The paths under ``plan`` (a ``_plan``) that ``from_json`` reads without a type."""
    admits, build, inner = plan
    if build is None:
        return [path] if admits in UNTYPED else []
    if build is typing.Union:
        return [leaf for arm in inner for leaf in _untyped_leaves(arm, path)]
    if build is list or build is tuple:
        return _untyped_leaves(inner, f"{path} item")
    if build is dict:
        return _untyped_leaves(inner[0], f"{path} key") + _untyped_leaves(inner[1], f"{path} item")
    if build is Decimal or isinstance(build, EnumMeta):
        return []
    return [
        leaf
        for _name, key, field_plan, *_ in inner
        if field_plan is not None
        for leaf in _untyped_leaves(field_plan, f"{path} field {key!r}")
    ]


def test_every_part_of_a_record_is_typed():
    assert _untyped_leaves(_plan(RunRecord), "RunRecord") == []
    assert _untyped_leaves(_plan(Tree), "Tree") == ["Tree field 'anything'"]
