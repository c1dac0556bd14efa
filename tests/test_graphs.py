from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from claimgraph.errors import DecompositionError, EdgeParseError, GraphStructureError
from claimgraph.gateway import Stage
from claimgraph.graphs import (
    LLM_GENERATED,
    SAFEGUARD,
    ClaimCenteredGraph,
    DependencyEdge,
    assemble_claim_graph,
    decompose_claim,
    format_subclaim_listing,
    generate_edges,
    generate_hyperedges,
    parse_edge_response,
    parse_hyperedge_response,
    parse_sub_claims,
)

from fakes import FakeGateway


def test_parse_sub_claims_strips_numbering_and_bullets():
    text = "1. First part.\n2) Second part.\n- Third part.\n\n3. First part."
    assert parse_sub_claims(text) == ["First part.", "Second part.", "Third part."]


def test_parse_sub_claims_needs_two_distinct_lines():
    with pytest.raises(ValueError, match="at least two distinct sub-claims, got 1"):
        parse_sub_claims("1. Same part.\n2. Same part.")


def test_format_subclaim_listing():
    listing = format_subclaim_listing(["A happened.", "B said so.", "C is dated"])
    assert listing == "1. A happened; 2. B said so; 3. C is dated."


def test_decompose_retries_until_two_subclaims():
    gw = FakeGateway(["1. only one part", "1. part a\n2. part b"])
    subs = decompose_claim(gw, "some claim")
    assert subs == ["part a", "part b"]
    assert len(gw.prompts) == 2
    # The retry must be a distinct request, not a cache-identical repeat.
    assert gw.prompts[0][1] != gw.prompts[1][1]
    assert all(stage == Stage.CLAIM_DECOMPOSITION for stage, _ in gw.prompts)


def test_decompose_gives_up_after_three_attempts():
    gw = FakeGateway(["nothing numbered"] * 3)
    with pytest.raises(DecompositionError):
        decompose_claim(gw, "some claim")
    assert len(gw.prompts) == 3
    assert len({p for _, p in gw.prompts}) == 3


def test_parse_edges_canonical_listing():
    pairs, warnings = parse_edge_response(
        '{"analysis": "...", "edges": [(1, 0), (2, 3), (3, 0)]}', n=3
    )
    assert pairs == {(1, 0), (2, 3), (3, 0)}
    assert warnings == []


def test_parse_edges_json_style_inner_lists():
    pairs, _ = parse_edge_response('{"edges": [[2, 1], [1, 0]]}', n=2)
    assert pairs == {(2, 1), (1, 0)}


def test_parse_edges_drops_self_loops_and_out_of_range():
    pairs, warnings = parse_edge_response('{"edges": [(1, 1), (9, 0), (2, 0)]}', n=2)
    assert pairs == {(2, 0)}
    assert len(warnings) == 2


def test_parse_edges_warns_for_each_dropped_duplicate():
    pairs, warnings = parse_edge_response('{"edges": [(1, 0), [1, 0], (0, 1), [1, 0]]}', n=2)
    assert pairs == {(1, 0), (0, 1)}
    assert warnings == ["dropped duplicate edge (1, 0)", "dropped duplicate edge (1, 0)"]


def test_parse_edges_empty_list_is_valid():
    pairs, warnings = parse_edge_response('{"edges": []}', n=4)
    assert pairs == set()
    assert warnings == []


def test_parse_edges_without_key_fails():
    with pytest.raises(EdgeParseError):
        parse_edge_response("no structure here at all", n=3)


def test_generate_edges_never_raises():
    gw = FakeGateway(["garbled"] * 3)
    pairs, warnings = generate_edges(gw, "claim", ["a", "b"])
    assert pairs == set()
    assert any("safeguard" in w for w in warnings)


def test_assembly_keeps_llm_provenance_on_claim_edges():
    graph = assemble_claim_graph("c", ["a", "b"], {(1, 0), (2, 1)})
    assert graph.provenance_of((1, 0)) == LLM_GENERATED
    assert graph.provenance_of((2, 0)) == SAFEGUARD
    assert graph.provenance_of((2, 1)) == LLM_GENERATED


def test_assembly_rejects_too_few_subclaims():
    with pytest.raises(GraphStructureError):
        assemble_claim_graph("c", ["only"], set())


def test_graph_round_trips_through_dict():
    graph = assemble_claim_graph("c", ["a", "b", "d"], {(2, 1), (1, 3)})
    assert ClaimCenteredGraph.from_dict(graph.to_dict()) == graph


edges_strategy = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(1, n), st.integers(0, n)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=12,
        ),
    )
)


@settings(max_examples=200)
@given(edges_strategy)
def test_assembly_invariants(case):
    n, llm_pairs = case
    subs = [f"part {i}" for i in range(1, n + 1)]
    graph = assemble_claim_graph("claim", subs, llm_pairs)

    # Safeguard closure: every sub-claim feeds the claim node.
    for i in range(1, n + 1):
        assert (i, 0) in graph.edge_pairs
    # Nothing the generator proposed is lost, cycles included.
    assert llm_pairs <= graph.edge_pairs
    # Provenance is exact: proposed pairs keep their tag even when they
    # coincide with a safeguard edge.
    for pair in graph.edge_pairs:
        expected = LLM_GENERATED if pair in llm_pairs else SAFEGUARD
        assert graph.provenance_of(pair) == expected
    # Edges come out sorted and unique.
    listed = [(e.source, e.target) for e in graph.edges]
    assert listed == sorted(set(listed))
    assert graph.node_ids == tuple(range(n + 1))
    assert graph.validate() is graph
    assert ClaimCenteredGraph.from_dict(graph.to_dict()) == graph


@settings(max_examples=200)
@given(edges_strategy)
def test_every_node_reaches_the_claim(case):
    """BFS oracle: the safeguard edges alone guarantee claim reachability."""
    n, llm_pairs = case
    graph = assemble_claim_graph("claim", [f"s{i}" for i in range(1, n + 1)], llm_pairs)
    adjacency = {}
    for src, dst in graph.edge_pairs:
        adjacency.setdefault(src, set()).add(dst)
    for start in range(1, n + 1):
        seen, frontier = {start}, [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert 0 in seen


def test_validate_rejects_inconsistent_structures():
    bad = ClaimCenteredGraph(
        claim="c",
        sub_claims=("a", "b"),
        edges=(DependencyEdge(1, 0, LLM_GENERATED),),  # missing (2, 0)
    )
    with pytest.raises(GraphStructureError):
        bad.validate()
    dangling = ClaimCenteredGraph(
        claim="c",
        sub_claims=("a", "b"),
        edges=(
            DependencyEdge(1, 0, SAFEGUARD),
            DependencyEdge(2, 0, SAFEGUARD),
            DependencyEdge(5, 0, LLM_GENERATED),
        ),
    )
    with pytest.raises(GraphStructureError):
        dangling.validate()


def test_parse_hyperedges_groups_and_filters():
    groups, warnings = parse_hyperedge_response("[[1, 2, 0], [9, 4, 0], [3]]", n=4)
    assert groups == [(1, 2, 0), (4, 0)]
    assert len(warnings) == 2  # dropped member 9, dropped singleton group


def test_parse_hyperedges_counts_distinct_members():
    groups, warnings = parse_hyperedge_response('{"hyperedges": [[2, 2], [1, 3, 1]]}', n=3)
    assert groups == [(1, 3)]
    assert warnings == [
        "dropped repeated index 2 from hyperedge [2, 2]",
        "dropped hyperedge [2, 2] with fewer than two valid members",
        "dropped repeated index 1 from hyperedge [1, 3, 1]",
    ]


def test_generate_hyperedges_falls_back_to_safeguard_group():
    gw = FakeGateway(["[[7]]"] * 3)
    hyper, warnings = generate_hyperedges(gw, "claim", ["a", "b", "c"])
    assert hyper.hyperedges == ((1, 2, 3, 0),)
    assert hyper.provenance == (SAFEGUARD,)
    assert warnings
