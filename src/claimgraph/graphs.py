"""Claim-centered graph construction: decomposition, edges, assembly.

Node 0 is the claim; sub-claims are nodes 1..n. Assembly always unions the
model-proposed edges with the safeguard set {(i, 0)} so every sub-claim feeds
the claim directly, whatever the model returned.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Sequence, Set, Tuple

from .errors import (
    DecompositionError,
    EdgeParseError,
    GraphStructureError,
    HyperedgeParseError,
)
from .gateway import LlmGateway, Stage, TemplateId, ask, render_prompt
from .jsonform import as_json, from_json

LLM_GENERATED = "llm_generated"
SAFEGUARD = "safeguard"

Pair = Tuple[int, int]


@dataclass(frozen=True)
class DependencyEdge:
    source: int
    target: int
    provenance: str = LLM_GENERATED


@dataclass(frozen=True)
class ClaimCenteredGraph:
    claim: str
    sub_claims: Tuple[str, ...]
    edges: Tuple[DependencyEdge, ...] = field(metadata={"rows": True})

    @property
    def n(self) -> int:
        return len(self.sub_claims)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(range(self.n + 1))

    @property
    def edge_pairs(self) -> Set[Pair]:
        return {(e.source, e.target) for e in self.edges}

    def provenance_of(self, pair: Pair) -> str:
        for edge in self.edges:
            if (edge.source, edge.target) == pair:
                return edge.provenance
        raise KeyError(pair)

    def validate(self) -> "ClaimCenteredGraph":
        """Check the structural contract; raises GraphStructureError."""
        if not self.claim.strip():
            raise GraphStructureError("claim text is empty")
        if self.n < 2:
            raise GraphStructureError(f"need at least 2 sub-claims, got {self.n}")
        if any(not s.strip() for s in self.sub_claims):
            raise GraphStructureError("sub-claim text is empty")
        seen: Set[Pair] = set()
        for edge in self.edges:
            pair = (edge.source, edge.target)
            if not (0 <= edge.source <= self.n and 0 <= edge.target <= self.n):
                raise GraphStructureError(f"edge {pair} endpoint out of range")
            if edge.source == edge.target:
                raise GraphStructureError(f"self-loop {pair}")
            if pair in seen:
                raise GraphStructureError(f"duplicate edge {pair}")
            seen.add(pair)
        for i in range(1, self.n + 1):
            if (i, 0) not in seen:
                raise GraphStructureError(f"missing safeguard edge ({i}, 0)")
        return self

    def to_dict(self) -> dict:
        return as_json(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ClaimCenteredGraph":
        return from_json(cls, payload)


@dataclass(frozen=True)
class HyperGraph:
    claim: str
    sub_claims: Tuple[str, ...]
    hyperedges: Tuple[Tuple[int, ...], ...]
    provenance: Tuple[str, ...]


def format_subclaim_listing(sub_claims: Sequence[str]) -> str:
    """Inline listing used by the edge prompts: ``1. A; 2. B; 3. C.``"""
    items = "; ".join(f"{i + 1}. {text.rstrip('.')}" for i, text in enumerate(sub_claims))
    return items + "."


_ENUM_MARKER = re.compile(r"^\s*(?:\d+[.)]\s*|[-*•]\s*)")


def parse_sub_claims(text: str) -> List[str]:
    """One sub-claim per non-empty line; enumeration markers are stripped.

    Exact duplicate lines collapse to one, since duplicated nodes carry no
    extra signal for the graph; fewer than two distinct lines is a ValueError.
    """
    result: List[str] = []
    for line in text.splitlines():
        cleaned = _ENUM_MARKER.sub("", line).strip()
        if cleaned and cleaned not in result:
            result.append(cleaned)
    if len(result) < 2:
        raise ValueError(f"need at least two distinct sub-claims, got {len(result)}")
    return result


_DECOMPOSE_RETRY_NOTES = (
    "\nNote: You must return at least two distinct sub-claims.",
    "\nNote: Previous outputs were invalid. Return a numbered list of at "
    "least two distinct sub-claims.",
)


def decompose_claim(
    gateway: LlmGateway,
    claim: str,
    template_id: TemplateId = TemplateId.DECOMPOSE,
) -> List[str]:
    """Ask the model to break ``claim`` into sub-claims; needs at least two.

    A deficient response is re-asked up to two more times with a corrective
    note appended, then DecompositionError.
    """
    prompt = render_prompt(template_id, {"claim": claim})
    sub_claims, _ = ask(
        gateway, prompt, Stage.CLAIM_DECOMPOSITION, _DECOMPOSE_RETRY_NOTES, parse_sub_claims
    )
    if sub_claims is None:
        raise DecompositionError(
            f"decomposition kept returning fewer than two sub-claims for {claim[:60]!r}"
        )
    return sub_claims


_PAIR = re.compile(r"[(\[]\s*(\d+)\s*,\s*(\d+)\s*[)\]]")
_EDGES_KEY = re.compile(r"[\"']?edges[\"']?\s*[:=]")
_HYPEREDGES_KEY = re.compile(r"[\"']?hyperedges[\"']?\s*[:=]")
_INNER_LIST = re.compile(r"\[\s*(\d+(?:\s*,\s*\d+)*)\s*\]")


def _balanced_from(text: str, start: int) -> str:
    depth = 0
    for pos in range(start, len(text)):
        if text[pos] == "[":
            depth += 1
        elif text[pos] == "]":
            depth -= 1
            if depth == 0:
                return text[start : pos + 1]
    # Unbalanced brackets: scan to end of text and let the pair regex decide.
    return text[start:]


def _bracketed_region(text: str, key: re.Pattern) -> str:
    match = key.search(text)
    if not match:
        raise EdgeParseError("response has no edge list key")
    start = text.find("[", match.end())
    if start < 0:
        raise EdgeParseError("no list follows the edge key")
    return _balanced_from(text, start)


def parse_edge_response(text: str, n: int) -> Tuple[Set[Pair], List[str]]:
    """Extract directed index pairs from an edge-generation reply.

    Accepts ``(1, 0)`` and ``[1, 0]`` pair spellings. Self-loops, duplicates
    and out-of-range endpoints are dropped with a warning each; an empty list
    is a valid outcome (assembly falls back to safeguard edges alone).
    """
    region = _bracketed_region(text, _EDGES_KEY)
    pairs: Set[Pair] = set()
    warnings: List[str] = []
    for match in _PAIR.finditer(region):
        source, target = int(match.group(1)), int(match.group(2))
        if source == target:
            warnings.append(f"dropped self-loop ({source}, {target})")
            continue
        if not (0 <= source <= n and 0 <= target <= n):
            warnings.append(f"dropped out-of-range edge ({source}, {target})")
            continue
        if (source, target) in pairs:
            warnings.append(f"dropped duplicate edge ({source}, {target})")
            continue
        pairs.add((source, target))
    return pairs, warnings


_EDGE_RETRY_NOTES = (
    '\nNote: Output must contain the "edges" key mapped to a list of index pairs.',
    '\nNote: Previous outputs were invalid. Output a dictionary with an '
    '"edges" list of (source, target) index pairs.',
)


def generate_edges(
    gateway: LlmGateway, claim: str, sub_claims: Sequence[str]
) -> Tuple[Set[Pair], List[str]]:
    """Model-proposed dependency edges for the sub-claims of ``claim``.

    Parse failures are re-asked up to two more times; if every attempt is
    unusable the result is the empty set (safeguard-only graph) plus a
    warning, not an error.
    """
    prompt = render_prompt(
        TemplateId.EDGES,
        {"claim": claim, "subclaims": format_subclaim_listing(sub_claims)},
    )
    parse = partial(parse_edge_response, n=len(sub_claims))
    taken, rejected = ask(gateway, prompt, Stage.EDGE_GENERATION, _EDGE_RETRY_NOTES, parse)
    warnings = [f"edge parse attempt {k} failed: {exc}" for k, exc in enumerate(rejected, 1)]
    if taken is None:
        warnings.append("edge generation unusable after 3 attempts; keeping safeguard edges only")
        return set(), warnings
    pairs, parse_warnings = taken
    return pairs, warnings + parse_warnings


def assemble_claim_graph(
    claim: str, sub_claims: Sequence[str], llm_edges: Set[Pair]
) -> ClaimCenteredGraph:
    """Union model edges with safeguard edges and freeze the graph.

    Provenance: a pair proposed by the model keeps ``llm_generated`` even if
    it coincides with a safeguard pair; only added (i, 0) edges are tagged
    ``safeguard``.
    """
    n = len(sub_claims)
    provenance: Dict[Pair, str] = {pair: LLM_GENERATED for pair in llm_edges}
    for i in range(1, n + 1):
        provenance.setdefault((i, 0), SAFEGUARD)
    edges = tuple(
        DependencyEdge(source, target, provenance[(source, target)])
        for source, target in sorted(provenance)
    )
    return ClaimCenteredGraph(claim, tuple(sub_claims), edges).validate()


def parse_hyperedge_response(text: str, n: int) -> Tuple[List[Tuple[int, ...]], List[str]]:
    """Extract hyperedges (index groups) from a hyperedge-generation reply.

    Replies may be a bare nested list or a dictionary with a "hyperedges"
    key. Within each group, out-of-range and repeated indices are dropped;
    groups left with fewer than two members are discarded with a warning.
    """
    try:
        region = _bracketed_region(text, _HYPEREDGES_KEY)
    except EdgeParseError:
        start = text.find("[")
        if start < 0:
            raise HyperedgeParseError("response has no index lists") from None
        region = _balanced_from(text, start)
    groups: List[Tuple[int, ...]] = []
    warnings: List[str] = []
    for match in _INNER_LIST.finditer(region):
        raw = [int(tok) for tok in re.split(r"\s*,\s*", match.group(1))]
        members = []
        for idx in raw:
            if not 0 <= idx <= n:
                warnings.append(f"dropped out-of-range index {idx} from hyperedge {raw}")
            elif idx in members:
                warnings.append(f"dropped repeated index {idx} from hyperedge {raw}")
            else:
                members.append(idx)
        if len(members) >= 2:
            groups.append(tuple(members))
        else:
            warnings.append(f"dropped hyperedge {raw} with fewer than two valid members")
    return groups, warnings


_HYPEREDGE_RETRY_NOTES = (
    '\nNote: Output must contain the "hyperedges" key mapped to a list of index lists.',
    '\nNote: Previous outputs were invalid. Output a dictionary with a '
    '"hyperedges" list of index lists.',
)


def generate_hyperedges(
    gateway: LlmGateway, claim: str, sub_claims: Sequence[str]
) -> Tuple[HyperGraph, List[str]]:
    """Topic hypergraph over the sub-claims; hard failure after 3 bad replies.

    If parsing succeeds but no usable hyperedge survives filtering, a single
    safeguard hyperedge covering every node is substituted.
    """
    prompt = render_prompt(
        TemplateId.HYPEREDGES,
        {"claim": claim, "subclaims": format_subclaim_listing(sub_claims)},
    )
    n = len(sub_claims)
    parse = partial(parse_hyperedge_response, n=n)
    taken, rejected = ask(
        gateway, prompt, Stage.HYPEREDGE_GENERATION, _HYPEREDGE_RETRY_NOTES, parse
    )
    if taken is None:
        raise HyperedgeParseError("hyperedge generation unusable after 3 attempts")
    groups, parse_warnings = taken
    warnings = [f"hyperedge parse attempt {k} failed: {exc}" for k, exc in enumerate(rejected, 1)]
    warnings.extend(parse_warnings)
    if groups:
        provenance = tuple(LLM_GENERATED for _ in groups)
    else:
        groups = [tuple(range(1, n + 1)) + (0,)]
        provenance = (SAFEGUARD,)
        warnings.append("no usable hyperedge; substituted safeguard hyperedge")
    return HyperGraph(claim, tuple(sub_claims), tuple(groups), provenance), warnings
