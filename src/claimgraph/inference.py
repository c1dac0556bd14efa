"""Defense-like inference: serialize the graph, assemble the prompt, predict.

The serialized structure follows a fixed natural-language template (node
roster, then one sentence per node with incoming edges). Explanation property
nodes never appear in the serialization; they ride along as node content.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .adapters import validate_probabilities
from .errors import AssemblyError, PredictionError, UnparseableLabelError
from .explain import CompetingExplanations
from .gateway import LlmGateway, Stage, TemplateId, get_template, render_body, render_prompt
from .graphs import ClaimCenteredGraph, HyperGraph
from .labels import VeracityLabel, VeracityScheme, parse_label_string

ZERO_SHOT = "zero_shot"
EXTERNAL_ADAPTER = "external_adapter"

NODE_CLAIM_LINE = "Node 0 (claim): {{claim}}"
NODE_SUBCLAIM_LINE = "Node {{index}} (Sub-claim {{index}}): {{sub_claim}};"
COMPETING_LINE = (
    "Competing explanations: True-oriented explanation: {{true_oriented}}; "
    "False-oriented explanation: {{false_oriented}}."
)
ANALYSIS_LINE = "Analysis: {{analysis}}."
BACKGROUND_LINE = "Background: {{background}}."

_LABEL_RETRY_NOTE = "\nAnswer with exactly one label."


def _roster(node_count: int) -> str:
    return ", ".join(str(i) for i in range(node_count))


def _source_listing(sources: Sequence[int]) -> str:
    if len(sources) == 1:
        return f"node {sources[0]}"
    if len(sources) == 2:
        return f"nodes {sources[0]} and {sources[1]}"
    head = ", ".join(str(s) for s in sources[:-1])
    return f"nodes {head}, and {sources[-1]}"


def serialize_edges(node_count: int, pairs: Sequence[Tuple[int, int]]) -> str:
    """Natural-language rendering of a directed graph on nodes 0..node_count-1.

    One sentence per node that has incoming edges, in ascending node order,
    sources ascending with an Oxford "and". Nodes without incoming edges get
    no sentence.
    """
    incoming: Dict[int, List[int]] = {}
    for source, target in pairs:
        incoming.setdefault(target, []).append(source)
    parts = [f"Directed Graph describes a graph among {_roster(node_count)}."]
    for target in sorted(incoming):
        sources = sorted(incoming[target])
        parts.append(
            f"Node {target} is connected to {_source_listing(sources)} by incoming edges."
        )
    return " ".join(parts)


def graph_to_seq(graph: ClaimCenteredGraph) -> str:
    return serialize_edges(graph.n + 1, sorted(graph.edge_pairs))


def hypergraph_to_seq(hyper: HyperGraph) -> str:
    """Hypergraph counterpart: one sentence per hyperedge, in listed order."""
    n = len(hyper.sub_claims)
    parts = [f"Hypergraph describes a graph among {_roster(n + 1)}."]
    for rank, members in enumerate(hyper.hyperedges, start=1):
        parts.append(f"Hyperedge {rank} connects {_source_listing(list(members))}.")
    return " ".join(parts)


@dataclass(frozen=True)
class DefenseGraph:
    """Claim-centered graph enriched with per-sub-claim explanation material."""

    graph: ClaimCenteredGraph
    explanations: Tuple[CompetingExplanations, ...]

    def validate(self) -> "DefenseGraph":
        indices = sorted(e.sub_claim_index for e in self.explanations)
        if indices != list(range(1, self.graph.n + 1)):
            raise AssemblyError(
                f"explanations cover {indices}, expected 1..{self.graph.n}"
            )
        return self

    def explanation_for(self, sub_claim_index: int) -> CompetingExplanations:
        for entry in self.explanations:
            if entry.sub_claim_index == sub_claim_index:
                return entry
        raise AssemblyError(f"no explanations for sub-claim {sub_claim_index}")


def _subclaim_block(index: int, text: str, entry: CompetingExplanations) -> str:
    lines = [render_body(NODE_SUBCLAIM_LINE, {"index": index, "sub_claim": text})]
    if entry.background is not None:
        lines.append(render_body(BACKGROUND_LINE, {"background": entry.background}))
    if entry.is_competing:
        lines.append(
            render_body(
                COMPETING_LINE,
                {
                    "true_oriented": entry.true_oriented,
                    "false_oriented": entry.false_oriented,
                },
            )
        )
    else:
        lines.append(render_body(ANALYSIS_LINE, {"analysis": entry.analysis}))
    return "\n".join(lines)


def build_node_content(defense: DefenseGraph) -> str:
    defense.validate()
    blocks = [render_body(NODE_CLAIM_LINE, {"claim": defense.graph.claim})]
    for i, text in enumerate(defense.graph.sub_claims, start=1):
        blocks.append(_subclaim_block(i, text, defense.explanation_for(i)))
    return "\n".join(blocks)


_QUERY_SECTION = (
    "\n# Query (Q): What is the label of Node 0 (claim)? "
    "Please directly output your predicted label from {{label_set}}."
)


def _body_without_structure() -> str:
    body = get_template(TemplateId.INFERENCE).body
    return body.replace("# Graph Structure: {{graph_structure}}\n", "")


def build_graph_block(
    defense: DefenseGraph,
    include_structure: bool = True,
    structure_text: Optional[str] = None,
) -> str:
    """The inference rendering without its query section.

    This is what the summarization prompt embeds as the claim-centered graph.
    """
    body = get_template(TemplateId.INFERENCE).body.replace(_QUERY_SECTION, "")
    if not include_structure:
        body = body.replace("\n# Graph Structure: {{graph_structure}}", "")
    bindings = {"node_content": build_node_content(defense)}
    if include_structure:
        bindings["graph_structure"] = (
            structure_text if structure_text is not None else graph_to_seq(defense.graph)
        )
    return render_body(body, bindings)


def build_inference_prompt(
    defense: DefenseGraph,
    scheme: VeracityScheme,
    include_structure: bool = True,
    structure_text: Optional[str] = None,
) -> str:
    """Full prediction prompt for a defense graph.

    ``include_structure=False`` drops the graph-structure section entirely
    (structure-free ablation). ``structure_text`` overrides the default
    dependency serialization, e.g. with a hypergraph rendering.
    """
    bindings = {
        "node_content": build_node_content(defense),
        "label_set": scheme.render_label_set(),
    }
    if not include_structure:
        return render_body(_body_without_structure(), bindings)
    bindings["graph_structure"] = (
        structure_text if structure_text is not None else graph_to_seq(defense.graph)
    )
    return render_prompt(TemplateId.INFERENCE, bindings)


def build_claim_only_prompt(
    claim: str, pair: CompetingExplanations, scheme: VeracityScheme
) -> str:
    """Degenerate single-node prompt for runs without decomposition."""
    lines = [render_body(NODE_CLAIM_LINE, {"claim": claim})]
    if pair.is_competing:
        lines.append(
            render_body(
                COMPETING_LINE,
                {"true_oriented": pair.true_oriented, "false_oriented": pair.false_oriented},
            )
        )
    else:
        lines.append(render_body(ANALYSIS_LINE, {"analysis": pair.analysis}))
    return render_body(
        _body_without_structure(),
        {"node_content": "\n".join(lines), "label_set": scheme.render_label_set()},
    )


@dataclass(frozen=True)
class PredictionResult:
    label: VeracityLabel
    source: str
    probabilities: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.source not in (ZERO_SHOT, EXTERNAL_ADAPTER):
            raise ValueError(f"unknown prediction source {self.source!r}")
        if self.probabilities is not None:
            probs = self.probabilities
            if len(probs) != len(self.label.scheme):
                raise ValueError("one probability per scheme label expected")
            if abs(sum(probs) - 1.0) > 1e-6:
                raise ValueError("probabilities must sum to 1 within 1e-6")
            best = max(range(len(probs)), key=lambda i: (probs[i], -i))
            if best != self.label.index:
                raise ValueError("label must be the argmax (ties to the lower index)")


def predict_zero_shot(
    gateway: LlmGateway, prompt: str, scheme: VeracityScheme
) -> PredictionResult:
    """Ask the model for a label directly; one corrective re-ask on parse failure."""
    response = gateway.complete(prompt, Stage.INFERENCE)
    try:
        label = parse_label_string(response.text, scheme)
    except UnparseableLabelError:
        retry = gateway.complete(prompt + _LABEL_RETRY_NOTE, Stage.INFERENCE)
        try:
            label = parse_label_string(retry.text, scheme)
        except UnparseableLabelError as exc:
            raise PredictionError(f"no parseable label after re-ask: {exc}") from exc
    return PredictionResult(label=label, source=ZERO_SHOT)


def argmax_label(scheme: VeracityScheme, probabilities: Sequence[float]) -> VeracityLabel:
    best = max(range(len(probabilities)), key=lambda i: (probabilities[i], -i))
    return VeracityLabel(scheme, best)


def prediction_from_probabilities(
    scheme: VeracityScheme, probabilities: Sequence[float], source: str = EXTERNAL_ADAPTER
) -> PredictionResult:
    probs = tuple(float(p) for p in probabilities)
    return PredictionResult(label=argmax_label(scheme, probs), source=source, probabilities=probs)


def predict_with_adapter(prompt: str, scheme: VeracityScheme, adapter) -> PredictionResult:
    """Route the assembled prompt through an external classifier adapter."""
    raw = adapter.predict(prompt, list(scheme.labels))
    probs = validate_probabilities(raw, len(scheme))
    return prediction_from_probabilities(scheme, probs)
