"""Defense-like inference: serialize the graph, assemble the prompt, predict.

The serialized structure follows a fixed natural-language template (node
roster, then one sentence per node with incoming edges). Explanation property
nodes never appear in the serialization; they ride along as node content.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .adapters import validate_probabilities
from .errors import AssemblyError, PredictionError
from .explain import CompetingExplanations
from .gateway import LlmGateway, Stage, TemplateId, ask, render_body, render_prompt
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
    """Claim-centered graph with one explanation entry per sub-claim, in sub-claim order."""

    graph: ClaimCenteredGraph
    explanations: Tuple[CompetingExplanations, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.explanations, key=lambda e: e.sub_claim_index))
        indices = [e.sub_claim_index for e in ordered]
        if indices != list(range(1, self.graph.n + 1)):
            raise AssemblyError(
                f"explanations cover {indices}, expected 1..{self.graph.n}"
            )
        object.__setattr__(self, "explanations", ordered)

    def explanation_for(self, sub_claim_index: int) -> CompetingExplanations:
        return self.explanations[sub_claim_index - 1]


def _explanation_lines(entry: CompetingExplanations) -> List[str]:
    lines = []
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
    return lines


def build_node_content(defense: DefenseGraph) -> str:
    lines = [render_body(NODE_CLAIM_LINE, {"claim": defense.graph.claim})]
    for i, text in enumerate(defense.graph.sub_claims, start=1):
        lines.append(render_body(NODE_SUBCLAIM_LINE, {"index": i, "sub_claim": text}))
        lines.extend(_explanation_lines(defense.explanation_for(i)))
    return "\n".join(lines)


def _render_inference(
    node_content: str, structure_text: Optional[str], label_set: Optional[str]
) -> str:
    """The ``TemplateId.INFERENCE`` rendering; a slot given None leaves its line out."""
    slots = {"node_content": node_content, "graph_structure": structure_text, "label_set": label_set}
    return render_prompt(TemplateId.INFERENCE, slots)


def build_graph_block(defense: DefenseGraph, structure_text: Optional[str] = None) -> str:
    """The inference rendering without its query section.

    This is what the summarization prompt embeds as the claim-centered graph.
    """
    return _render_inference(build_node_content(defense), structure_text, None)


def build_inference_prompt(
    defense: DefenseGraph, scheme: VeracityScheme, structure_text: Optional[str] = None
) -> str:
    """Full prediction prompt for a defense graph.

    ``structure_text`` is the graph-structure line's content (a dependency or
    hypergraph serialization); ``None`` leaves the line out, as the
    structure-free ablation does.
    """
    return _render_inference(build_node_content(defense), structure_text, scheme.render_label_set())


def build_claim_only_prompt(
    claim: str, pair: CompetingExplanations, scheme: VeracityScheme
) -> str:
    """Degenerate single-node prompt for runs without decomposition."""
    lines = [render_body(NODE_CLAIM_LINE, {"claim": claim}), *_explanation_lines(pair)]
    return _render_inference("\n".join(lines), None, scheme.render_label_set())


@dataclass(frozen=True)
class PredictionResult:
    """A label and its source; an adapter's label is the argmax of its checked probabilities."""

    label: VeracityLabel
    source: str
    probabilities: Optional[Tuple[float, ...]] = None


def predict_zero_shot(
    gateway: LlmGateway, prompt: str, scheme: VeracityScheme
) -> PredictionResult:
    """Ask the model for a label directly; one corrective re-ask on parse failure."""
    parse = partial(parse_label_string, scheme=scheme)
    label, rejected = ask(gateway, prompt, Stage.INFERENCE, (_LABEL_RETRY_NOTE,), parse)
    if label is None:
        first, last = rejected
        raise PredictionError(
            f"no parseable label after re-ask: {last} (first reply: {first})"
        ) from last
    return PredictionResult(label=label, source=ZERO_SHOT)


def predict_with_adapter(prompt: str, scheme: VeracityScheme, adapter) -> PredictionResult:
    """Route the assembled prompt through an external classifier adapter; the argmax wins."""
    raw = adapter.predict(prompt, list(scheme.labels))
    probs = tuple(validate_probabilities(raw, len(scheme)))
    best = max(range(len(probs)), key=lambda i: (probs[i], -i))
    return PredictionResult(VeracityLabel(scheme, best), EXTERNAL_ADAPTER, probabilities=probs)
