"""Explanation summarization and the final explanation graph.

After prediction, the model is asked for a per-sub-claim verdict plus one
summarized rationale. The verdicts then filter each competing pair down to
the single explanation consistent with that sub-claim's verdict.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .errors import ConsistencyError, SummarizationError
from .gateway import LlmGateway, Stage, TemplateId, ask, render_prompt
from .graphs import DependencyEdge
from .inference import DefenseGraph, build_graph_block, serialize_edges
from .jsonform import as_json, from_json
from .labels import VeracityLabel, label_to_score, scheme_by_name
from .parsing import coerce_mapping

TRUE_ORIENTED = "true_oriented"
FALSE_ORIENTED = "false_oriented"
ANALYSIS = "analysis"

_SUMMARY_RETRY_NOTE = (
    "\nNote: Include an entry for every sub-claim and a non-empty "
    "final-explanation value."
)


@dataclass(frozen=True)
class SubClaimVerdict:
    sub_claim_index: int
    verdict: bool
    reasoning: str = ""
    fallback: bool = False


@dataclass(frozen=True)
class SummaryOutcome:
    verdicts: Tuple[SubClaimVerdict, ...]
    summary: str
    warnings: Tuple[str, ...] = ()


_ENTRY_KEY = re.compile(r"sub-claim (\d+)", re.IGNORECASE)
_PREDICTION_NEAR = re.compile(
    r'"?sub-claim (\d+)"?\s*:\s*\{(.*?)\}', re.DOTALL | re.IGNORECASE
)
_FIELD = re.compile(r'"?(reasoning|prediction)"?\s*:\s*"((?:[^"\\]|\\.)*)"')
_FINAL = re.compile(r'"?final-explanation"?\s*:\s*"((?:[^"\\]|\\.)*)"')


def parse_summary_response(text: str) -> Tuple[Dict[int, Tuple[bool, str]], Optional[str]]:
    """Extract per-sub-claim verdicts and the final explanation.

    Handles strict JSON, Python-dict spellings, and falls back to regex
    salvage on anything else. Returns ({index: (verdict, reasoning)}, final)
    where final is None when the key is missing or empty.
    """
    verdicts: Dict[int, Tuple[bool, str]] = {}
    final: Optional[str] = None
    mapping = coerce_mapping(text)
    if mapping is not None:
        entries = mapping.get("sub-claims-veracity")
        if isinstance(entries, dict):
            for key, value in entries.items():
                match = _ENTRY_KEY.search(str(key))
                if not match or not isinstance(value, dict):
                    continue
                prediction = str(value.get("prediction", "")).strip().lower()
                if prediction not in ("true", "false"):
                    continue
                verdicts[int(match.group(1))] = (
                    prediction == "true",
                    str(value.get("reasoning", "")),
                )
        raw_final = mapping.get("final-explanation")
        if isinstance(raw_final, str) and raw_final.strip():
            final = raw_final.strip()
        if verdicts or final is not None:
            return verdicts, final
        # The mapping was some unrelated dict fragment; fall through to salvage.
    for match in _PREDICTION_NEAR.finditer(text):
        index = int(match.group(1))
        fields = dict(_FIELD.findall(match.group(2)))
        prediction = fields.get("prediction", "").strip().lower()
        if prediction in ("true", "false"):
            verdicts[index] = (prediction == "true", fields.get("reasoning", ""))
    final_match = _FINAL.search(text)
    if final_match and final_match.group(1).strip():
        final = final_match.group(1).strip()
    return verdicts, final


def fallback_verdict(predicted: VeracityLabel) -> bool:
    """Orientation implied by the claim-level label (no verdict, or no sub-claims)."""
    return label_to_score(predicted) >= 2.5


def summarize_explanations(
    gateway: LlmGateway,
    defense: DefenseGraph,
    predicted: VeracityLabel,
    structure_text: Optional[str] = None,
) -> SummaryOutcome:
    """One summarization call, re-asked once unless the reply has a final
    explanation and an entry for every sub-claim 1..n.

    The embedded graph carries ``structure_text`` as its structure line, or
    no structure line when it is ``None``. Missing per-sub-claim entries
    degrade to fallback verdicts derived from the predicted label; a missing
    or empty final explanation after the re-ask is a hard SummarizationError.
    """
    n = defense.graph.n
    prompt = render_prompt(
        TemplateId.SUMMARIZE,
        {
            "predicted_label": predicted.identifier,
            "graph_block": build_graph_block(defense, structure_text),
        },
    )

    def parse(text: str) -> Tuple[Dict[int, Tuple[bool, str]], Optional[str]]:
        entries, final = parse_summary_response(text)
        in_range = {i: entries[i] for i in range(1, n + 1) if i in entries}
        if final is None or len(in_range) < n:
            lacks = f"{n - len(in_range)} of {n} entries" if final else "a final-explanation"
            rejection = ValueError(f"summary reply lacks {lacks}")
            rejection.reply = in_range, final  # what it has, to rank it below
            raise rejection
        return in_range, final

    taken, rejected = ask(
        gateway, prompt, Stage.FINAL_EXPLANATION_GENERATION, (_SUMMARY_RETRY_NOTE,), parse
    )
    warnings = ["summary response needed a corrective re-ask"] if rejected else []
    if taken is None:
        # Keep the more usable of the two replies; on a tie, max keeps the re-ask.
        first, re_ask = (exc.reply for exc in rejected)
        taken = max(re_ask, first, key=lambda reply: (reply[1] is not None, len(reply[0])))
    parsed, final = taken
    if final is None:
        raise SummarizationError("no usable final-explanation after re-ask") from rejected[-1]
    verdicts = []
    for i in range(1, n + 1):
        if i in parsed:
            verdict, reasoning = parsed[i]
            verdicts.append(SubClaimVerdict(i, verdict, reasoning))
        else:
            verdicts.append(
                SubClaimVerdict(i, fallback_verdict(predicted), fallback=True)
            )
            warnings.append(f"verdict for sub-claim {i} missing; fallback applied")
    return SummaryOutcome(tuple(verdicts), final, tuple(warnings))


@dataclass(frozen=True)
class KeptExplanation:
    sub_claim_index: int
    orientation: str  # true_oriented | false_oriented | analysis
    text: str


@dataclass(frozen=True)
class ExplanationGraph:
    """Final artifact: the graph with exactly one explanation per sub-claim."""

    claim: str
    label: VeracityLabel
    sub_claims: Tuple[str, ...]
    edges: Tuple[DependencyEdge, ...]
    verdicts: Tuple[SubClaimVerdict, ...]
    kept: Tuple[KeptExplanation, ...]
    summary: str

    @property
    def n(self) -> int:
        return len(self.sub_claims)

    def serialized_structure(self) -> str:
        return serialize_edges(self.n + 1, sorted({(e.source, e.target) for e in self.edges}))


def build_explanation_graph(
    defense: DefenseGraph,
    verdicts: Sequence[SubClaimVerdict],
    summary: str,
    label: VeracityLabel,
) -> ExplanationGraph:
    """Filter each competing pair by its verdict and freeze the result.

    A true verdict keeps the true-oriented explanation, false keeps the
    false-oriented one; a lone analysis is kept as-is. Verdicts must cover
    exactly the sub-claims 1..n.
    """
    n = defense.graph.n
    by_index = {v.sub_claim_index: v for v in verdicts}
    if sorted(by_index) != list(range(1, n + 1)) or len(by_index) != len(verdicts):
        raise ConsistencyError(
            f"verdicts cover {sorted(v.sub_claim_index for v in verdicts)}, expected 1..{n}"
        )
    kept = []
    for i in range(1, n + 1):
        entry = defense.explanation_for(i)
        if entry.is_competing:
            orientation = TRUE_ORIENTED if by_index[i].verdict else FALSE_ORIENTED
        else:
            orientation = ANALYSIS
        kept.append(KeptExplanation(i, orientation, entry.oriented(by_index[i].verdict)))
    return ExplanationGraph(
        claim=defense.graph.claim,
        label=label,
        sub_claims=defense.graph.sub_claims,
        edges=defense.graph.edges,
        verdicts=tuple(by_index[i] for i in range(1, n + 1)),
        kept=tuple(kept),
        summary=summary,
    )


def judge_payload(graph: ExplanationGraph) -> str:
    """Explanation text submitted for quality judging: structure, kept
    per-node texts, then the summary."""
    lines = [graph.serialized_structure()]
    for item in graph.kept:
        lines.append(f"Node {item.sub_claim_index}: {item.text}")
    lines.append(graph.summary)
    return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.translate({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n"})


def export_dot(graph: ExplanationGraph) -> str:
    """Graphviz rendering: claim node, sub-claim nodes with verdicts, and one
    kept-explanation node attached to each sub-claim. Byte-deterministic."""
    lines = ["digraph explanation_graph {"]
    lines.append(f'    n0 [label="Claim ({graph.label.identifier}): {_dot_escape(graph.claim)}"];')
    for i, text in enumerate(graph.sub_claims, start=1):
        verdict = "True" if graph.verdicts[i - 1].verdict else "False"
        lines.append(f'    n{i} [label="Sub-claim {i} [{verdict}]: {_dot_escape(text)}"];')
    for item in graph.kept:
        lines.append(
            f'    e{item.sub_claim_index} [shape=note, '
            f'label="{_dot_escape(item.text)}"];'
        )
    for source, target in sorted({(e.source, e.target) for e in graph.edges}):
        lines.append(f"    n{source} -> n{target};")
    for item in graph.kept:
        lines.append(f"    e{item.sub_claim_index} -> n{item.sub_claim_index};")
    lines.append("}")
    return "\n".join(lines) + "\n"


STRUCTURED_FORMAT = "explanation-graph/v1"


@dataclass(frozen=True)
class StructuredEntry:
    """One sub-claim of the structured export, with its verdict and kept explanation."""

    index: int
    text: str
    verdict: SubClaimVerdict
    kept: KeptExplanation


@dataclass(frozen=True)
class StructuredExport:
    """The structured export's JSON document: written by ``as_json``, read by ``from_json``."""

    format: str
    claim: str
    scheme: str
    label: str
    summary: str
    sub_claims: Tuple[StructuredEntry, ...]
    edges: Tuple[DependencyEdge, ...]


def export_structured(graph: ExplanationGraph) -> str:
    """Canonical JSON export; parse_structured inverts it exactly."""
    document = StructuredExport(
        format=STRUCTURED_FORMAT,
        claim=graph.claim,
        scheme=graph.label.scheme.name,
        label=graph.label.identifier,
        summary=graph.summary,
        sub_claims=tuple(
            StructuredEntry(i, graph.sub_claims[i - 1], graph.verdicts[i - 1], graph.kept[i - 1])
            for i in range(1, graph.n + 1)
        ),
        edges=tuple(sorted(graph.edges, key=lambda e: (e.source, e.target))),
    )
    return json.dumps(as_json(document), ensure_ascii=False, indent=2) + "\n"


def parse_structured(text: str) -> ExplanationGraph:
    """The graph exported as ``text``, decoded whole by ``from_json``."""
    document = from_json(StructuredExport, json.loads(text))
    if document.format != STRUCTURED_FORMAT:
        raise ValueError(f"unsupported export format: {document.format!r}")
    label = VeracityLabel.from_identifier(scheme_by_name(document.scheme), document.label)
    entries = sorted(document.sub_claims, key=lambda e: e.index)
    return ExplanationGraph(
        claim=document.claim,
        label=label,
        sub_claims=tuple(e.text for e in entries),
        edges=document.edges,
        verdicts=tuple(e.verdict for e in entries),
        kept=tuple(e.kept for e in entries),
        summary=document.summary,
    )
