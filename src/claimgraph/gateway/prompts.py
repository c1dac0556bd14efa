"""Prompt template registry.

Slots use the ``{{name}}`` marker syntax; rendering is a single substitution
pass, so slot-like text inside a binding value is left alone. Template bodies
are frozen verbatim; reformatting them breaks the fidelity checks in the test
suite.

Two kinds of instruction text live outside the registry, beside their call
sites: ``explain.ANALYSIS_PROMPT``, the prior-free rationale used when
competing pairs are turned off, and the corrective notes that ``gateway.ask``
appends to a re-asked prompt. ``ANALYSIS_PROMPT`` is not one of the paper's
prompts, and every registered template must match a frozen transcription of
one.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

from ..errors import UnboundSlotError, UnknownTemplateError

SLOT_PATTERN = re.compile(r"\{\{([a-z][a-z0-9_]*)\}\}")


class TemplateId(str, Enum):
    DECOMPOSE = "decompose"
    EDGES = "edges"
    RATIONALE = "rationale"
    INFERENCE = "inference"
    SUMMARIZE = "summarize"
    HYPEREDGES = "hyperedges"
    BACKGROUND = "background"
    DECOMPOSE_PLUS = "decompose_plus"
    JUDGE = "judge"


DECOMPOSE_PROMPT = """You are a fake news detection assistant. Your primary function is that, given a complex news claim, based on its content, please break it down into several sub-claims relevant to the veracity of the claim. Note that directly generate sub-claims in short and clear manner, avoiding redundancy.

# News claim: {{claim}}"""

EDGES_PROMPT = """You are a graph construction assistant. Your primary function is that, given a complex news claim (index 0), and several sub-claims (index starting from 1) decomposed from the news claim, please use logical relationships to construct a reasoning graph that reflects how the sub-claims contribute to the truth of the overall claim.
Note: Your output should be in a dictionary format with the keys: ("analysis", "edges"). You should generate directed edges using the indexes of the claims, formatted as a list like [(1, 0), (2, 3), (3, 0)].
# News claim: 0. {{claim}}
# Sub-claims: {{subclaims}}"""

RATIONALE_PROMPT = """Given a claim: {{sub_claim}}, a veracity label {{prior_label}}, please give me a streamlined rationale associated with the claim, without explicitly indicating the label, for how it is reasoned as {{prior_label}}. Below are some sentences that may be helpful for the rationale, but they are mixed with noise: {{evidence}}.
Note, please do not repeat the claim and the label in your explanation, just directly output your streamlined rationale in a short and clear manner."""

INFERENCE_PROMPT = """Graph used for fake news detection:
# Node Content:
{{node_content}}
# Graph Structure: {{graph_structure}}
# Query (Q): What is the label of Node 0 (claim)? Please directly output your predicted label from {{label_set}}."""

SUMMARIZE_PROMPT = """Given a claim, its corresponding claim-centered graph, and a veracity label {{predicted_label}}, please give me the veracity prediction about each sub-claim, and a streamlined rationale associate with the claim for how it is reasoned as {{predicted_label}}.
# Claim-centered graph: {{graph_block}}
Your response should be a Python dictionary with the following structure:
{
    "sub-claims-veracity":
    {
        "sub-claim 1": {
            "reasoning": "Your analysis about the veracity of sub-claim 1",
            "prediction": "True/False"
        },
        ...,
        "sub-claim n": {
            "reasoning": "Your analysis about the veracity of sub-claim n.",
            "prediction": "True/False"
        }
    },
    "final-explanation": ""
}"""

HYPEREDGES_PROMPT = """You are a hypergraph construction assistant. Your primary function is that, given a complex news claim (index 0), and several sub-claims (index starting from 1) decomposed from the news claim, please use topic relationship to construct a reasoning graph that reflects how the sub-claims contribute to the truth of the overall claim. A hyperedge represents a higher-level topic or reasoning unit that connects multiple related claims (e.g., several sub-claims that jointly address one aspect of the main claim). Unlike simple pairwise edges, each hyperedge can include more than two nodes to capture shared themes or collective reasoning.
Note: Your output should be in a dictionary format with the keys: ("analysis", "hyperedges"). You should generate hyperedges using the indexes of the claims, formatted as a list of lists like [[1, 2, 0], [3, 4, 5, 0], [5, 6, 0]].
# News claim: 0. {{claim}}
# Sub-claims: {{subclaims}}"""

BACKGROUND_PROMPT = """You have been specially designed to perform objective contextual analysis for the fake news detection task. Your primary function is that, according to a news claim and some sentences related to it, please provide a streamlined contextual analysis that helps understand the background, circumstances, or perspectives related to the claim. Your goal is to summarize the key contextual information — such as background facts, timelines, participants, related events, or uncertainties —that could help people interpret or understand the claim, without expressing any stance on its truthfulness. Note: Do not repeat the claim itself, and do not imply or indicate any truth judgment. Just directly output the short and clear contextual rationale.
Given a claim {{sub_claim}} and a set of retrieved relevant reports {{evidence}}, please provide a short and clear objective contextual analysis that presents factual background or explanatory information helping to understand the claim, without expressing any stance on its veracity."""

DECOMPOSE_PLUS_PROMPT = """You are a fake news detection assistant. Your primary function is to analyze a complex news claim and decompose it into several clear, atomic sub-claims that collectively capture the full meaning and verifiability of the claim. 1. Decomposition Strategies
When analyzing the claim, adopt systematic reasoning strategies to ensure a complete and logically structured breakdown:
- Logical decomposition: Separate the claim into distinct factual assertions that can be verified independently.
- Causal reasoning: Identify cause–effect or condition–result relations.
- Hierarchical reasoning: Distinguish between general and specific statements or between main ideas and supporting facts.
- Factual reasoning: Focus on objectively testable propositions rather than opinions or implications.
2. News and Communication Cues
Incorporate journalistic awareness to better capture how information is presented in news texts:
- Recognize news structures such as headlines, reported statements, and factual details.
- Distinguish reported speech or attribution (e.g., “X said that...”) from factual assertions about reality.
- Identify quantitative or comparative claims (e.g., numbers, rates, trends) and evaluative expressions (e.g., moral or emotional framing).
- If the claim includes a source or attribution, include it as part of the sub-claim (e.g., “Officials claimed that...” or “According to reports,...”).
- When the claim involves ambiguous or questionable sources, make that explicit (e.g., “It is claimed, without evidence, that...”).
3. Dependency Cues
If there are logical dependencies among sub-claims, make them explicit:
- Use connectors such as “if,” “because,” “therefore,” or “as a result.”
- Reflect the logical flow between causes, conditions, and consequences.
4. Factual Dimensions
Ensure coverage of the key fact-checking dimensions as appropriate — such as who, what, when, where, why/how, and consequences.
5. Output Requirements
Each sub-claim should be concise (1–2 sentences), self-contained, and verifiable.
Avoid redundancy and overlapping information.
Base all sub-claims strictly on the information stated or clearly implied in the original claim; do not introduce new facts or assumptions.
Output only the numbered sub-claims list, without any additional explanations or commentary.
# News claim: {{claim}}"""

JUDGE_PROMPT = """You are an impartial judge evaluating the quality of an explanation produced for a news claim verification task.
# Claim: {{claim}}
# Gold veracity label: {{gold_label}}
# Explanation: {{explanation}}
Rate the explanation on the following four metrics, each on a 5-point Likert scale:
- Misleadingness (M) measures whether the explanation aligns with the true veracity label of a claim. It is rated from 1 (not misleading) to 5 (highly misleading).
- Informativeness (I) measures the extent to which the explanation provides new insights, such as background details and additional context. The scale ranges from 1 (not informative) to 5 (highly informative).
- Soundness (S) describes whether the explanation seems valid and logical, with a rating scale ranging from 1 (not sound) to 5 (very sound).
- Readability (R) assesses whether the explanation follows proper grammar and structural rules, and whether the sentences in the explanation fit together and are easy to follow, with a rating scale ranging from 1 (poor) to 5 (excellent).
Note: Your output should be in a dictionary format with the keys: ("misleadingness", "informativeness", "soundness", "readability"), each mapped to an integer score."""


@dataclass(frozen=True)
class PromptTemplate:
    template_id: TemplateId
    body: str
    slots: Tuple[str, ...]

    @classmethod
    def from_body(cls, template_id: TemplateId, body: str) -> "PromptTemplate":
        seen = []
        for name in SLOT_PATTERN.findall(body):
            if name not in seen:
                seen.append(name)
        return cls(template_id, body, tuple(seen))


_REGISTRY: Dict[TemplateId, PromptTemplate] = {
    tid: PromptTemplate.from_body(tid, body)
    for tid, body in {
        TemplateId.DECOMPOSE: DECOMPOSE_PROMPT,
        TemplateId.EDGES: EDGES_PROMPT,
        TemplateId.RATIONALE: RATIONALE_PROMPT,
        TemplateId.INFERENCE: INFERENCE_PROMPT,
        TemplateId.SUMMARIZE: SUMMARIZE_PROMPT,
        TemplateId.HYPEREDGES: HYPEREDGES_PROMPT,
        TemplateId.BACKGROUND: BACKGROUND_PROMPT,
        TemplateId.DECOMPOSE_PLUS: DECOMPOSE_PLUS_PROMPT,
        TemplateId.JUDGE: JUDGE_PROMPT,
    }.items()
}


def get_template(template_id: TemplateId) -> PromptTemplate:
    try:
        return _REGISTRY[TemplateId(template_id)]
    except (KeyError, ValueError):
        raise UnknownTemplateError(f"no template registered for {template_id!r}") from None


def render_body(body: str, bindings: Mapping[str, str]) -> str:
    """Substitute ``{{slot}}`` markers in ``body`` from ``bindings``.

    Single pass: marker-shaped text introduced by a binding value is not
    substituted again. A slot without a binding raises UnboundSlotError;
    unused bindings are ignored.
    """

    def _sub(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name not in bindings:
            raise UnboundSlotError(f"no binding for slot {name!r}")
        return str(bindings[name])

    return SLOT_PATTERN.sub(_sub, body)


def render_prompt(template_id: TemplateId, bindings: Mapping[str, Optional[str]]) -> str:
    """Render a registered template from ``bindings``.

    A template line with a slot bound to ``None`` is left out, line break
    included. Every other line renders as ``render_body`` renders it, and a
    slot without a binding still raises UnboundSlotError.
    """
    body = get_template(template_id).body
    if any(value is None for value in bindings.values()):
        body = "\n".join(
            line
            for line in body.split("\n")
            if all(bindings.get(name, "") is not None for name in SLOT_PATTERN.findall(line))
        )
    return render_body(body, bindings)
