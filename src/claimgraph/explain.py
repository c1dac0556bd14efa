"""Competing explanation generation for sub-claims.

Each sub-claim gets exactly two rationales over the same evidence: one
written under a false prior, one under a true prior. The prior is binary
even for six-way datasets; downstream inference weighs the two sides.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .errors import ExplanationError
from .gateway import LlmGateway, Stage, TemplateId, render_body, render_prompt
from .retrieval import CorpusIndex, EmbeddingProvider, EvidenceSet, retrieve_top_k


class PriorLabel(str, Enum):
    FALSE = "false"
    TRUE = "true"


# Prior-free variant used when competing explanations are disabled: the model
# is asked for a single rationale based on its own read of the claim.
ANALYSIS_PROMPT = """Given a claim: {{sub_claim}}, please give me a streamlined rationale associated with the claim, based on your own analysis of its veracity. Below are some sentences that may be helpful for the rationale, but they are mixed with noise: {{evidence}}.
Note, please do not repeat the claim in your explanation, just directly output your streamlined rationale in a short and clear manner."""

_EMPTY_RETRY_NOTE = "\nNote: The rationale must not be empty."


@dataclass(frozen=True)
class CompetingExplanations:
    sub_claim_index: int
    false_oriented: Optional[str] = None
    true_oriented: Optional[str] = None
    analysis: Optional[str] = None
    background: Optional[str] = None
    evidence_used: Optional[EvidenceSet] = None

    def __post_init__(self) -> None:
        paired = self.false_oriented is not None and self.true_oriented is not None
        lone = self.analysis is not None
        if paired == lone:
            raise ValueError("provide either both oriented explanations or a lone analysis")

    @property
    def is_competing(self) -> bool:
        return self.analysis is None

    def oriented(self, verdict_true: bool) -> str:
        """The explanation consistent with a per-sub-claim verdict."""
        if not self.is_competing:
            return self.analysis  # type: ignore[return-value]
        return self.true_oriented if verdict_true else self.false_oriented  # type: ignore[return-value]

    def to_dict(self) -> dict:
        return {
            "sub_claim_index": self.sub_claim_index,
            "false_oriented": self.false_oriented,
            "true_oriented": self.true_oriented,
            "analysis": self.analysis,
            "background": self.background,
            "evidence_used": self.evidence_used.to_dict() if self.evidence_used else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CompetingExplanations":
        evidence = payload.get("evidence_used")
        return cls(
            payload["sub_claim_index"],
            payload.get("false_oriented"),
            payload.get("true_oriented"),
            payload.get("analysis"),
            payload.get("background"),
            EvidenceSet.from_dict(evidence) if evidence else None,
        )


def render_evidence(texts: Sequence[str]) -> str:
    """Evidence slot content: one sentence per line, in rank order."""
    return "\n".join(texts)


def _complete_nonempty(gateway: LlmGateway, prompt: str, what: str) -> str:
    response = gateway.complete(prompt, Stage.EXPLANATION_GENERATION)
    text = response.text.strip()
    if text:
        return text
    response = gateway.complete(prompt + _EMPTY_RETRY_NOTE, Stage.EXPLANATION_GENERATION)
    text = response.text.strip()
    if text:
        return text
    raise ExplanationError(f"{what} came back empty twice")


def generate_explanation(
    gateway: LlmGateway,
    sub_claim: str,
    evidence_texts: Sequence[str],
    prior: PriorLabel,
) -> str:
    prompt = render_prompt(
        TemplateId.RATIONALE,
        {
            "sub_claim": sub_claim,
            "prior_label": PriorLabel(prior).value,
            "evidence": render_evidence(evidence_texts),
        },
    )
    return _complete_nonempty(gateway, prompt, f"{PriorLabel(prior).value}-oriented explanation")


def generate_competing_pair(
    gateway: LlmGateway,
    sub_claim_index: int,
    sub_claim: str,
    evidence: EvidenceSet,
) -> CompetingExplanations:
    """Two generation calls over identical evidence: false prior, then true."""
    texts = evidence.texts
    false_oriented = generate_explanation(gateway, sub_claim, texts, PriorLabel.FALSE)
    true_oriented = generate_explanation(gateway, sub_claim, texts, PriorLabel.TRUE)
    return CompetingExplanations(
        sub_claim_index,
        false_oriented=false_oriented,
        true_oriented=true_oriented,
        evidence_used=evidence,
    )


def generate_lone_analysis(
    gateway: LlmGateway,
    sub_claim_index: int,
    sub_claim: str,
    evidence: EvidenceSet,
) -> CompetingExplanations:
    """Single prior-free rationale, used when competing pairs are disabled."""
    prompt = render_body(
        ANALYSIS_PROMPT,
        {"sub_claim": sub_claim, "evidence": render_evidence(evidence.texts)},
    )
    text = _complete_nonempty(gateway, prompt, "analysis")
    return CompetingExplanations(sub_claim_index, analysis=text, evidence_used=evidence)


def generate_background(
    gateway: LlmGateway,
    sub_claim_index: int,
    sub_claim: str,
    index: CorpusIndex,
    embedder: EmbeddingProvider,
    pool_size: int,
) -> Tuple[str, EvidenceSet]:
    """Stance-free context for a sub-claim over its top ``pool_size`` sentences."""
    pool = retrieve_top_k(sub_claim_index, sub_claim, index, embedder, k=pool_size)
    prompt = render_prompt(
        TemplateId.BACKGROUND,
        {"sub_claim": sub_claim, "evidence": ", ".join(pool.texts)},
    )
    text = _complete_nonempty(gateway, prompt, "background analysis")
    return text, pool
