"""Competing explanation generation for sub-claims.

Each sub-claim gets exactly two rationales over the same evidence: one
written under a false prior, one under a true prior. The prior is binary
even for six-way datasets; downstream inference weighs the two sides.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from .errors import ExplanationError
from .gateway import LlmGateway, Stage, TemplateId, ask, render_body, render_prompt
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


def render_evidence(texts: Sequence[str], separator: str = "\n") -> str:
    """Evidence slot content: each distinct text once, at its first rank.

    The record keeps every hit, copies included; only the prompt drops them.
    """
    return separator.join(dict.fromkeys(texts))


def _nonempty(text: str) -> str:
    if not text.strip():
        raise ValueError("empty reply")
    return text.strip()


def _complete_nonempty(gateway: LlmGateway, prompt: str, stage: Stage, what: str) -> str:
    text, _ = ask(gateway, prompt, stage, (_EMPTY_RETRY_NOTE,), _nonempty)
    if text is None:
        raise ExplanationError(f"{what} came back empty twice")
    return text


def generate_explanation(
    gateway: LlmGateway,
    sub_claim: str,
    evidence_texts: Sequence[str],
    prior: PriorLabel,
) -> str:
    side = PriorLabel(prior).value
    prompt = render_prompt(
        TemplateId.RATIONALE,
        {"sub_claim": sub_claim, "prior_label": side, "evidence": render_evidence(evidence_texts)},
    )
    what = f"{side}-oriented explanation"
    return _complete_nonempty(gateway, prompt, Stage.EXPLANATION_GENERATION, what)


def _in_order(first: Callable[[], str], second: Callable[[], str]) -> Tuple[str, str]:
    return first(), second()


def generate_competing_pair(
    gateway: LlmGateway,
    sub_claim_index: int,
    sub_claim: str,
    evidence: EvidenceSet,
    both: Callable[[Callable[[], str], Callable[[], str]], Tuple[str, str]] = _in_order,
) -> CompetingExplanations:
    """Two generation calls over identical evidence, the false side and the true side.
    Each prompt lists each distinct evidence text once (``render_evidence``).

    Neither side reads the other's reply. ``both(first, second)`` runs the
    two and returns their replies in that order; by default it runs the
    false side, then the true one. Under the pipeline it sends them at once
    (``pipeline._ClaimStages._both``); the replies and the record do not
    depend on which side finishes first.
    """
    texts = evidence.texts
    false_oriented, true_oriented = both(
        partial(generate_explanation, gateway, sub_claim, texts, PriorLabel.FALSE),
        partial(generate_explanation, gateway, sub_claim, texts, PriorLabel.TRUE),
    )
    return CompetingExplanations(
        sub_claim_index,
        false_oriented=false_oriented,
        true_oriented=true_oriented,
    )


def generate_lone_analysis(
    gateway: LlmGateway,
    sub_claim_index: int,
    sub_claim: str,
    evidence: EvidenceSet,
) -> CompetingExplanations:
    """Single prior-free rationale, used when competing pairs are disabled.
    Its prompt lists each distinct evidence text once (``render_evidence``)."""
    prompt = render_body(
        ANALYSIS_PROMPT,
        {"sub_claim": sub_claim, "evidence": render_evidence(evidence.texts)},
    )
    text = _complete_nonempty(gateway, prompt, Stage.EXPLANATION_GENERATION, "analysis")
    return CompetingExplanations(sub_claim_index, analysis=text)


def generate_background(
    gateway: LlmGateway,
    sub_claim_index: int,
    sub_claim: str,
    index: CorpusIndex,
    embedder: EmbeddingProvider,
    pool_size: int,
) -> Tuple[str, EvidenceSet]:
    """Stance-free context for a sub-claim over its top ``pool_size`` sentences.
    The prompt lists each distinct one once, joined by ", "; the pool keeps every hit."""
    pool = retrieve_top_k(sub_claim_index, sub_claim, index, embedder, k=pool_size)
    prompt = render_prompt(
        TemplateId.BACKGROUND,
        {"sub_claim": sub_claim, "evidence": render_evidence(pool.texts, ", ")},
    )
    text = _complete_nonempty(gateway, prompt, Stage.BACKGROUND_GENERATION, "background analysis")
    return text, pool
