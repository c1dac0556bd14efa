import pytest

from claimgraph.errors import ExplanationError
from claimgraph.explain import (
    CompetingExplanations,
    PriorLabel,
    generate_background,
    generate_competing_pair,
    generate_lone_analysis,
    render_evidence,
)
from claimgraph.gateway import GenerationResponse, Stage, TokenUsage
from claimgraph.retrieval import (
    EvidenceCandidate,
    EvidenceSet,
    HashingBagOfWordsEmbedder,
    RetrievedEvidence,
    build_corpus_index,
)


class FakeGateway:
    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt_text, stage, temperature=None):
        self.prompts.append((stage, prompt_text))
        return GenerationResponse(self.replies.pop(0), TokenUsage(1, 1))


def small_evidence(index=1):
    items = (
        RetrievedEvidence(0, 0, "First sentence.", 0.9),
        RetrievedEvidence(1, 2, "Second sentence.", 0.4),
    )
    return EvidenceSet(index, items, 5)


def test_pair_requires_both_orientations():
    with pytest.raises(ValueError):
        CompetingExplanations(1, false_oriented="only one side")
    with pytest.raises(ValueError):
        CompetingExplanations(1)
    with pytest.raises(ValueError):
        CompetingExplanations(
            1, false_oriented="f", true_oriented="t", analysis="and this too"
        )


def test_oriented_selects_by_verdict():
    pair = CompetingExplanations(1, false_oriented="f-side", true_oriented="t-side")
    assert pair.oriented(True) == "t-side"
    assert pair.oriented(False) == "f-side"
    assert pair.is_competing
    lone = CompetingExplanations(1, analysis="the one take")
    assert lone.oriented(True) == "the one take"
    assert lone.oriented(False) == "the one take"
    assert not lone.is_competing


def test_round_trip_through_dict():
    pair = CompetingExplanations(
        2,
        false_oriented="f",
        true_oriented="t",
        background="context",
        evidence_used=small_evidence(2),
    )
    assert CompetingExplanations.from_dict(pair.to_dict()) == pair


def test_competing_pair_calls_false_then_true_on_same_evidence():
    gw = FakeGateway(["the false case", "the true case"])
    pair = generate_competing_pair(gw, 1, "the sub-claim", small_evidence())
    assert pair.false_oriented == "the false case"
    assert pair.true_oriented == "the true case"
    assert len(gw.prompts) == 2
    (stage_a, prompt_a), (stage_b, prompt_b) = gw.prompts
    assert stage_a == stage_b == Stage.EXPLANATION_GENERATION
    # Same evidence block in both prompts; only the prior flips.
    evidence_block = render_evidence(small_evidence().texts)
    assert evidence_block in prompt_a and evidence_block in prompt_b
    assert "false" in prompt_a
    assert prompt_a != prompt_b


def test_empty_reply_gets_one_distinct_retry():
    gw = FakeGateway(["", "eventually text", "x", "y"])
    pair = generate_competing_pair(gw, 1, "s", small_evidence())
    assert pair.false_oriented == "eventually text"
    assert gw.prompts[0][1] != gw.prompts[1][1]


def test_two_empty_replies_fail():
    gw = FakeGateway(["", "  \n "])
    with pytest.raises(ExplanationError):
        generate_competing_pair(gw, 1, "s", small_evidence())


def test_lone_analysis_is_single_call():
    gw = FakeGateway(["just the analysis"])
    entry = generate_lone_analysis(gw, 3, "s", small_evidence(3))
    assert entry.analysis == "just the analysis"
    assert not entry.is_competing
    assert len(gw.prompts) == 1
    # The prior-free prompt must not ask for a preassigned orientation.
    assert "veracity label" not in gw.prompts[0][1]


def test_background_uses_wide_pool_and_comma_joins():
    emb = HashingBagOfWordsEmbedder(dimension=16)
    candidates = [
        EvidenceCandidate(0, i, f"sentence number {i} about votes") for i in range(30)
    ]
    index = build_corpus_index(candidates, emb)
    gw = FakeGateway(["background text"])
    text, pool = generate_background(gw, 1, "about votes", index, emb, 20)
    assert text == "background text"
    assert len(pool.items) == 20
    assert ", ".join(pool.texts) in gw.prompts[0][1]
    assert gw.prompts[0][0] == Stage.EXPLANATION_GENERATION
