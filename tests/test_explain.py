import pytest
from hypothesis import given, strategies as st

from claimgraph.errors import ExplanationError
from claimgraph.explain import (
    CompetingExplanations,
    PriorLabel,
    generate_background,
    generate_competing_pair,
    generate_lone_analysis,
    render_evidence,
)
from claimgraph.gateway import Stage, TemplateId, render_prompt
from claimgraph.retrieval import (
    EvidenceCandidate,
    EvidenceSet,
    HashingBagOfWordsEmbedder,
    RetrievedEvidence,
    build_corpus_index,
)

from fakes import FakeGateway
from test_record_stability import evidence_lines


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


def background_prompt(sub_claim, items):
    """The background prompt whose evidence slot joins ``items`` with ", "."""
    return render_prompt(
        TemplateId.BACKGROUND, {"sub_claim": sub_claim, "evidence": ", ".join(items)}
    )


def test_background_uses_wide_pool_and_comma_joins():
    emb = HashingBagOfWordsEmbedder(dimension=16)
    candidates = [
        EvidenceCandidate(0, i, f"sentence number {i} about votes") for i in range(30)
    ]
    # A second report carries a copy of each.
    candidates += [EvidenceCandidate(1, c.sentence_index, c.text) for c in candidates]
    index = build_corpus_index(candidates, emb)
    gw = FakeGateway(["background text"])
    text, pool = generate_background(gw, 1, "about votes", index, emb, 20)
    assert text == "background text"
    assert len(pool.items) == 20
    distinct = list(dict.fromkeys(pool.texts))
    assert len(distinct) < len(pool.texts)
    assert gw.prompts[0][1] == background_prompt("about votes", distinct)
    assert gw.prompts[0][0] == Stage.BACKGROUND_GENERATION


# Evidence texts drawn from a few distinct sentences, so that copies are common.
evidence_texts = st.lists(
    st.text(alphabet="ab ,.\u00e9", min_size=1, max_size=8), min_size=1, max_size=4, unique=True
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10))


@given(evidence_texts)
def test_every_evidence_slot_lists_each_distinct_text_once_at_its_first_rank(texts):
    items = tuple(RetrievedEvidence(0, i, text, 0.5) for i, text in enumerate(texts))
    evidence = EvidenceSet(1, items, len(items))
    gw = FakeGateway(["the false case", "the true case", "the analysis"])
    generate_competing_pair(gw, 1, "the sub-claim", evidence)
    generate_lone_analysis(gw, 1, "the sub-claim", evidence)
    distinct = list(dict.fromkeys(texts))
    assert [evidence_lines(prompt) for _stage, prompt in gw.prompts] == [distinct] * 3

    emb = HashingBagOfWordsEmbedder(dimension=16)
    index = build_corpus_index([EvidenceCandidate(0, i, t) for i, t in enumerate(texts)], emb)
    gw = FakeGateway(["background text"])
    _text, pool = generate_background(gw, 1, "the sub-claim", index, emb, len(texts))
    assert sorted(pool.texts) == sorted(texts)
    assert gw.prompts[0][1] == background_prompt("the sub-claim", dict.fromkeys(pool.texts))


@given(evidence_texts.map(lambda texts: list(dict.fromkeys(texts))))
def test_evidence_without_copies_renders_as_the_plain_join(texts):
    items = tuple(RetrievedEvidence(0, i, text, 0.5) for i, text in enumerate(texts))
    gw = FakeGateway(["the false case", "the true case"])
    generate_competing_pair(gw, 1, "the sub-claim", EvidenceSet(1, items, len(items)))
    assert gw.prompts[0][1] == render_prompt(
        TemplateId.RATIONALE,
        {"sub_claim": "the sub-claim", "prior_label": "false", "evidence": "\n".join(texts)},
    )

    emb = HashingBagOfWordsEmbedder(dimension=16)
    index = build_corpus_index([EvidenceCandidate(0, i, t) for i, t in enumerate(texts)], emb)
    gw = FakeGateway(["background text"])
    _text, pool = generate_background(gw, 1, "the sub-claim", index, emb, len(texts))
    assert gw.prompts[0][1] == background_prompt("the sub-claim", pool.texts)
