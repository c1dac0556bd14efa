import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimgraph.records import ClaimRecord, Report
from claimgraph.retrieval import (
    EvidenceCandidate,
    HashingBagOfWordsEmbedder,
    build_corpus,
    build_corpus_index,
    retrieve_top_k,
    split_report_sentences,
)


def test_split_plain_sentences():
    text = "One thing happened. Another followed! Was that all? Yes."
    assert split_report_sentences(text) == [
        "One thing happened.",
        "Another followed!",
        "Was that all?",
        "Yes.",
    ]


def test_split_guards_known_abbreviations():
    text = "Dr. Smith met the U.S. envoy on Jan. 5. They spoke for an hour."
    assert split_report_sentences(text) == [
        "Dr. Smith met the U.S. envoy on Jan. 5.",
        "They spoke for an hour.",
    ]


def test_split_abbreviation_guard_is_case_sensitive():
    # Sentence-final "no." is a real terminator; the guard list has "No."
    # (the numbering abbreviation), not its lowercase form.
    assert split_report_sentences("The answer was no. Everyone left.") == [
        "The answer was no.",
        "Everyone left.",
    ]


def test_split_keeps_terminator_runs_and_trailing_fragment():
    assert split_report_sentences("Really?! Hard to say... and then silence") == [
        "Really?!",
        "Hard to say...",
        "and then silence",
    ]


def test_split_whitespace_only():
    assert split_report_sentences("   \n\t ") == []


def test_embedder_is_deterministic_and_order_free():
    emb = HashingBagOfWordsEmbedder(dimension=16)
    a = emb.embed("votes were counted twice")
    b = emb.embed("counted votes twice were")
    assert np.array_equal(a, b)
    assert a.shape == (16,)


def test_embedder_empty_text_is_zero_vector():
    emb = HashingBagOfWordsEmbedder(dimension=8)
    assert not emb.embed("").any()
    assert emb.embed_batch([]).shape == (0, 8)


def make_index(sentences_by_report, embedder):
    candidates = [
        EvidenceCandidate(ri, si, text)
        for ri, sentences in enumerate(sentences_by_report)
        for si, text in enumerate(sentences)
    ]
    return build_corpus_index(candidates, embedder)


def test_exact_ties_break_by_report_then_sentence():
    emb = HashingBagOfWordsEmbedder(dimension=16)
    index = make_index(
        [["filler words here", "the claim verbatim"], ["the claim verbatim"]], emb
    )
    result = retrieve_top_k(1, "the claim verbatim", index, emb, k=2)
    positions = [(e.report_index, e.sentence_index) for e in result.items]
    assert positions == [(0, 1), (1, 0)]


def test_k_clamps_to_corpus_size():
    emb = HashingBagOfWordsEmbedder(dimension=8)
    index = make_index([["a b", "c d"]], emb)
    result = retrieve_top_k(1, "a", index, emb, k=5)
    assert len(result.items) == 2
    assert result.k == 5


def test_empty_corpus_gives_empty_set():
    emb = HashingBagOfWordsEmbedder(dimension=8)
    index = build_corpus_index([], emb)
    assert retrieve_top_k(2, "anything", index, emb, k=3).items == ()


def test_k_must_be_positive():
    emb = HashingBagOfWordsEmbedder(dimension=8)
    index = make_index([["a"]], emb)
    with pytest.raises(ValueError):
        retrieve_top_k(1, "a", index, emb, k=0)


def test_build_corpus_enumerates_report_sentences():
    record = ClaimRecord(
        claim_id="x",
        claim="c",
        reports=(Report(("s one.", "s two.")), Report(("s three.",))),
    )
    corpus = build_corpus(record)
    assert [(c.report_index, c.sentence_index) for c in corpus] == [(0, 0), (0, 1), (1, 0)]


WORDS = ["alpha", "beta", "gamma", "delta", "votes", "count"]
sentence = st.lists(st.sampled_from(WORDS), min_size=0, max_size=6).map(" ".join)
corpus_shape = st.lists(st.lists(sentence, min_size=1, max_size=4), min_size=0, max_size=4)


def oracle_top_k(query_vec, candidates, rows, k):
    """Independent ranking: pure-python cosine, stdlib sort."""

    def dot(u, v):
        return math.fsum(x * y for x, y in zip(u, v))

    qn = math.sqrt(dot(query_vec, query_vec))
    scored = []
    for cand, row in zip(candidates, rows):
        rn = math.sqrt(dot(row, row))
        if qn == 0.0 or rn == 0.0:
            score = float("-inf")
        else:
            score = dot(row, query_vec) / (rn * qn)
        scored.append((score, cand))
    scored.sort(key=lambda t: (-t[0], t[1].report_index, t[1].sentence_index))
    return [t[1] for t in scored[: min(k, len(scored))]]


@settings(max_examples=150, deadline=None)
@given(corpus_shape, sentence, st.integers(1, 6))
def test_retrieval_matches_brute_force_oracle(shape, query, k):
    emb = HashingBagOfWordsEmbedder(dimension=16)
    index = make_index(shape, emb)
    result = retrieve_top_k(1, query, index, emb, k=k)
    expected = oracle_top_k(
        emb.embed(query).tolist(),
        index.candidates,
        [row.tolist() for row in index.matrix],
        k,
    )
    got = [(e.report_index, e.sentence_index) for e in result.items]
    want = [(c.report_index, c.sentence_index) for c in expected]
    assert got == want
