"""The local text path against frozen copies of its original loop forms.

``split_report_sentences``, ``HashingBagOfWordsEmbedder.embed_batch`` and
``retrieve_top_k`` must give exactly what the straightforward versions below
give: the same sentences, the same embedding bits, the same ranks and the
same ``similarity`` bits. Records and prompts are built from these outputs,
so any difference would move a record digest. The reference versions are
kept here unchanged on purpose; do not optimise them.
"""
import hashlib
import math
import re
import struct
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from claimgraph.retrieval import (
    _ABBREVIATIONS,
    EvidenceCandidate,
    HashingBagOfWordsEmbedder,
    build_corpus_index,
    retrieve_top_k,
    split_report_sentences,
)

# --- frozen references -------------------------------------------------------

_REF_TERMINATOR = re.compile(r"[.!?]+(?=\s|$)")
_REF_LAST_TOKEN = re.compile(r"\S+\Z")


def reference_split(text):
    """Sentence splitting that rescans from position 0 at every terminator."""
    sentences = []
    start = 0
    for match in _REF_TERMINATOR.finditer(text):
        token_match = _REF_LAST_TOKEN.search(text, 0, match.end())
        if token_match and token_match.group(0) in _ABBREVIATIONS:
            continue
        piece = text[start : match.end()].strip()
        if piece:
            sentences.append(piece)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def reference_embed(text, dimension):
    """One text's embedding, one blake2b hash and one increment per word."""
    vec = np.zeros(dimension, dtype=np.float64)
    words = text.lower().split()
    if not words:
        return vec
    for word in words:
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest, "big") % dimension] += 1.0
    return vec / len(words)


def reference_top_k(sub_claim, index, embedder, k):
    """(report_index, sentence_index, similarity) of the top k, fsum over every row."""
    query = embedder.embed(sub_claim).tolist()
    query_norm = math.sqrt(math.fsum(x * x for x in query))
    scores = np.full(index.size, -np.inf)
    if query_norm > 0.0:
        for position, embedded in enumerate(index.matrix):
            row = embedded.tolist()
            row_norm = math.sqrt(math.fsum(x * x for x in row))
            if row_norm > 0.0:
                dot = math.fsum(u * v for u, v in zip(row, query))
                scores[position] = dot / (row_norm * query_norm)
    reports = np.array([c.report_index for c in index.candidates])
    sents = np.array([c.sentence_index for c in index.candidates])
    order = np.lexsort((sents, reports, -scores))
    return [
        (index.candidates[i].report_index, index.candidates[i].sentence_index, float(scores[i]))
        for i in order[: min(k, index.size)]
    ]


def bits(value):
    return struct.pack("<d", value)


# --- splitter ----------------------------------------------------------------

# "\x1c", "\x85" and "\u2028" are whitespace to str.strip and to the regex \s alike.
SEPARATORS = [
    " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\u3000", " \n ", "\x1c", "\x85", "\u2028",
]
TOKENS = sorted(_ABBREVIATIONS) + [
    "word", "no.", "end.", "why?", "stop!", "Really?!", "wait...", "so..", "?!",
    "...", ".", "a.b.c.d.e.f.", "U.S.A.", "x.U.S.", "(U.S.)", "Mr.Smith.",
    "St.-Louis.", "3.5", "9.", "\u00e9t\u00e9.", "a.b", "e.g.,", "U.S.!",
]
# Wider tokens that end in an abbreviation are not abbreviations.
TOKENS += [prefix + abbreviation for abbreviation in sorted(_ABBREVIATIONS) for prefix in ("x", "x.")]


@st.composite
def reports(draw):
    tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=40))
    text = ""
    for token in tokens:
        text += draw(st.sampled_from(SEPARATORS)) + token
    return text + draw(st.sampled_from(["", "\n", " ", "\u3000", ".\n"]))


@settings(max_examples=300, deadline=None)
@given(reports())
def test_splitter_matches_the_reference_on_token_streams(text):
    assert split_report_sentences(text) == reference_split(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="aU.S!?Mr \n\t\u00a0\u2003\u3000", max_size=80))
def test_splitter_matches_the_reference_on_raw_text(text):
    assert split_report_sentences(text) == reference_split(text)


def test_splitter_keeps_long_dotted_tokens_whole():
    text = "Made in the U.S.A. today. See a.b.c.d.e.f. then stop. Ask Mr. Lee."
    assert split_report_sentences(text) == reference_split(text) == [
        "Made in the U.S.A.",
        "today.",
        "See a.b.c.d.e.f.",
        "then stop.",
        "Ask Mr. Lee.",
    ]


def test_splitting_is_linear_in_report_length():
    # A quadratic splitter takes tens of seconds here; a linear one, tens of
    # milliseconds. The bound leaves a wide margin for a slow machine.
    sentence = "Officials from the U.S. agency said the budget rose again."
    text = " ".join([sentence] * 3000)
    started = time.perf_counter()
    sentences = split_report_sentences(text)
    elapsed = time.perf_counter() - started
    assert len(sentences) == 3000
    assert elapsed < 1.0, f"3000 sentences took {elapsed:.2f} s"


# --- embedder ----------------------------------------------------------------

texts = st.lists(st.text(alphabet="abcAB \u00e9\u00c9 \u3000\n.", max_size=30), max_size=12)


@settings(max_examples=150, deadline=None)
@given(texts, st.integers(1, 40))
def test_embedder_is_bitwise_equal_to_the_per_word_loop(batch, dimension):
    emb = HashingBagOfWordsEmbedder(dimension=dimension)
    got = emb.embed_batch(batch)
    want = np.array([reference_embed(t, dimension) for t in batch]).reshape(len(batch), dimension)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for text in batch:
        assert emb.embed(text).tobytes() == reference_embed(text, dimension).tobytes()


# --- retrieve_top_k ----------------------------------------------------------


class TableEmbedder:
    """Embeds the texts it was given a vector for; anything else is the query."""

    def __init__(self, rows, query):
        self.vectors = {f"row {i}": row for i, row in enumerate(rows)}
        self.query = query
        self.dimension = len(query)

    def embed(self, text):
        return self.vectors.get(text, self.query)

    def embed_batch(self, texts):
        return np.array([self.embed(t) for t in texts]).reshape(len(texts), self.dimension)


SCALES = [1.0, 1.0, 0.1, 3.0, 1e-3, 7e5]
# Entries whose sum rounds differently in different orders: permutations of
# one row tie exactly under fsum but not under a BLAS dot product.
UNEVEN = [1e16, -1e16, 1.0, 0.5, 3.0, 1e-3]


@st.composite
def tied_corpora(draw):
    """Up to 2000 rows drawn from a few base vectors: exact ties, near ties
    (one ulp apart, or equal up to rounding after scaling, or permuted under
    an all-ones query) and zero rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(1, 2000))
    dimension = draw(st.integers(1, 24))
    scales = SCALES + draw(st.sampled_from([[], [1e-170, 1e170]]))
    permuted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    bases = rng.integers(-3, 4, size=(rng.integers(1, 9), dimension)).astype(np.float64)
    if permuted:
        bases = rng.choice(UNEVEN, size=(1, dimension))
    rows = bases[rng.integers(0, len(bases), size=size)]
    if permuted:
        rows = rng.permuted(rows, axis=1)
    rows *= rng.choice(scales, size=(size, 1))
    nudged = rng.random(size) < 0.2
    rows[nudged] = np.nextafter(rows[nudged], np.inf)
    rows[rng.random(size) < 0.05] = 0.0
    query = rng.integers(-3, 4, size=dimension).astype(np.float64)
    if permuted:
        query[:] = 1.0
    if rng.random() < 0.05:
        query[:] = 0.0
    # Report/sentence positions shuffled, so ties do not break by row position.
    positions = [(int(p) // 7, int(p) % 7) for p in rng.permutation(size)]
    k = draw(st.integers(1, 12))
    return rows, query, positions, k


@settings(max_examples=60, deadline=None)
@given(tied_corpora())
def test_top_k_ranks_and_similarity_bits_equal_the_fsum_reference(corpus):
    rows, query, positions, k = corpus
    emb = TableEmbedder(rows, query)
    candidates = [EvidenceCandidate(r, s, f"row {i}") for i, (r, s) in enumerate(positions)]
    index = build_corpus_index(candidates, emb)
    got = [
        (e.report_index, e.sentence_index, bits(e.similarity))
        for e in retrieve_top_k(1, "query", index, emb, k=k).items
    ]
    want = [(r, s, bits(sim)) for r, s, sim in reference_top_k("query", index, emb, k)]
    assert got == want


WORDS = ["votes", "count", "county", "audit", "Votes", "records", "the", ""]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join), min_size=1, max_size=40),
    st.integers(1, 1999),
    st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
    st.integers(1, 8),
)
def test_top_k_over_hashed_sentences_equals_the_fsum_reference(pool, size, query, k):
    emb = HashingBagOfWordsEmbedder(dimension=16)
    candidates = [EvidenceCandidate(i // 9, i % 9, pool[i % len(pool)]) for i in range(size)]
    index = build_corpus_index(candidates, emb)
    got = [
        (e.report_index, e.sentence_index, bits(e.similarity))
        for e in retrieve_top_k(1, query, index, emb, k=k).items
    ]
    want = [(r, s, bits(sim)) for r, s, sim in reference_top_k(query, index, emb, k)]
    assert got == want
