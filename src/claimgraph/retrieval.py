"""Evidence retrieval: sentence splitting, embeddings, cosine top-k.

Reports are exploded into a per-claim corpus of candidate sentences; each
sub-claim pulls its own top-k by cosine similarity over pooled embeddings.
"""
from __future__ import annotations

import hashlib
import math
import re
import time
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np
import requests

from .errors import EmbeddingError
from .records import ClaimRecord

# Tokens that end with a period without ending a sentence. Matching is
# case-sensitive on purpose: guarding lowercase "no." would swallow real
# sentence ends.
_ABBREVIATIONS = frozenset(
    {
        "U.S.", "U.K.", "U.N.", "E.U.", "D.C.",
        "Mr.", "Mrs.", "Ms.", "Dr.", "Prof.", "Rep.", "Sen.", "Gov.",
        "Jr.", "Sr.", "St.", "No.", "Inc.", "Ltd.", "Co.", "Corp.",
        "vs.", "etc.", "e.g.", "i.e.", "cf.", "al.",
        "Jan.", "Feb.", "Mar.", "Apr.", "Jun.", "Jul.", "Aug.",
        "Sep.", "Sept.", "Oct.", "Nov.", "Dec.",
    }
)

_TERMINATOR = re.compile(r"[.!?]+(?=\s|$)")
_LAST_TOKEN = re.compile(r"\S+\Z")


def split_report_sentences(text: str) -> List[str]:
    """Split report text into sentences on ., ! and ? runs.

    A period closing a known abbreviation does not split. A trailing
    fragment without a terminator still counts as a sentence. Whitespace-only
    input yields an empty list.
    """
    sentences: List[str] = []
    start = 0
    for match in _TERMINATOR.finditer(text):
        token_match = _LAST_TOKEN.search(text, 0, match.end())
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


@dataclass(frozen=True)
class EvidenceCandidate:
    report_index: int
    sentence_index: int
    text: str


@dataclass(frozen=True)
class RetrievedEvidence:
    report_index: int
    sentence_index: int
    text: str
    similarity: float

    def to_dict(self) -> dict:
        return {
            "report_index": self.report_index,
            "sentence_index": self.sentence_index,
            "text": self.text,
            "similarity": self.similarity,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RetrievedEvidence":
        return cls(
            payload["report_index"],
            payload["sentence_index"],
            payload["text"],
            payload["similarity"],
        )


@dataclass(frozen=True)
class EvidenceSet:
    sub_claim_index: int
    items: Tuple[RetrievedEvidence, ...]
    k: int

    @property
    def texts(self) -> List[str]:
        return [item.text for item in self.items]

    def to_dict(self) -> dict:
        return {
            "sub_claim_index": self.sub_claim_index,
            "k": self.k,
            "items": [item.to_dict() for item in self.items],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvidenceSet":
        return cls(
            payload["sub_claim_index"],
            tuple(RetrievedEvidence.from_dict(i) for i in payload["items"]),
            payload["k"],
        )


class EmbeddingProvider(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray: ...


class HashingBagOfWordsEmbedder:
    """Deterministic test embedder: every lowercased word hashes to one unit
    basis direction and the text embedding is the average over its words.

    Word order is irrelevant by construction; an empty text embeds to the
    zero vector (degenerate: excluded from similarity ranking).
    """

    def __init__(self, dimension: int = 64) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def _slot(self, word: str) -> int:
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.dimension

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        words = text.lower().split()
        if not words:
            return vec
        for word in words:
            vec[self._slot(word)] += 1.0
        return vec / len(words)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.stack([self.embed(t) for t in texts])


class RemoteEncoderClient:
    """Client for a sentence-embedding HTTP service.

    Wire contract: POST ``{endpoint}`` with ``{"texts": [...]}``, response
    ``{"embeddings": [[...], ...]}`` with one vector of ``dimension`` floats
    per input text.
    """

    def __init__(
        self,
        endpoint: str,
        dimension: int,
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        session: Optional[requests.Session] = None,
    ) -> None:
        self.endpoint = endpoint
        self.dimension = dimension
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.session = session or requests.Session()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                resp = self.session.post(
                    self.endpoint, json={"texts": list(texts)}, timeout=self.timeout
                )
                resp.raise_for_status()
                vectors = np.asarray(resp.json()["embeddings"], dtype=np.float64)
            except (requests.RequestException, ValueError, KeyError, TypeError) as exc:
                last_error = exc
                continue
            if vectors.shape != (len(texts), self.dimension):
                raise EmbeddingError(
                    f"encoder returned shape {vectors.shape}, "
                    f"expected {(len(texts), self.dimension)}"
                )
            return vectors
        raise EmbeddingError(f"encoder unavailable after {self.max_attempts} attempts: {last_error}")

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


@dataclass(frozen=True)
class CorpusIndex:
    """A claim's candidate sentences with their embeddings, computed once."""

    candidates: Tuple[EvidenceCandidate, ...]
    matrix: np.ndarray  # shape (len(candidates), dimension)

    @property
    def size(self) -> int:
        return len(self.candidates)


def build_corpus(record: ClaimRecord) -> List[EvidenceCandidate]:
    candidates: List[EvidenceCandidate] = []
    for report_index, report in enumerate(record.reports):
        for sentence_index, sentence in enumerate(report.sentences):
            candidates.append(EvidenceCandidate(report_index, sentence_index, sentence))
    return candidates


def build_corpus_index(
    candidates: Sequence[EvidenceCandidate], embedder: EmbeddingProvider
) -> CorpusIndex:
    matrix = embedder.embed_batch([c.text for c in candidates])
    if matrix.shape[0] != len(candidates):
        raise EmbeddingError("one embedding per candidate expected")
    return CorpusIndex(tuple(candidates), matrix)


def retrieve_top_k(
    sub_claim_index: int,
    sub_claim: str,
    index: CorpusIndex,
    embedder: EmbeddingProvider,
    k: int = 5,
) -> EvidenceSet:
    """Top-k candidates by cosine similarity against the sub-claim.

    Ordering is descending similarity; exact ties break by ascending
    (report_index, sentence_index). Zero-norm embeddings score -inf, so they
    are only ever selected when the corpus is smaller than k. k clamps to
    the corpus size.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if index.size == 0:
        return EvidenceSet(sub_claim_index, (), k)
    query = embedder.embed(sub_claim).tolist()
    query_norm = math.sqrt(math.fsum(x * x for x in query))
    # Correctly rounded dots and norms (fsum, not a BLAS reduction): distinct
    # sentences with equal real-valued cosines must score bitwise equal, or
    # the index tie-break below would depend on summation order.
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
    # lexsort: last key is primary. Negated scores put high similarity first.
    order = np.lexsort((sents, reports, -scores))
    chosen = order[: min(k, index.size)]
    items = tuple(
        RetrievedEvidence(
            index.candidates[i].report_index,
            index.candidates[i].sentence_index,
            index.candidates[i].text,
            float(scores[i]),
        )
        for i in chosen
    )
    return EvidenceSet(sub_claim_index, items, k)
