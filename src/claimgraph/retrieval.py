"""Evidence retrieval: sentence splitting, embeddings, cosine top-k.

Reports are exploded into a per-claim corpus of candidate sentences; each
sub-claim pulls its own top-k by cosine similarity over pooled embeddings.

Cost: every step is linear in the size of its input. Splitting is one
``re.split`` over the report, whose pattern refuses a closer that ends an
abbreviation with fixed-width lookbehinds, one per abbreviation length, so
no Python code runs per sentence. The hashing embedder hashes each distinct
word once and builds a batch with one ``np.bincount``; an index is built
with vectorised passes over its rows, and a query scores every row with one
BLAS matrix-vector product, then scores exactly only the rows that can still
be in its top k.

Exactness: the outputs are bitwise those of the straightforward loops (see
``tests/test_text_path.py``): the same sentences, the same embedding bits,
and the same ranks and ``similarity`` bits as scoring every row with
``math.fsum``. The rounding bound that makes the top-k prefilter exact is
derived in ``_score_error``.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import re
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .errors import EmbeddingError
from .records import ClaimRecord
from .retry import full_jitter, new_session, post_json, with_retries

if TYPE_CHECKING:
    import requests

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

# A sentence boundary: a closing ., ! or ? (captured, so it stays with its
# sentence) and the whitespace run after it. A closer that ends a whole
# abbreviation token is refused by a negative lookbehind per abbreviation
# length (a lookbehind has a fixed width), each anchored at a token start.
_BOUNDARY = re.compile(r"([.!?])" + "".join(
    rf"(?<!(?<!\S)(?:{'|'.join(map(re.escape, same_length))}))"
    for _, same_length in itertools.groupby(sorted(_ABBREVIATIONS, key=lambda a: (len(a), a)), len)
) + r"\s+")


def split_report_sentences(text: str) -> List[str]:
    """Split report text into sentences on ., ! and ? runs.

    A closer followed by whitespace ends a sentence unless its token is one
    of ``_ABBREVIATIONS`` exactly (``x.U.S.`` still closes). A trailing
    fragment without a terminator still counts as a sentence; whitespace-only
    input yields an empty list. Cost: one ``re.split`` over the stripped text,
    linear in its length; a ``map`` rejoins each piece with its closer, so no
    Python code runs per sentence, and every sentence comes out stripped.
    """
    parts = _BOUNDARY.split(text.strip())
    # The tail is empty only when the whole text is: a stripped text ends in a non-space.
    return [*map(str.__add__, parts[0:-1:2], parts[1::2]), parts[-1]] if parts[-1] else []


@dataclass(frozen=True)
class EvidenceCandidate:
    report_index: int
    sentence_index: int
    text: str


@dataclass(frozen=True)
class RetrievedEvidence:
    """One top-k hit, about k per node, so a row: ``[report_index, sentence_index, text, similarity]``.

    The sub-claims of a claim rank one corpus and share hits, so a run record
    writes ``text`` as an index into its table of distinct texts (``RunRecord.to_dict``)."""

    report_index: int
    sentence_index: int
    text: str
    similarity: float


@dataclass(frozen=True)
class EvidenceSet:
    """A node's top-k hits; a run record writes it as a row, ``[sub_claim_index, hits, k]``."""

    sub_claim_index: int
    items: Tuple[RetrievedEvidence, ...] = field(metadata={"rows": True})
    k: int

    @property
    def texts(self) -> List[str]:
        return [item.text for item in self.items]


class EmbeddingProvider(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray: ...


# Distinct words whose slots one embedder remembers. A word costs a blake2b
# hash only the first time; past the bound, the least recently used is dropped.
_SLOT_MEMO_SIZE = 1 << 16


def _word_slot(word: str, dimension: int) -> int:
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


class HashingBagOfWordsEmbedder:
    """Deterministic test embedder: every lowercased word hashes to one unit
    basis direction and the text embedding is the average over its words.

    Word order is irrelevant by construction; an empty text embeds to the
    zero vector (degenerate: excluded from similarity ranking). A batch costs
    one memoised slot lookup per word and one ``np.bincount``; the counts are
    exact, so the rows are bitwise the per-word sums divided by word counts.
    """

    def __init__(self, dimension: int = 64) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._slot = functools.lru_cache(maxsize=_SLOT_MEMO_SIZE)(
            functools.partial(_word_slot, dimension=dimension)
        )

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        words = [text.lower().split() for text in texts]
        counts = np.array([len(w) for w in words], dtype=np.intp)
        slots = np.fromiter(
            map(self._slot, itertools.chain.from_iterable(words)),
            dtype=np.intp,
            count=int(counts.sum()),
        )
        cells = np.repeat(np.arange(len(texts)) * self.dimension, counts) + slots
        totals = np.bincount(cells, minlength=len(texts) * self.dimension)
        totals = totals.reshape(len(texts), self.dimension)
        return totals / np.maximum(counts, 1)[:, np.newaxis]


class RemoteEncoderClient:
    """Client for a sentence-embedding HTTP service.

    Wire contract: POST ``{endpoint}`` with ``{"texts": [...]}``, response
    ``{"embeddings": [[...], ...]}`` with one vector of ``dimension`` floats
    per input text. Transport errors, 429 and 5xx are retried
    (``claimgraph.retry``); any other failure is not. Every failure raises
    EmbeddingError. Without a ``session`` it makes one with
    ``claimgraph.retry.new_session``.
    """

    def __init__(
        self,
        endpoint: str,
        dimension: int,
        timeout: float = 30.0,
        session: Optional[requests.Session] = None,
        sleeper: Callable[[float], None] = time.sleep,
        jitter: Callable[[float], float] = full_jitter,
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.endpoint = endpoint
        self.dimension = dimension
        self.timeout = timeout
        self.session = session or new_session()
        self._sleep = sleeper
        self._jitter = jitter

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        body = {"texts": list(texts)}
        payload = with_retries(
            lambda: post_json(self.session, self.endpoint, body, self.timeout, EmbeddingError),
            EmbeddingError,
            self._sleep,
            self._jitter,
        )
        try:
            vectors = np.asarray(payload["embeddings"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbeddingError(f"malformed encoder reply: {exc!r}") from exc
        if vectors.shape != (len(texts), self.dimension):
            raise EmbeddingError(
                f"encoder returned shape {vectors.shape}, "
                f"expected {(len(texts), self.dimension)}"
            )
        return vectors

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


# Nonzero embedding entries with magnitudes in [2**-250, 2**250] keep every
# product, square and sum of a dot product or norm clear of underflow and
# overflow, which the rounding bound of the BLAS prefilter assumes.
_SAFE_MIN, _SAFE_MAX = 2.0**-250, 2.0**250


def _in_safe_range(values: np.ndarray) -> bool:
    magnitude = np.abs(values)
    return bool(np.all((magnitude == 0.0) | ((magnitude >= _SAFE_MIN) & (magnitude <= _SAFE_MAX))))


def _products(rows: np.ndarray, vector: np.ndarray) -> list:
    """Elementwise products as Python floats, rounded as Python rounds them.

    Python float arithmetic overflows to inf and underflows to 0 silently;
    so does this.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return (rows * vector).tolist()


def _norm(vector: np.ndarray) -> float:
    """Correctly rounded Euclidean norm: ``fsum`` of the rounded squares."""
    return math.sqrt(math.fsum(_products(vector, vector)))


@dataclass(frozen=True)
class CorpusIndex:
    """A claim's candidate sentences with their embeddings, computed once.

    Every sub-claim's ``retrieve_top_k`` reads the same index, so what each
    query needs from all rows is derived here, once, in vectorised passes:
    ``norms`` (each row's Euclidean norm by a BLAS-style reduction, for the
    prefilter only; exact scores use ``_norm``), ``ranks`` (each row's place
    in (report_index, sentence_index) order, ties by position) and
    ``in_safe_range`` (whether every entry lies in the range the prefilter's
    rounding bound assumes).
    """

    candidates: Tuple[EvidenceCandidate, ...]
    matrix: np.ndarray  # float64, shape (len(candidates), dimension)
    norms: np.ndarray = field(init=False, repr=False)
    ranks: np.ndarray = field(init=False, repr=False)
    in_safe_range: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        order = np.lexsort(
            (
                [c.sentence_index for c in self.candidates],
                [c.report_index for c in self.candidates],
            )
        )
        ranks = np.empty(len(self.candidates), dtype=np.intp)
        ranks[order] = np.arange(len(self.candidates))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        derived = {
            "matrix": matrix,
            "norms": norms,
            "ranks": ranks,
            "in_safe_range": _in_safe_range(matrix),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

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


def _score_error(dimension: int) -> float:
    """A bound on |prefilter score - exact score| for a row, entries in range.

    With u = 2**-53, d = ``dimension``, m a row, q the query and
    A = sum |m_j q_j| <= ||m|| ||q|| (Cauchy-Schwarz), following Higham,
    Accuracy and Stability of Numerical Algorithms (2002), section 3.1:
    - a BLAS dot product, in any summation order, fused or not, is within
      gamma_d A of the real one, gamma_d = d u / (1 - d u); ``fsum`` of the
      rounded products is within (2u + u^2) A of it;
    - a reduced norm is within (gamma_d / 2 + u) of ||m|| relatively, a
      correctly rounded one within 2u; with the rounding of each product
      with the query norm, the two denominators differ by at most
      (d/2 + 5) u relatively;
    - each of the two divisions adds u relative error.
    The two scores therefore differ by at most (1.5 d + 9) u + O(d^2 u^2).
    The value returned, (d + 8) * 2**-52 = (2d + 16) u, leaves room for the
    rounding of the threshold computed from it: a row is dropped only if its
    prefilter score is below the k-th one by more than twice the bound.
    """
    return (dimension + 8) * np.finfo(np.float64).eps


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

    Exactness: a score is the correctly rounded dot product (``fsum`` of the
    rounded products) over the product of the correctly rounded norms, so
    distinct sentences with equal real-valued cosines score bitwise equal
    and the tie-break above does not depend on summation order.

    Cost: one BLAS matrix-vector product scores every row approximately, and
    only the rows whose approximate score is within twice ``_score_error`` of
    the k-th highest approximate score are scored exactly. Every other row's
    exact score is provably below k exact scores, so the result (ranks and
    ``similarity`` bits) is the one that scoring every row exactly gives.
    When an index or query entry lies outside the safe range, every row is
    scored exactly.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if index.size == 0:
        return EvidenceSet(sub_claim_index, (), k)
    query = np.asarray(embedder.embed(sub_claim), dtype=np.float64)
    query_norm = _norm(query)
    scores = np.full(index.size, -np.inf)
    pool = np.arange(index.size)
    if query_norm > 0.0:
        exact = pool
        # In range, a row's reduced norm is 0 exactly when its exact one is.
        live = np.flatnonzero(index.norms > 0.0)
        if live.size > k and index.in_safe_range and _in_safe_range(query):
            approx = (index.matrix @ query)[live] / (index.norms[live] * query_norm)
            kth = np.partition(approx, live.size - k)[live.size - k]
            exact = pool = live[approx >= kth - 2 * _score_error(query.size)]
        for position, products in zip(exact.tolist(), _products(index.matrix[exact], query)):
            row_norm = _norm(index.matrix[position])
            if row_norm > 0.0:
                scores[position] = math.fsum(products) / (row_norm * query_norm)
    order = pool[np.lexsort((index.ranks[pool], -scores[pool]))]
    items = tuple(
        RetrievedEvidence(
            index.candidates[i].report_index,
            index.candidates[i].sentence_index,
            index.candidates[i].text,
            float(scores[i]),
        )
        for i in order[:k].tolist()
    )
    return EvidenceSet(sub_claim_index, items, k)
