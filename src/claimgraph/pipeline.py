"""End-to-end orchestration: per-claim runs, resumable batches, cost reports.

A run directory is self-describing: it holds the config that produced it,
one JSON record per processed claim under ``runs/``, and the aggregated
evaluation and cost reports. Re-running the same directory skips claims that
already have a record, so an interrupted batch resumes where it stopped.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import re
import time
from concurrent.futures import Future, ThreadPoolExecutor, as_completed, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import partial
from itertools import takewhile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .adapters import (
    ClassifierAdapter,
    HttpAdapterClient,
    LineAdapterClient,
    StubAdapter,
    check_distribution,
)
from .errors import ClaimGraphError, ConfigError
from .evaluation import ClaimOutcome, EvaluationReport, evaluate_run, judge_explanation
from .explain import (
    CompetingExplanations,
    generate_background,
    generate_competing_pair,
    generate_lone_analysis,
)
from .gateway import (
    FixtureProvider,
    HttpProvider,
    LlmGateway,
    Pricing,
    ResponseCache,
    Stage,
    TemplateId,
    TokenLedger,
)
from .gateway.ledger import StageUsage
from .gateway.scripted import ScriptedResponder
from .graphs import (
    ClaimCenteredGraph,
    HyperGraph,
    assemble_claim_graph,
    decompose_claim,
    generate_edges,
    generate_hyperedges,
)
from .inference import (
    DefenseGraph,
    EXTERNAL_ADAPTER,
    ZERO_SHOT,
    build_claim_only_prompt,
    build_inference_prompt,
    graph_to_seq,
    hypergraph_to_seq,
    predict_with_adapter,
    predict_zero_shot,
)
from .jsonform import as_json, from_json, locked, read_json, sweep_temp_files, unreadable, write_json
from .labels import VeracityLabel, VeracityScheme, scheme_by_name
from .records import ClaimRecord
from .retrieval import (
    CorpusIndex,
    EvidenceSet,
    HashingBagOfWordsEmbedder,
    RemoteEncoderClient,
    RetrievedEvidence,
    build_corpus,
    build_corpus_index,
    retrieve_top_k,
)
from .summarize import (
    ExplanationGraph,
    SubClaimVerdict,
    build_explanation_graph,
    export_structured,
    fallback_verdict,
    judge_payload,
    summarize_explanations,
)

ABLATIONS = (
    "no_subclaims",
    "no_edges",
    "no_evidence",
    "no_competing",
    "no_inference_training",
)

DEPENDENCY = "dependency"
HYPERGRAPH = "hypergraph"
STANDARD = "standard"
ENHANCED = "enhanced"


# Field metadata of a run option: a setting that cannot change a record, so a resume may change it.
RUN_OPTION = {"run_option": True}


@dataclass(frozen=True)
class PipelineConfig:
    """What a run directory is made with; ``config.json`` stores every field.

    ``claim_concurrency``, ``provider_concurrency`` and the two ``pricing_*``
    fields are run options (``RUN_OPTION``): how many claims and provider
    calls run at once, and what ``cost.json`` charges per token, which is
    recomputed from the records on every batch. None can change a record,
    so a resume may change them; ``run_batch`` refuses a change to any other.
    ``provider_concurrency`` caps the gateway's in-flight calls and sizes
    the run's call pool. ``cache_enabled`` is no run option: with a sampled
    provider, a cache hit or a joined call reuses one reply where an
    uncached run samples again, so it can change a record.
    """

    scheme_name: str = "three_way"
    k: int = 5
    background_pool_size: int = 20
    decomposition: str = STANDARD
    graph_structure: str = DEPENDENCY
    with_background: bool = False
    ablations: Tuple[str, ...] = ()
    inference_path: str = ZERO_SHOT
    generation_temperature: float = 0.8
    judge_temperature: float = 0.0
    model_id: str = "offline-scripted"
    max_output_tokens: int = 1024
    provider: Dict[str, object] = field(default_factory=lambda: {"type": "scripted"})
    embedder: Dict[str, object] = field(
        default_factory=lambda: {"type": "hashing", "dimension": 64}
    )
    adapter: Optional[Dict[str, object]] = None
    pricing_input_per_million: str = field(default="0.50", metadata=RUN_OPTION)
    pricing_output_per_million: str = field(default="1.50", metadata=RUN_OPTION)
    claim_concurrency: int = field(default=4, metadata=RUN_OPTION)
    provider_concurrency: int = field(default=16, metadata=RUN_OPTION)
    cache_enabled: bool = True

    def __post_init__(self) -> None:
        try:
            scheme_by_name(self.scheme_name)
        except ValueError as exc:
            raise ConfigError(f"scheme_name: {exc}") from None
        unknown = [a for a in self.ablations if a not in ABLATIONS]
        if unknown:
            raise ConfigError(f"unknown ablations: {unknown}")
        if self.decomposition not in (STANDARD, ENHANCED):
            raise ConfigError("decomposition must be standard or enhanced")
        if self.graph_structure not in (DEPENDENCY, HYPERGRAPH):
            raise ConfigError("graph_structure must be dependency or hypergraph")
        if self.inference_path not in (ZERO_SHOT, EXTERNAL_ADAPTER):
            raise ConfigError("inference_path must be zero_shot or external_adapter")
        for count in ("k", "background_pool_size", "max_output_tokens",
                      "claim_concurrency", "provider_concurrency"):
            if getattr(self, count) < 1:
                raise ConfigError(f"{count} must be at least 1")
        if self.with_background and "no_evidence" in self.ablations:
            raise ConfigError("background generation needs evidence retrieval")
        if self.with_background and "no_subclaims" in self.ablations:
            # The single-node inference prompt has no slot for background.
            raise ConfigError("background generation needs sub-claims")
        # Disabling inference training forces the prompt-only path.
        if "no_inference_training" in self.ablations and self.inference_path != ZERO_SHOT:
            object.__setattr__(self, "inference_path", ZERO_SHOT)
        if self.inference_path == EXTERNAL_ADAPTER and self.adapter is None:
            raise ConfigError("external_adapter path needs an adapter config")
        object.__setattr__(self, "ablations", tuple(sorted(set(self.ablations))))

    @property
    def scheme(self) -> VeracityScheme:
        return scheme_by_name(self.scheme_name)

    def ablated(self, name: str) -> bool:
        return name in self.ablations

    @property
    def pricing(self) -> Pricing:
        return Pricing(self.pricing_input_per_million, self.pricing_output_per_million)

    def to_dict(self) -> dict:
        return as_json(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        """A config from its JSON form; a bad field raises ConfigError naming it."""
        # An older run's config.json also stores a hash of the config, which is ignored.
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)} - {"config_hash"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return from_json(cls, payload, ConfigError)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "PipelineConfig":
        return read_json(path, ConfigError, "config", cls.from_dict)


@dataclass
class PipelineRuntime:
    config: PipelineConfig
    gateway: LlmGateway
    embedder: object
    calls: ThreadPoolExecutor  # the run's one call pool, shared by its claims (_ClaimStages)
    adapter: Optional[ClassifierAdapter] = None

    @property
    def scheme(self) -> VeracityScheme:
        return self.config.scheme

    def close(self) -> None:
        """Shut the call pool down; close the response log, adapter child and HTTP sessions."""
        self.calls.shutdown()
        if self.gateway.cache is not None:
            self.gateway.cache.close()
        if isinstance(self.adapter, LineAdapterClient):
            self.adapter.close()
        for client in (self.gateway.provider, self.embedder, self.adapter):
            if isinstance(client, (HttpProvider, RemoteEncoderClient, HttpAdapterClient)):
                client.session.close()


def _build_provider(config: PipelineConfig):
    spec = config.provider
    kind = spec.get("type", "scripted")
    with unreadable(ConfigError, "provider config", spec):
        if kind == "scripted":
            return ScriptedResponder(seed=int(spec.get("seed", 0)))
        if kind == "fixture":
            return FixtureProvider(spec["path"])
        if kind == "http":
            api_key = None
            key_env = spec.get("api_key_env")
            if key_env:
                api_key = os.environ.get(str(key_env))
            return HttpProvider(str(spec["base_url"]), api_key=api_key)
    raise ConfigError(f"unknown provider type {kind!r}")


def _build_embedder(config: PipelineConfig):
    spec = config.embedder
    kind = spec.get("type", "hashing")
    with unreadable(ConfigError, "embedder config", spec):
        if kind == "hashing":
            return HashingBagOfWordsEmbedder(int(spec.get("dimension", 64)))
        if kind == "remote":
            return RemoteEncoderClient(str(spec["endpoint"]), int(spec["dimension"]))
    raise ConfigError(f"unknown embedder type {kind!r}")


def _build_adapter(config: PipelineConfig) -> Optional[ClassifierAdapter]:
    if config.adapter is None:
        return None
    spec = config.adapter
    kind = spec.get("type")
    with unreadable(ConfigError, "adapter config", spec):
        if kind == "stub":
            probabilities = [float(p) for p in spec["probabilities"]]
            # Only the count depends on the scheme; a stub failing the rest never predicts.
            check_distribution(probabilities, ValueError)
            return StubAdapter(probabilities)
        if kind == "http":
            return HttpAdapterClient(str(spec["url"]))
        if kind == "command":
            return LineAdapterClient([str(a) for a in spec["argv"]])
    raise ConfigError(f"unknown adapter type {kind!r}")


def build_runtime(
    config: PipelineConfig,
    run_dir: Optional[Union[str, Path]] = None,
    provider=None,
) -> PipelineRuntime:
    """Wire up gateway, embedder, and adapter from config.

    ``provider`` overrides the configured one (tests inject canned providers
    this way). The response cache lives inside the run directory so resumed
    runs see earlier responses; it is created last, so a config whose
    clients cannot be built raises ConfigError and creates nothing.
    """
    provider = provider if provider is not None else _build_provider(config)
    embedder, adapter = _build_embedder(config), _build_adapter(config)
    cache = None
    if config.cache_enabled and run_dir is not None:
        cache = ResponseCache(Path(run_dir) / "cache")
    gateway = LlmGateway(
        provider,
        cache=cache,
        model_id=config.model_id,
        generation_temperature=config.generation_temperature,
        judge_temperature=config.judge_temperature,
        max_output_tokens=config.max_output_tokens,
        max_in_flight=config.provider_concurrency,
    )
    calls = ThreadPoolExecutor(max_workers=config.provider_concurrency)
    return PipelineRuntime(config, gateway, embedder, calls, adapter)


@dataclass(frozen=True)
class Prediction:
    """A claim's predicted label identifier, its source and the adapter's probabilities."""

    label: str
    source: str
    probabilities: Optional[Tuple[float, ...]]


@dataclass(frozen=True)
class Failure:
    """The stage a claim failed at, the error's message and, when the error was
    raised from another, ``cause``: the type and message at the end of its
    ``__cause__`` chain, such as the connection error behind a provider's."""

    stage: Stage
    message: str
    cause: Optional[str] = None


def _root_cause(error: BaseException) -> Optional[str]:
    """``Type: message`` of the last error in ``error``'s ``__cause__`` chain; None without one."""
    root, seen = error, {id(error)}
    while root.__cause__ is not None and id(root.__cause__) not in seen:
        root = root.__cause__
        seen.add(id(root))
    return None if root is error else f"{type(root).__name__}: {root}"


# Where a hit row holds its text: [report_index, sentence_index, text, similarity].
_TEXT = [f.name for f in dataclasses.fields(RetrievedEvidence)].index("text")


def _texts_inlined(evidence, texts):
    """A copy of a record's ``evidence`` rows with each hit row's index into
    ``texts`` replaced by its text; any other shape is left for ``from_json`` to check."""
    if type(texts) is not list:
        raise TypeError(f"RunRecord field 'texts' must be list, not {type(texts).__name__}")
    if type(evidence) is not list:
        return evidence
    sets = [*evidence]
    for i, row in enumerate(sets):
        if type(row) is list and len(row) == 3 and type(row[1]) is list:
            sets[i] = row = [row[0], [*row[1]], row[2]]
            for j, hit in enumerate(row[1]):
                if type(hit) is list and len(hit) == 4:
                    index = hit[_TEXT]
                    if type(index) is not int or not 0 <= index < len(texts):
                        raise TypeError(
                            f"RunRecord field 'evidence' item {i} field 'items' item {j} field 'text'"
                            f" must index the {len(texts)} texts, not {index!r}"
                        )
                    row[1][j] = [*hit[:_TEXT], texts[index], *hit[_TEXT + 1:]]
    return sets


@dataclass
class RunRecord:
    """Everything one claim's run produced.

    Its stage fields are typed by ``Stage``, and a stage's calls are booked
    in ``stage_usage`` (a ``StageUsage`` entry) under the stage its work is
    timed under in ``durations``; each is a stage of a claim, never ``JUDGE``.
    Only the claim thread writes a record; it reads ``durations`` and
    ``failure`` off the claim's pieces of stage work at the end, by one rule:
    the failure is the earliest piece, in program and then submission order,
    that raised (or the last stage started, for an error outside every piece).
    ``stage_trace`` is not stored (an older file's is ignored): it is the
    stages of ``durations``, in program order, cut after ``failure.stage``, or
    with it appended if it has no duration, which only a hand-built record or
    an error outside every piece after the last piece was cancelled gives.
    ``stage_usage`` counts provider calls only; cache hits cost nothing and are
    not counted. On failure it also books the overlapped calls of later stages
    that had already started, and a competing pair's other side when that call
    was already spent. ``durations[stage]`` is the stage's own work time,
    summed over its pieces, each timed where it ran; time spent waiting for a
    piece is not in it. Once a claim's stages overlap, the sum of ``durations``
    exceeds the claim's wall time.

    Retrieved evidence lives only in ``evidence``, one set per node;
    ``explanations`` holds the texts written over it and does not repeat it.
    Its parts are typed. ``to_dict`` is its JSON form (``jsonform.as_json``
    with the evidence texts in one table), a stage written as its value, and
    a record file is read back only through ``from_dict`` (``from_json``).

    Each part is written once, and each evidence set and hit, explanation,
    verdict, graph edge and stage's usage as a row, the list of its fields in
    order (``jsonform``). The sub-claims of a claim rank one corpus, so their
    hits share sentences: ``texts`` holds each distinct evidence text once, in
    first-use order, and a hit names its text by its index there, ``[report_index,
    sentence_index, text index, similarity]``. ``graph`` and ``hypergraph`` are
    ``{"edges": [...]}`` and ``{"hyperedges": [...], "provenance": [...]}``,
    sharing the record's ``claim`` and ``sub_claims``; ``n`` is
    ``len(sub_claims)``. The graph-structure line the prompts held is not kept
    (under ``no_edges`` a record cannot tell it was left out). An older file
    (no ``texts``, each hit holding its text; parts as dicts, a ``graph``
    repeating the claim and sub-claims, ``n``, ``structure_text``) reads back
    the same, the copies ignored.

    The explanation graph is not stored: it is derived from ``graph``,
    ``explanations``, ``verdicts``, ``summary`` and ``prediction``
    (``derived_explanation_graph``), and a record has one exactly when it
    succeeded and has a ``graph``. A record file written when the graph was
    stored still holds an ``explanation_graph`` key; the copy is ignored and
    the graph derived from the parts.

    A record does not name its config: it has its run directory's (see
    ``run_batch``). An older record's hash of its config is ignored.
    """

    claim_id: str
    claim: str
    scheme: str
    gold_label: Optional[str] = None
    sub_claims: List[str] = field(default_factory=list)
    graph: Optional[ClaimCenteredGraph] = field(
        default=None, metadata={"shares": ("claim", "sub_claims")}
    )
    hypergraph: Optional[HyperGraph] = field(
        default=None, metadata={"shares": ("claim", "sub_claims")}
    )
    evidence: List[EvidenceSet] = field(default_factory=list, metadata={"rows": True})
    explanations: List[CompetingExplanations] = field(default_factory=list, metadata={"rows": True})
    prediction: Optional[Prediction] = None
    verdicts: List[SubClaimVerdict] = field(default_factory=list, metadata={"rows": True})
    summary: Optional[str] = None
    durations: Dict[Stage, float] = field(default_factory=dict)
    stage_usage: Dict[Stage, StageUsage] = field(default_factory=dict, metadata={"rows": True})
    warnings: List[str] = field(default_factory=list)
    failure: Optional[Failure] = None

    @property
    def n(self) -> int:
        return len(self.sub_claims)

    @property
    def succeeded(self) -> bool:
        return self.failure is None and self.prediction is not None

    @property
    def stage_trace(self) -> List[Stage]:
        """The stages of ``durations``, in program order, cut after ``failure.stage``."""
        failed = [self.failure.stage] if self.failure else []
        return [*takewhile(lambda stage: stage not in failed, self.durations), *failed]

    def to_dict(self) -> dict:
        """The record in its JSON form (``as_json``), the one written to disk,
        each hit's text an index into ``texts``."""
        form = as_json(self)
        texts = {}
        for _node, hits, _k in form["evidence"]:
            for hit in hits:
                hit[_TEXT] = texts.setdefault(hit[_TEXT], len(texts))
        form["texts"] = [*texts]
        return form

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """A record from its JSON form (``from_json``); ``Stage.JUDGE`` is no stage of a claim.

        With ``texts``, a hit row's text is an index into it; one that is no
        int or out of range raises TypeError naming its field and item."""
        if "texts" in payload:
            payload = dict(payload, evidence=_texts_inlined(payload.get("evidence"), payload["texts"]))
        record = from_json(cls, payload)
        failed_at = [record.failure.stage] if record.failure else []
        if Stage.JUDGE in {*record.durations, *record.stage_usage, *failed_at}:
            raise ValueError(f"not a stage of a claim: {Stage.JUDGE}")
        return record

    def derived_explanation_graph(self) -> Optional[ExplanationGraph]:
        """The explanation graph of the record's parts, or None when it has none.

        Parts that cannot form one (a graph that fails ``validate``, verdicts
        that do not cover the sub-claims, a label outside the scheme) raise
        ConfigError naming the claim.
        """
        if not (self.succeeded and self.graph is not None):
            return None
        try:
            if self.summary is None:
                raise ValueError("it has no summary")
            label = VeracityLabel.from_identifier(scheme_by_name(self.scheme), self.prediction.label)
            defense = DefenseGraph(self.graph.validate(), tuple(self.explanations))
            return build_explanation_graph(defense, self.verdicts, self.summary, label)
        except (ClaimGraphError, ValueError) as exc:
            raise ConfigError(
                f"claim {self.claim_id!r} cannot form its explanation graph: {exc}"
            ) from exc

    @property
    def explanation_graph(self) -> Optional[str]:
        """The derived explanation graph's structured export (``export_structured``), or None."""
        graph = self.derived_explanation_graph()
        return None if graph is None else export_structured(graph)


class _ClaimStages:
    """One claim's list of pieces of stage work, each ``(stage, future)``.

    Stages start in program order, so the list is in program order across
    stages and in submission order within a stage. A piece runs on the
    run's shared call pool, or at once on the claim thread as an
    already-completed future, and stores its own time before its future
    completes. Only the claim thread keeps the list and writes the record.

    The wait rule, which keeps any pool size from deadlocking: the claim
    thread waits on pieces; a piece waits only on a side it forked
    (``_both``) that has already started; a side never waits on anything.

    The one rule, applied once at the end by ``settled``: this claim's pieces
    not yet started are cancelled and its running ones waited for. The failure
    is the first piece in the list that raised; an error raised outside every
    piece goes to the last stage started. ``durations[stage]``, in the pieces'
    order, sums the stage's pieces' own times.
    """

    def __init__(self, calls: ThreadPoolExecutor) -> None:
        self.calls = calls
        self.pieces: List[Tuple[Stage, Future]] = []
        self.seconds: Dict[int, float] = {}  # a piece's own time, by its place in pieces

    def _timed(self, place: int, fn, args: tuple):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            # A forked side adds to its pair's place before the pair does: the pair joins it first.
            self.seconds[place] = self.seconds.get(place, 0.0) + time.perf_counter() - started

    def submit(self, stage: Stage, fn, *args, fork: bool = False) -> Future:
        """Start one piece of ``stage``'s work on the call pool. With ``fork``, ``fn``
        gets one more argument, a ``both(first, second)`` that runs the two at once."""
        place = len(self.pieces)
        if fork:
            args = (*args, partial(self._both, place))
        future = self.calls.submit(self._timed, place, fn, args)
        self.pieces.append((stage, future))
        return future

    def _both(self, place: int, first, second) -> tuple:
        """Run ``first`` here while ``second`` runs on the call pool; return both results.

        Once ``first`` is done, ``second`` runs here if it has not started,
        or else is waited for; it is joined on every exit, errors included.
        Its own time is booked to the piece at ``place``; the wait is not.
        """
        side = self.calls.submit(self._timed, place, second, ())
        try:
            first_result = first()
        finally:
            started_there = not side.cancel()
            if started_there:
                waiting = time.perf_counter()
                side.exception()  # the join: returns once the side is done, raising nothing
                self.seconds[place] -= time.perf_counter() - waiting
        return first_result, side.result() if started_there else second()

    def run(self, stage: Stage, fn, *args):
        """Do one piece of ``stage``'s work on the claim thread; return its result."""
        future: Future = Future()
        self.pieces.append((stage, future))
        try:
            future.set_result(self._timed(len(self.pieces) - 1, fn, args))
        except Exception as exc:
            future.set_exception(exc)
        return future.result()

    @contextmanager
    def settled(self, record: RunRecord):
        """Run the claim's stages inside; then write the record's durations and failure."""
        error: Optional[Exception] = None
        try:
            yield
        except Exception as exc:
            error = exc
        finally:
            # A piece that cancel() stopped before it started is done: ``wait``
            # would count it pending until a pool worker dequeues it, behind
            # other claims' pieces, so only the pieces already started are waited for.
            wait([future for _stage, future in self.pieces if not future.cancel()])
        if error is not None:
            raised = (
                (stage, future.exception())
                for stage, future in self.pieces
                if not future.cancelled() and future.exception() is not None
            )
            stage, error = next(raised, (self.pieces[-1][0], error))
            if isinstance(error, ClaimGraphError):
                message = str(error)
            else:
                # Not a domain failure (a bug, a provider client's own
                # exception): keep the type so the cause can be told apart.
                message = f"{type(error).__name__}: {error}"
            record.failure = Failure(stage, message, _root_cause(error))
        for place, seconds in sorted(self.seconds.items()):
            stage = self.pieces[place][0]
            record.durations[stage] = record.durations.get(stage, 0.0) + seconds


def _build_structure(
    gw: LlmGateway,
    config: PipelineConfig,
    claim: str,
    sub_claims: Sequence[str],
) -> Tuple[ClaimCenteredGraph, Optional[HyperGraph], str, List[str]]:
    """Generate the configured edges or hyperedges and assemble the claim's graph.

    Returns the graph, the ``HyperGraph`` (None for a dependency graph), the
    graph-structure line the prompts get and the parser's warnings.
    """
    if config.graph_structure == HYPERGRAPH:
        hyper, warnings = generate_hyperedges(gw, claim, sub_claims)
        graph = assemble_claim_graph(claim, sub_claims, set())
        return graph, hyper, hypergraph_to_seq(hyper), warnings
    llm_edges, warnings = generate_edges(gw, claim, sub_claims)
    graph = assemble_claim_graph(claim, sub_claims, llm_edges)
    return graph, None, graph_to_seq(graph), warnings


def run_claim(runtime: PipelineRuntime, claim_record: ClaimRecord) -> RunRecord:
    """Process one claim through every configured stage.

    Calls that do not depend on each other overlap, on the run's call pool
    (``runtime.calls``): once the claim is decomposed, the edge (or
    hyperedge) call runs while the claim thread retrieves evidence, and then
    every node's competing pair (or lone analysis), and its background when
    configured, runs at once. Both sides of a pair are sent at once too: the
    pair's piece forks its true side onto the pool (``_ClaimStages._both``),
    so a claim waits on 4 provider rounds in a row, not 5. The claim thread
    joins their results in program order (edges, entries, backgrounds)
    before inference and the final explanation, so records do not depend on
    the order calls finish in. The gateway's in-flight cap still bounds
    provider calls across the run, and no call of this claim runs after this
    function returns. Only the claim thread writes the record.

    Every failure, domain or not, is captured on the record under ``failure``
    by ``_ClaimStages``' one rule, so a batch always produces one record per
    claim: the earliest piece that raised, in program and then submission
    order (node 1's before node 2's, and a pair's false side before its true
    side, as a sequential run would see them), is charged; ``stage_trace``
    ends there. The claim's pieces not yet started are cancelled;
    ``stage_usage`` books every call that ran, overlapped ones included. Other
    claims' pieces run on.

    Without sub-claims the claim itself is the only node: it gets
    claim-level evidence and explanations, a single-node inference prompt,
    and the explanation matching the label as its summary.
    """
    config = runtime.config
    # Shares provider, cache, in-flight cap and retry policy with the run;
    # only the ledger is this claim's own.
    gw = copy.copy(runtime.gateway)
    gw.ledger = TokenLedger()
    claim = claim_record.claim
    record = RunRecord(
        claim_id=claim_record.claim_id,
        claim=claim,
        scheme=config.scheme_name,
        gold_label=claim_record.gold_label.identifier if claim_record.gold_label else None,
    )
    stages = _ClaimStages(runtime.calls)
    structure: Optional[Future] = None
    structure_text: Optional[str] = None
    with stages.settled(record):
        if config.ablated("no_subclaims"):
            nodes = [(0, claim)]
        else:
            template = (
                TemplateId.DECOMPOSE_PLUS
                if config.decomposition == ENHANCED
                else TemplateId.DECOMPOSE
            )
            sub_claims = stages.run(
                Stage.CLAIM_DECOMPOSITION, decompose_claim, gw, claim, template
            )
            record.sub_claims = list(sub_claims)
            nodes = list(enumerate(sub_claims, start=1))
            if config.ablated("no_edges"):
                record.graph = assemble_claim_graph(claim, sub_claims, set())
            else:
                stage = Stage.EDGE_GENERATION
                if config.graph_structure == HYPERGRAPH:
                    stage = Stage.HYPEREDGE_GENERATION
                structure = stages.submit(stage, _build_structure, gw, config, claim, sub_claims)

        def retrieve():
            index = build_corpus_index(build_corpus(claim_record), runtime.embedder)
            return index, [
                retrieve_top_k(i, text, index, runtime.embedder, config.k) for i, text in nodes
            ]

        corpus_index: Optional[CorpusIndex] = None
        try:
            if config.ablated("no_evidence"):
                evidence_sets = [EvidenceSet(i, (), config.k) for i, _text in nodes]
            else:
                corpus_index, evidence_sets = stages.run(Stage.EVIDENCE_RETRIEVAL, retrieve)
            competing = not config.ablated("no_competing")
            explain_node = generate_competing_pair if competing else generate_lone_analysis
            pending_entries = [
                stages.submit(
                    Stage.EXPLANATION_GENERATION, explain_node, gw, i, text, evidence,
                    fork=competing,
                )
                for (i, text), evidence in zip(nodes, evidence_sets)
            ]
            pending_backgrounds = []
            if config.with_background:
                pending_backgrounds = [
                    stages.submit(
                        Stage.BACKGROUND_GENERATION, generate_background,
                        gw, i, text, corpus_index, runtime.embedder,
                        config.background_pool_size,
                    )
                    for i, text in nodes
                ]
        finally:
            # Joined whatever happens to retrieval: a sequential run would
            # have the structure on the record before retrieving.
            if structure is not None:
                record.graph, record.hypergraph, structure_text, warnings = structure.result()
                record.warnings.extend(warnings)
        record.evidence = evidence_sets
        entries = [future.result() for future in pending_entries]
        for position, future in enumerate(pending_backgrounds):
            background, _pool = future.result()
            entries[position] = replace(entries[position], background=background)
        record.explanations = entries

        def infer():
            if record.graph is None:
                defense, prompt = None, build_claim_only_prompt(claim, entries[0], runtime.scheme)
            else:
                defense = DefenseGraph(record.graph, tuple(entries))
                prompt = build_inference_prompt(defense, runtime.scheme, structure_text)
            if config.inference_path == EXTERNAL_ADAPTER:
                return defense, predict_with_adapter(prompt, runtime.scheme, runtime.adapter)
            return defense, predict_zero_shot(gw, prompt, runtime.scheme)

        defense, result = stages.run(Stage.INFERENCE, infer)
        label = result.label
        record.prediction = Prediction(label.identifier, result.source, result.probabilities)

        if record.graph is None:
            # No summarization stage: the explanation consistent with the
            # predicted label is selected directly.
            record.summary = entries[0].oriented(fallback_verdict(label))
        else:
            outcome = stages.run(
                Stage.FINAL_EXPLANATION_GENERATION,
                summarize_explanations, gw, defense, label, structure_text,
            )
            record.warnings.extend(outcome.warnings)
            record.verdicts = list(outcome.verdicts)
            record.summary = outcome.summary
    record.stage_usage = gw.ledger.totals()
    return record


def _record_filename(claim_id: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", claim_id)[:80]
    digest = hashlib.sha1(claim_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}.json"


def _write_record(run_dir: Path, record: RunRecord) -> Path:
    """Write ``record`` atomically as one line of compact JSON (``write_json``).

    Not indented: ``json`` serves an indented dump with its pure-Python
    encoder, about three times slower than its C one. ``runs/`` must exist:
    ``_prepare_run_dir`` makes it once per batch.
    """
    path = run_dir / "runs" / _record_filename(record.claim_id)
    write_json(path, record.to_dict())
    return path


def load_run_config(run_dir: Union[str, Path]) -> PipelineConfig:
    """Config a run directory was created with."""
    path = Path(run_dir) / "config.json"
    return read_json(path, ConfigError, "run config", PipelineConfig.from_dict)


def _read_record(path: Path) -> RunRecord:
    return read_json(path, ConfigError, "run record", RunRecord.from_dict)


def load_run_records(run_dir: Union[str, Path]) -> List[RunRecord]:
    """Every record in the run, by file name; an unreadable one raises ConfigError."""
    runs_dir = Path(run_dir) / "runs"
    return [_read_record(path) for path in sorted(runs_dir.glob("*.json"))]


def load_run_record(run_dir: Union[str, Path], claim_id: str) -> Optional[RunRecord]:
    """The record of ``claim_id`` alone, or None if it has none; other records are not read."""
    path = Path(run_dir) / "runs" / _record_filename(claim_id)
    return _read_record(path) if path.is_file() else None


@dataclass(frozen=True)
class BatchResult:
    run_dir: Path
    processed: int
    skipped: int
    report: Optional[EvaluationReport]


def _prepare_run_dir(run_dir: Path, config: PipelineConfig) -> None:
    """Create ``run_dir``'s ``runs/``, write its config and sweep orphaned temp files.

    A process killed inside ``jsonform.write_text`` leaves its temp file
    behind in the run directory, ``runs/`` or ``cache/``. Nothing reads one,
    but a copy of the cache directory would carry it along, so the batch
    about to run removes them (``sweep_temp_files``) under the directory's lock.
    """
    (run_dir / "runs").mkdir(parents=True, exist_ok=True)
    sweep_temp_files(run_dir, run_dir / "runs", run_dir / "cache")
    write_json(run_dir / "config.json", config.to_dict(), indent=2)


def run_batch(
    records: Sequence[ClaimRecord],
    config: PipelineConfig,
    run_dir: Union[str, Path],
    provider=None,
) -> BatchResult:
    """Process a dataset into a run directory, resuming if partially done.

    A run directory holds the records of the one config its ``config.json``
    states: a config that differs from it in a field other than a run option
    is refused, naming each such field, and the directory left as it was.
    Claims that already have a record on disk are not re-run (their provider
    calls were already spent); everything else goes through a bounded thread
    pool, and each record is written as soon as its claim finishes. Per-claim
    failures are recorded, never raised. A record that cannot be written
    stops the batch at once: claims not yet started are cancelled, and the
    error is raised once the running ones have finished and the runtime is
    closed. The reports are built from the records read at the start plus
    the ones written here. The runtime is built before ``config.json`` is
    written, so a config it cannot be built from leaves no stamped directory.
    Its lock (``jsonform.locked``) is held from the temp-file sweep and the read
    of the done records to the last report; a batch refused it changes nothing.
    """
    run_dir = Path(run_dir)
    if (run_dir / "config.json").exists():
        was, given = load_run_config(run_dir).to_dict(), config.to_dict()
        differing = [f.name for f in dataclasses.fields(config)
                     if not f.metadata.get("run_option") and was[f.name] != given[f.name]]
        if differing:
            values = [" and ".join(f"{n}={json.dumps(form[n])}" for n in differing)
                      for form in (was, given)]
            raise ConfigError(f"run directory was created with {values[0]}, "
                              f"not {values[1]}; use a fresh directory")
    runtime = build_runtime(config, run_dir, provider=provider)
    try:
        with locked(ConfigError, "run directory", run_dir):
            pool = ThreadPoolExecutor(max_workers=config.claim_concurrency)
            processed = 0
            try:
                _prepare_run_dir(run_dir, config)
                done = {r.claim_id: r for r in load_run_records(run_dir)}
                pending = [r for r in records if r.claim_id not in done]
                futures = [pool.submit(run_claim, runtime, c) for c in pending]
                for future in as_completed(futures):
                    record = future.result()
                    _write_record(run_dir, record)
                    done[record.claim_id] = record
                    processed += 1
            finally:
                # After an error (a record that cannot be written), claims not yet
                # started are cancelled; the running ones finish before the close.
                pool.shutdown(cancel_futures=True)
            # The order load_run_records reads them in: by file name.
            on_disk = sorted(done.values(), key=lambda r: _record_filename(r.claim_id))
            report = write_reports(run_dir, config, on_disk)
    finally:
        runtime.close()
    return BatchResult(run_dir, processed, skipped=len(records) - processed, report=report)


def outcomes_from_records(
    records: Sequence[RunRecord], scheme: VeracityScheme
) -> List[ClaimOutcome]:
    outcomes = []
    for record in records:
        if record.gold_label is None:
            continue
        gold = VeracityLabel.from_identifier(scheme, record.gold_label)
        predicted = None
        if record.succeeded:
            predicted = VeracityLabel.from_identifier(scheme, record.prediction.label)
        failure_stage = record.failure.stage if record.failure else None
        outcomes.append(ClaimOutcome(record.claim_id, gold, predicted, failure_stage))
    return outcomes


def _write_report(
    run_dir: Path, outcomes: Sequence[ClaimOutcome], scheme: VeracityScheme
) -> EvaluationReport:
    report = evaluate_run(outcomes, scheme)
    write_json(run_dir / "report.json", report.to_dict(), indent=2)
    return report


def write_reports(
    run_dir: Path, config: PipelineConfig, records: Sequence[RunRecord]
) -> Optional[EvaluationReport]:
    """Recompute report.json and cost.json from the run's records.

    ``records`` are all of the run's records, in ``load_run_records`` order.
    """
    report = None
    outcomes = outcomes_from_records(records, config.scheme)
    if outcomes:
        report = _write_report(run_dir, outcomes, config.scheme)
    write_json(run_dir / "cost.json", _cost_report(records, config).to_dict(), indent=2)
    return report


LATENCY_FORMULA = "T_total = T_dec + T_rel + n*(T_ret + T_comp + T_bg) + T_pred + T_final"

# Each pipeline stage's term in LATENCY_FORMULA. A claim runs at most one
# stage of each term, so a term is a mean over the claims that ran it.
LATENCY_TERMS = {
    Stage.CLAIM_DECOMPOSITION: "T_dec",
    Stage.EDGE_GENERATION: "T_rel",
    Stage.HYPEREDGE_GENERATION: "T_rel",
    Stage.EVIDENCE_RETRIEVAL: "T_ret",
    Stage.EXPLANATION_GENERATION: "T_comp",
    Stage.BACKGROUND_GENERATION: "T_bg",
    Stage.INFERENCE: "T_pred",
    Stage.FINAL_EXPLANATION_GENERATION: "T_final",
}
_PER_NODE = {"T_ret", "T_comp", "T_bg"}


@dataclass(frozen=True)
class CostReport:
    """Tokens, dollars and latency averaged over a run's records.

    ``measured_latency`` is the mean over claims of their summed stage work
    (the sum of a record's ``durations``). Once a claim's stages overlap it
    exceeds the claim's wall time; it is the quantity ``estimated_latency``
    models by ``LATENCY_FORMULA``, with n counting a claim's nodes; a term
    no record ran, such as ``T_bg`` without background, is 0.0.
    ``to_dict`` is ``cost.json``; ``predictions_by_source`` is sorted by source.
    """

    claim_count: int = field(metadata={"json": "claims"})
    stage_tokens: Dict[Stage, StageUsage]
    total_input_tokens: int
    total_output_tokens: int
    input_cost: Decimal = field(metadata={"json": "input_cost_usd"})
    output_cost: Decimal = field(metadata={"json": "output_cost_usd"})
    total_cost: Decimal = field(metadata={"json": "total_cost_usd"})
    avg_tokens_per_claim: float
    latency_formula: str = field(default=LATENCY_FORMULA, init=False)
    latency_components: Dict[str, float] = field(metadata={"json": "latency_components_sec"})
    avg_subclaims: float
    estimated_latency: float = field(metadata={"json": "estimated_latency_sec"})
    measured_latency: float = field(metadata={"json": "measured_latency_sec"})
    predictions_by_source: Dict[str, int]

    def to_dict(self) -> dict:
        return as_json(self)

    def render_text(self) -> str:
        lines = [f"claims: {self.claim_count}"]
        for stage, entry in self.stage_tokens.items():
            lines.append(
                f"{stage:<30} in {entry['input_tokens']:>10}  "
                f"out {entry['output_tokens']:>10}  calls {entry['calls']:>5}"
            )
        lines.append(
            f"tokens total: in {self.total_input_tokens}  out {self.total_output_tokens}  "
            f"(avg {self.avg_tokens_per_claim:.1f}/claim)"
        )
        lines.append(
            f"cost: input ${self.input_cost}  output ${self.output_cost}  "
            f"total ${self.total_cost}"
        )
        lines.append(f"latency model: {self.latency_formula}")
        parts = "  ".join(f"{k} {v:.3f}s" for k, v in self.latency_components.items())
        lines.append(f"components (avg): {parts}  n {self.avg_subclaims:.1f}")
        lines.append(
            f"estimated {self.estimated_latency:.3f}s vs measured "
            f"{self.measured_latency:.3f}s per claim"
        )
        return "\n".join(lines)


def cost_report(run_dir: Union[str, Path], config: PipelineConfig) -> CostReport:
    """Aggregate tokens, dollars, and latency over a run directory."""
    return _cost_report(load_run_records(run_dir), config)


def _cost_report(records: Sequence[RunRecord], config: PipelineConfig) -> CostReport:
    """Aggregate tokens, dollars, and latency over ``records``.

    Latency components are measured averages; per-node terms are a claim's
    stage duration divided by its n, so the formula's ``n*(...)`` term scales
    with decomposition size. n counts a claim's nodes: its sub-claims, or
    the claim itself without them.
    """
    ledger = TokenLedger()
    for record in records:
        ledger.add(record.stage_usage)
    stage_tokens = ledger.totals()
    cost = config.pricing.price(stage_tokens)
    total_in = sum(e["input_tokens"] for e in stage_tokens.values())
    total_out = sum(e["output_tokens"] for e in stage_tokens.values())
    components: Dict[str, List[float]] = {key: [] for key in LATENCY_TERMS.values()}
    measured: List[float] = []
    sub_counts: List[float] = []
    sources: Dict[str, int] = {}
    for record in records:
        # One explanation per node; a claim that failed before its
        # explanations were joined falls back to its sub-claim count.
        nodes = len(record.explanations) or record.n
        if record.durations:
            measured.append(sum(record.durations.values()))
        if nodes:
            sub_counts.append(float(nodes))
        if record.prediction is not None:
            sources[record.prediction.source] = sources.get(record.prediction.source, 0) + 1
        for stage, seconds in record.durations.items():
            key = LATENCY_TERMS[stage]
            components[key].append(seconds / nodes if key in _PER_NODE and nodes else seconds)
    avg_components = {
        key: (sum(values) / len(values) if values else 0.0)
        for key, values in components.items()
    }
    avg_n = sum(sub_counts) / len(sub_counts) if sub_counts else 0.0
    estimated = sum(avg_n * v if key in _PER_NODE else v for key, v in avg_components.items())
    return CostReport(
        claim_count=len(records),
        stage_tokens=stage_tokens,
        total_input_tokens=total_in,
        total_output_tokens=total_out,
        input_cost=cost.input_cost,
        output_cost=cost.output_cost,
        total_cost=cost.total,
        avg_tokens_per_claim=(total_in + total_out) / len(records) if records else 0.0,
        latency_components=avg_components,
        avg_subclaims=avg_n,
        estimated_latency=estimated,
        measured_latency=sum(measured) / len(measured) if measured else 0.0,
        predictions_by_source=dict(sorted(sources.items())),
    )


def judge_run(
    run_dir: Union[str, Path], config: PipelineConfig, provider=None
) -> EvaluationReport:
    """Judge every successful claim's final explanation and rebuild the report.

    The claims' judge calls do not depend on each other, so each runs on the
    run's call pool (``runtime.calls``), bounded by the gateway's in-flight
    cap; the results are joined in record order, so ``report.json`` does not
    depend on the order they finish in. A claim whose judge reply stays out
    of contract, or whose judge call raises anything else, at the provider
    or in its client, is counted under ``judge_failures``; one claim's judge
    never aborts the pass. It holds the directory's lock throughout.
    """
    run_dir = Path(run_dir)
    with locked(ConfigError, "run directory", run_dir):
        records = [r for r in load_run_records(run_dir) if r.gold_label is not None]
        runtime = build_runtime(config, run_dir, provider=provider)
        judging: List[Tuple[ClaimOutcome, Optional[Future]]] = []
        try:
            for record, outcome in zip(records, outcomes_from_records(records, config.scheme)):
                graph = record.derived_explanation_graph()
                explanation = (record.summary or "") if graph is None else judge_payload(graph)
                scores = None
                if record.succeeded and explanation:
                    scores = runtime.calls.submit(
                        judge_explanation, runtime.gateway, record.claim, outcome.gold, explanation
                    )
                judging.append((outcome, scores))
            outcomes = [_judged(outcome, scores) for outcome, scores in judging]
        finally:
            runtime.close()
        return _write_report(run_dir, outcomes, config.scheme)


def _judged(outcome: ClaimOutcome, scores: Optional[Future]) -> ClaimOutcome:
    """``outcome`` with its judge's scores, or counted as a judge failure if the judge raised."""
    if scores is None:
        return outcome
    try:
        return replace(outcome, judge=scores.result())
    except Exception:
        return replace(outcome, judge_failed=True)
