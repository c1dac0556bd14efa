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
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import Decimal
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .adapters import ClassifierAdapter, HttpAdapterClient, LineAdapterClient, StubAdapter
from .atomic import write_text_atomic
from .errors import ClaimGraphError, ConfigError, JudgeFailureError, ProviderError
from .evaluation import ClaimOutcome, EvaluationReport, evaluate_run, judge_explanation
from .explain import (
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
from .gateway.scripted import ScriptedResponder
from .graphs import (
    ClaimCenteredGraph,
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
from .labels import VeracityLabel, VeracityScheme, scheme_by_name
from .records import ClaimRecord
from .retrieval import (
    CorpusIndex,
    EvidenceSet,
    HashingBagOfWordsEmbedder,
    RemoteEncoderClient,
    build_corpus,
    build_corpus_index,
    retrieve_top_k,
)
from .summarize import (
    build_explanation_graph,
    export_structured,
    fallback_verdict,
    judge_payload,
    parse_structured,
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


@dataclass(frozen=True)
class PipelineConfig:
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
    pricing_input_per_million: str = "0.50"
    pricing_output_per_million: str = "1.50"
    claim_concurrency: int = 4
    provider_concurrency: int = 8
    cache_enabled: bool = True

    def __post_init__(self) -> None:
        scheme_by_name(self.scheme_name)
        unknown = [a for a in self.ablations if a not in ABLATIONS]
        if unknown:
            raise ConfigError(f"unknown ablations: {unknown}")
        if self.decomposition not in (STANDARD, ENHANCED):
            raise ConfigError("decomposition must be standard or enhanced")
        if self.graph_structure not in (DEPENDENCY, HYPERGRAPH):
            raise ConfigError("graph_structure must be dependency or hypergraph")
        if self.inference_path not in (ZERO_SHOT, EXTERNAL_ADAPTER):
            raise ConfigError("inference_path must be zero_shot or external_adapter")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
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
        payload = dataclasses.asdict(self)
        payload["ablations"] = list(self.ablations)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        # A run's config.json also stores its hash, which is recomputed.
        payload = {k: v for k, v in payload.items() if k != "config_hash"}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "ablations" in payload:
            payload = dict(payload, ablations=tuple(payload["ablations"]))
        return cls(**payload)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "PipelineConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable config {path}: {exc}") from exc

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class PipelineRuntime:
    config: PipelineConfig
    gateway: LlmGateway
    embedder: object
    adapter: Optional[ClassifierAdapter] = None

    @property
    def scheme(self) -> VeracityScheme:
        return self.config.scheme

    def close(self) -> None:
        """Stop the command adapter's child and close the HTTP clients' sessions."""
        if isinstance(self.adapter, LineAdapterClient):
            self.adapter.close()
        for client in (self.gateway.provider, self.embedder, self.adapter):
            if isinstance(client, (HttpProvider, RemoteEncoderClient, HttpAdapterClient)):
                client.session.close()


def _build_provider(config: PipelineConfig):
    spec = dict(config.provider)
    kind = spec.get("type", "scripted")
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
    spec = dict(config.embedder)
    kind = spec.get("type", "hashing")
    if kind == "hashing":
        return HashingBagOfWordsEmbedder(int(spec.get("dimension", 64)))
    if kind == "remote":
        return RemoteEncoderClient(str(spec["endpoint"]), int(spec["dimension"]))
    raise ConfigError(f"unknown embedder type {kind!r}")


def _build_adapter(config: PipelineConfig) -> Optional[ClassifierAdapter]:
    if config.adapter is None:
        return None
    spec = dict(config.adapter)
    kind = spec.get("type")
    if kind == "stub":
        return StubAdapter([float(p) for p in spec["probabilities"]])
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
    runs see earlier responses.
    """
    cache = None
    if config.cache_enabled and run_dir is not None:
        cache = ResponseCache(Path(run_dir) / "cache")
    gateway = LlmGateway(
        provider if provider is not None else _build_provider(config),
        cache=cache,
        model_id=config.model_id,
        generation_temperature=config.generation_temperature,
        judge_temperature=config.judge_temperature,
        max_output_tokens=config.max_output_tokens,
        max_in_flight=config.provider_concurrency,
    )
    return PipelineRuntime(
        config=config,
        gateway=gateway,
        embedder=_build_embedder(config),
        adapter=_build_adapter(config),
    )


@dataclass
class RunRecord:
    """Everything one claim's run produced.

    Its stage names are ``Stage`` values: a stage's calls are booked in
    ``stage_usage`` under the name its work is timed under in ``durations``.
    Only the claim thread writes a record; it reads ``stage_trace``,
    ``durations`` and ``failure`` off the claim's pieces of stage work at the
    end, by one rule: the failure is the earliest piece, in program and then
    submission order, that raised (or the last stage started, for an error
    outside every piece), and ``stage_trace`` is cut at its stage, so
    ``failure["stage"]``, when set, is always its last entry.
    ``stage_usage`` counts provider calls only; cache hits cost nothing and
    are not counted. On failure it also books the overlapped calls of later
    stages that had already started. ``durations[stage]`` is the stage's own
    work time, summed over its pieces, each timed where it ran; time spent
    waiting for a piece is not in it. Once a claim's stages overlap, the sum
    of ``durations`` exceeds the claim's wall time.

    Retrieved evidence lives only in ``evidence``, one set per node;
    ``explanations`` holds the texts written over it and does not repeat it.
    """

    claim_id: str
    claim: str
    scheme: str
    config_hash: str
    gold_label: Optional[str] = None
    n: int = 0
    sub_claims: List[str] = field(default_factory=list)
    graph: Optional[dict] = None
    hypergraph: Optional[dict] = None
    structure_text: Optional[str] = None
    evidence: List[dict] = field(default_factory=list)
    explanations: List[dict] = field(default_factory=list)
    prediction: Optional[dict] = None
    verdicts: List[dict] = field(default_factory=list)
    summary: Optional[str] = None
    explanation_graph: Optional[str] = None
    stage_trace: List[str] = field(default_factory=list)
    durations: Dict[str, float] = field(default_factory=dict)
    stage_usage: Dict[str, dict] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    failure: Optional[dict] = None

    @property
    def succeeded(self) -> bool:
        return self.failure is None and self.prediction is not None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


class _ClaimStages:
    """One claim's list of pieces of stage work, each ``(stage, future)``.

    Stages start in program order, so the list is in program order across
    stages and in submission order within a stage. A piece runs on the
    claim's call pool, or at once on the claim thread as an
    already-completed future, and stores its own time before its future
    completes. Only the claim thread keeps the list and writes the record.

    The one rule, applied once at the end by ``settled``: on an error,
    pieces not yet started are cancelled and running ones waited for. The
    failure is the first piece in the list that raised; an error raised
    outside every piece goes to the last stage started. ``stage_trace``
    holds the pieces' stages, in order, cut at the failed stage.
    ``durations[stage]`` sums the stage's pieces' own times.
    """

    def __init__(self, workers: int) -> None:
        self.calls = ThreadPoolExecutor(max_workers=workers)
        self.pieces: List[Tuple[Stage, Future]] = []
        self.seconds: Dict[int, float] = {}  # a piece's own time, by its place in pieces

    def _timed(self, place: int, fn, args: tuple):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[place] = time.perf_counter() - started

    def submit(self, stage: Stage, fn, *args) -> Future:
        """Start one piece of ``stage``'s work on the call pool."""
        future = self.calls.submit(self._timed, len(self.pieces), fn, args)
        self.pieces.append((stage, future))
        return future

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
        """Run the claim's stages inside; then write the record's trace, durations, failure."""
        error: Optional[Exception] = None
        try:
            yield
        except Exception as exc:
            error = exc
        finally:
            self.calls.shutdown(cancel_futures=True)
        trace = list(dict.fromkeys(stage for stage, _future in self.pieces))
        if error is not None:
            raised = (
                (stage, future.exception())
                for stage, future in self.pieces
                if not future.cancelled() and future.exception() is not None
            )
            stage, error = next(raised, (trace[-1], error))
            del trace[trace.index(stage) + 1 :]
            if isinstance(error, ClaimGraphError):
                message = str(error)
            else:
                # Not a domain failure (a bug, a provider client's own
                # exception): keep the type so the cause can be told apart.
                message = f"{type(error).__name__}: {error}"
            record.failure = {"stage": stage.value, "message": message}
        record.stage_trace = [stage.value for stage in trace]
        for place, seconds in sorted(self.seconds.items()):
            name = self.pieces[place][0].value
            record.durations[name] = record.durations.get(name, 0.0) + seconds


def _build_structure(
    gw: LlmGateway,
    config: PipelineConfig,
    claim: str,
    sub_claims: Sequence[str],
) -> Tuple[ClaimCenteredGraph, Optional[dict], Optional[str], List[str]]:
    """Generate the configured edges or hyperedges and assemble the claim's graph.

    Returns the graph, the record's ``hypergraph`` and ``structure_text``,
    and the parser's warnings; the claim thread writes them to the record.
    """
    if config.graph_structure == HYPERGRAPH:
        hyper, warnings = generate_hyperedges(gw, claim, sub_claims)
        hypergraph = {
            "hyperedges": [list(h) for h in hyper.hyperedges],
            "provenance": list(hyper.provenance),
        }
        graph = assemble_claim_graph(claim, sub_claims, set())
        return graph, hypergraph, hypergraph_to_seq(hyper), warnings
    llm_edges, warnings = generate_edges(gw, claim, sub_claims)
    graph = assemble_claim_graph(claim, sub_claims, llm_edges)
    return graph, None, graph_to_seq(graph), warnings


def run_claim(runtime: PipelineRuntime, claim_record: ClaimRecord) -> RunRecord:
    """Process one claim through every configured stage.

    Calls that do not depend on each other overlap, on a call pool of this
    claim's own: once the claim is decomposed, the edge (or hyperedge) call
    runs while the claim thread retrieves evidence, and then every node's
    competing pair (or lone analysis), and its background when configured,
    runs at once. The claim thread joins their results in program order
    (edges, entries, backgrounds) before inference and the final
    explanation, so records do not depend on the order calls finish in.
    The gateway's in-flight cap still bounds provider calls across the run,
    and no call runs after this function returns. Only the claim thread
    writes the record.

    Every failure, domain or not, is captured on the record under
    ``failure`` by ``_ClaimStages``' one rule, so a batch always produces
    one record per claim: the earliest piece that raised, in program and
    then submission order (node 1's before node 2's, as a sequential run
    would see them), is charged and ``stage_trace`` is cut there. Pieces not
    yet started are cancelled; ``stage_usage`` books every call that ran,
    overlapped ones included.

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
        config_hash=config.config_hash(),
        gold_label=claim_record.gold_label.identifier if claim_record.gold_label else None,
    )
    stages = _ClaimStages(config.provider_concurrency)
    structure: Optional[Future] = None
    graph: Optional[ClaimCenteredGraph] = None
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
            record.n = len(sub_claims)
            nodes = list(enumerate(sub_claims, start=1))
            if config.ablated("no_edges"):
                graph = assemble_claim_graph(claim, sub_claims, set())
                record.graph = graph.to_dict()
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
            explain_node = (
                generate_lone_analysis
                if config.ablated("no_competing")
                else generate_competing_pair
            )
            pending_entries = [
                stages.submit(Stage.EXPLANATION_GENERATION, explain_node, gw, i, text, evidence)
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
                graph, record.hypergraph, record.structure_text, warnings = structure.result()
                record.graph = graph.to_dict()
                record.warnings.extend(warnings)
        record.evidence = [e.to_dict() for e in evidence_sets]
        entries = [future.result() for future in pending_entries]
        for position, future in enumerate(pending_backgrounds):
            background, _pool = future.result()
            entries[position] = replace(entries[position], background=background)
        record.explanations = [e.to_dict() for e in entries]

        def infer():
            if graph is None:
                defense, prompt = None, build_claim_only_prompt(claim, entries[0], runtime.scheme)
            else:
                defense = DefenseGraph(graph, tuple(entries))
                prompt = build_inference_prompt(defense, runtime.scheme, record.structure_text)
            if config.inference_path == EXTERNAL_ADAPTER:
                return defense, predict_with_adapter(prompt, runtime.scheme, runtime.adapter)
            return defense, predict_zero_shot(gw, prompt, runtime.scheme)

        defense, result = stages.run(Stage.INFERENCE, infer)
        label = result.label
        record.prediction = {
            "label": label.identifier,
            "source": result.source,
            "probabilities": list(result.probabilities) if result.probabilities else None,
        }

        if graph is None:
            # No summarization stage: the explanation consistent with the
            # predicted label is selected directly.
            record.summary = entries[0].oriented(fallback_verdict(label))
        else:
            outcome = stages.run(
                Stage.FINAL_EXPLANATION_GENERATION,
                summarize_explanations, gw, defense, label, record.structure_text,
            )
            record.warnings.extend(outcome.warnings)
            record.verdicts = [v.to_dict() for v in outcome.verdicts]
            record.summary = outcome.summary
            explanation_graph = build_explanation_graph(
                defense, outcome.verdicts, outcome.summary, label
            )
            record.explanation_graph = export_structured(explanation_graph)
    record.stage_usage = gw.ledger.totals()
    return record


def _record_filename(claim_id: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", claim_id)[:80]
    digest = hashlib.sha1(claim_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}.json"


def _write_json(path: Path, payload: object) -> None:
    write_text_atomic(path, json.dumps(payload, ensure_ascii=False, indent=2))


def _write_record(run_dir: Path, record: RunRecord) -> Path:
    runs_dir = run_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / _record_filename(record.claim_id)
    _write_json(path, record.to_dict())
    return path


def load_run_config(run_dir: Union[str, Path]) -> PipelineConfig:
    """Config a run directory was created with."""
    path = Path(run_dir) / "config.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable run config {path}: {exc}") from exc
    return PipelineConfig.from_dict(payload)


def load_run_records(run_dir: Union[str, Path]) -> List[RunRecord]:
    runs_dir = Path(run_dir) / "runs"
    records = []
    if runs_dir.is_dir():
        for path in sorted(runs_dir.glob("*.json")):
            records.append(RunRecord.from_dict(json.loads(path.read_text(encoding="utf-8"))))
    return records


@dataclass(frozen=True)
class BatchResult:
    run_dir: Path
    processed: int
    skipped: int
    report: Optional[EvaluationReport]


def _prepare_run_dir(run_dir: Path, config: PipelineConfig, force: bool) -> None:
    """Create or check ``run_dir``, write its config and sweep orphaned temp files.

    A process killed inside ``write_text_atomic`` leaves its
    ``<name>.<random>.tmp`` file behind. Nothing reads one, but a copy of the
    cache directory would carry it along, so the batch about to run removes
    them; one run directory serves one batch at a time.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    if config_path.exists() and not force:
        if load_run_config(run_dir).config_hash() != config.config_hash():
            raise ConfigError(
                "run directory was created with a different config; "
                "use a fresh directory or pass force"
            )
    for directory in (run_dir, run_dir / "runs", run_dir / "cache"):
        for orphan in directory.glob("*.*.tmp"):
            orphan.unlink()
    _write_json(config_path, dict(config.to_dict(), config_hash=config.config_hash()))


def run_batch(
    records: Sequence[ClaimRecord],
    config: PipelineConfig,
    run_dir: Union[str, Path],
    provider=None,
    force: bool = False,
) -> BatchResult:
    """Process a dataset into a run directory, resuming if partially done.

    Claims that already have a record on disk are not re-run (their provider
    calls were already spent); everything else goes through a bounded thread
    pool, and each record is written as soon as its claim finishes. Per-claim
    failures are recorded, never raised. A record that cannot be written
    stops the batch at once: claims not yet started are cancelled, and the
    error is raised once the running ones have finished and the runtime is
    closed. The reports are built from the records read at the start plus
    the ones written here.
    """
    run_dir = Path(run_dir)
    _prepare_run_dir(run_dir, config, force)
    done = {r.claim_id: r for r in load_run_records(run_dir)}
    pending = [r for r in records if r.claim_id not in done]
    runtime = build_runtime(config, run_dir, provider=provider)
    pool = ThreadPoolExecutor(max_workers=max(1, min(config.claim_concurrency, len(pending))))
    processed = 0
    try:
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
        runtime.close()
    # The order load_run_records reads them in: by file name.
    on_disk = sorted(done.values(), key=lambda r: _record_filename(r.claim_id))
    report = write_reports(run_dir, config, on_disk)
    return BatchResult(
        run_dir=run_dir,
        processed=processed,
        skipped=len(records) - processed,
        report=report,
    )


def outcomes_from_records(
    records: Sequence[RunRecord], scheme: VeracityScheme
) -> List[ClaimOutcome]:
    outcomes = []
    for record in records:
        if record.gold_label is None:
            continue
        gold = VeracityLabel.from_identifier(scheme, record.gold_label)
        predicted = None
        failure_stage = None
        if record.succeeded:
            predicted = VeracityLabel.from_identifier(
                scheme, record.prediction["label"]
            )
        else:
            failure_stage = (record.failure or {}).get("stage", "unknown")
        outcomes.append(
            ClaimOutcome(
                claim_id=record.claim_id,
                gold=gold,
                predicted=predicted,
                failure_stage=failure_stage,
            )
        )
    return outcomes


def _write_report(
    run_dir: Path, outcomes: Sequence[ClaimOutcome], scheme: VeracityScheme
) -> EvaluationReport:
    report = evaluate_run(outcomes, scheme)
    _write_json(run_dir / "report.json", report.to_dict())
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
    _write_json(run_dir / "cost.json", _cost_report(records, config).to_dict())
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
    """

    claim_count: int
    stage_tokens: Dict[str, dict]
    total_input_tokens: int
    total_output_tokens: int
    input_cost: Decimal
    output_cost: Decimal
    total_cost: Decimal
    avg_tokens_per_claim: float
    latency_components: Dict[str, float]
    avg_subclaims: float
    estimated_latency: float
    measured_latency: float
    predictions_by_source: Dict[str, int]

    def to_dict(self) -> dict:
        return {
            "claims": self.claim_count,
            "stage_tokens": self.stage_tokens,
            "total_input_tokens": self.total_input_tokens,
            "total_output_tokens": self.total_output_tokens,
            "input_cost_usd": str(self.input_cost),
            "output_cost_usd": str(self.output_cost),
            "total_cost_usd": str(self.total_cost),
            "avg_tokens_per_claim": self.avg_tokens_per_claim,
            "latency_formula": LATENCY_FORMULA,
            "latency_components_sec": self.latency_components,
            "avg_subclaims": self.avg_subclaims,
            "estimated_latency_sec": self.estimated_latency,
            "measured_latency_sec": self.measured_latency,
            "predictions_by_source": dict(sorted(self.predictions_by_source.items())),
        }

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
        lines.append(f"latency model: {LATENCY_FORMULA}")
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
        if record.prediction:
            source = record.prediction.get("source", "unknown")
            sources[source] = sources.get(source, 0) + 1
        for stage, seconds in record.durations.items():
            key = LATENCY_TERMS[Stage(stage)]
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
        predictions_by_source=sources,
    )


def judge_run(
    run_dir: Union[str, Path], config: PipelineConfig, provider=None
) -> EvaluationReport:
    """Judge every successful claim's final explanation and rebuild the report.

    A claim whose judge reply stays out of contract, or whose judge call
    fails at the provider, is counted under ``judge_failures``.
    """
    run_dir = Path(run_dir)
    records = [r for r in load_run_records(run_dir) if r.gold_label is not None]
    runtime = build_runtime(config, run_dir, provider=provider)
    gateway = runtime.gateway
    outcomes = []
    try:
        for record, outcome in zip(records, outcomes_from_records(records, config.scheme)):
            explanation = record.summary or ""
            if record.succeeded and record.explanation_graph:
                explanation = judge_payload(parse_structured(record.explanation_graph))
            if record.succeeded and explanation:
                try:
                    scores = judge_explanation(gateway, record.claim, outcome.gold, explanation)
                    outcome = replace(outcome, judge=scores)
                except (JudgeFailureError, ProviderError):
                    outcome = replace(outcome, judge_failed=True)
            outcomes.append(outcome)
    finally:
        runtime.close()
    return _write_report(run_dir, outcomes, config.scheme)
