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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import Decimal
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
    TokenUsage,
)
from .gateway.ledger import CostBreakdown
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
from .labels import VeracityLabel, VeracityScheme, label_to_score, scheme_by_name
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

    ``failure["stage"]``, when set, is always the last entry of
    ``stage_trace``: the stage that was running, or the last one entered,
    when the claim failed. ``stage_usage`` counts provider calls only; cache
    hits cost nothing and are not counted.
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


@contextmanager
def _stage(record: RunRecord, name: str):
    """Enter a stage: trace it and add its wall time to ``durations``."""
    record.stage_trace.append(name)
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        record.durations[name] = record.durations.get(name, 0.0) + elapsed


def run_claim(runtime: PipelineRuntime, claim_record: ClaimRecord) -> RunRecord:
    """Process one claim through every configured stage.

    Every failure, domain or not, is captured on the record under ``failure``
    and charged to the last stage entered, so a batch always produces one
    record per claim. Without sub-claims the claim itself is the only node:
    it gets claim-level evidence and explanations, a single-node inference
    prompt, and the explanation matching the label as its summary.
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
    include_structure = not config.ablated("no_edges")
    structure_text: Optional[str] = None
    graph: Optional[ClaimCenteredGraph] = None
    try:
        if config.ablated("no_subclaims"):
            nodes = [(0, claim)]
        else:
            template = (
                TemplateId.DECOMPOSE_PLUS
                if config.decomposition == ENHANCED
                else TemplateId.DECOMPOSE
            )
            with _stage(record, "claim_decomposition"):
                sub_claims = decompose_claim(gw, claim, template)
            record.sub_claims = list(sub_claims)
            record.n = len(sub_claims)

            llm_edges: Set[Tuple[int, int]] = set()
            if include_structure and config.graph_structure == HYPERGRAPH:
                with _stage(record, "hyperedge_generation"):
                    hyper, warnings = generate_hyperedges(gw, claim, sub_claims)
                record.warnings.extend(warnings)
                record.hypergraph = {
                    "hyperedges": [list(h) for h in hyper.hyperedges],
                    "provenance": list(hyper.provenance),
                }
                structure_text = hypergraph_to_seq(hyper)
            elif include_structure:
                with _stage(record, "edge_generation"):
                    llm_edges, warnings = generate_edges(gw, claim, sub_claims)
                record.warnings.extend(warnings)
            graph = assemble_claim_graph(claim, sub_claims, llm_edges)
            if include_structure and config.graph_structure == DEPENDENCY:
                structure_text = graph_to_seq(graph)
            record.graph = graph.to_dict()
            record.structure_text = structure_text
            nodes = list(enumerate(graph.sub_claims, start=1))

        corpus_index: Optional[CorpusIndex] = None
        if config.ablated("no_evidence"):
            evidence_sets = [EvidenceSet(i, (), config.k) for i, _text in nodes]
        else:
            with _stage(record, "evidence_retrieval"):
                corpus_index = build_corpus_index(
                    build_corpus(claim_record), runtime.embedder
                )
                evidence_sets = [
                    retrieve_top_k(i, text, corpus_index, runtime.embedder, config.k)
                    for i, text in nodes
                ]
        record.evidence = [e.to_dict() for e in evidence_sets]

        explain_node = (
            generate_lone_analysis
            if config.ablated("no_competing")
            else generate_competing_pair
        )
        with _stage(record, "explanation_generation"):
            entries = [
                explain_node(gw, i, text, evidence)
                for (i, text), evidence in zip(nodes, evidence_sets)
            ]
        if config.with_background:
            with _stage(record, "background_generation"):
                for position, (i, text) in enumerate(nodes):
                    background, _pool = generate_background(
                        gw,
                        i,
                        text,
                        corpus_index,
                        runtime.embedder,
                        config.background_pool_size,
                    )
                    entries[position] = replace(entries[position], background=background)
        record.explanations = [e.to_dict() for e in entries]

        with _stage(record, "inference"):
            if graph is None:
                prompt = build_claim_only_prompt(claim, entries[0], runtime.scheme)
            else:
                defense = DefenseGraph(graph, tuple(entries)).validate()
                prompt = build_inference_prompt(
                    defense, runtime.scheme, include_structure, structure_text
                )
            if config.inference_path == EXTERNAL_ADAPTER:
                result = predict_with_adapter(prompt, runtime.scheme, runtime.adapter)
            else:
                result = predict_zero_shot(gw, prompt, runtime.scheme)
        label = result.label
        record.prediction = {
            "label": label.identifier,
            "source": result.source,
            "probabilities": list(result.probabilities) if result.probabilities else None,
        }

        if graph is None:
            # No summarization stage: the explanation consistent with the
            # predicted label is selected directly.
            record.summary = entries[0].oriented(label_to_score(label) >= 2.5)
        else:
            with _stage(record, "final_explanation_generation"):
                outcome = summarize_explanations(
                    gw, defense, label, include_structure, structure_text
                )
            record.warnings.extend(outcome.warnings)
            record.verdicts = [v.to_dict() for v in outcome.verdicts]
            record.summary = outcome.summary
            explanation_graph = build_explanation_graph(
                defense, outcome.verdicts, outcome.summary, label
            )
            record.explanation_graph = export_structured(explanation_graph)
    except ClaimGraphError as exc:
        record.failure = {"stage": record.stage_trace[-1], "message": str(exc)}
    except Exception as exc:
        # Not a domain failure (a bug, a provider client's own exception):
        # keep the type so the cause can be told apart.
        record.failure = {
            "stage": record.stage_trace[-1],
            "message": f"{type(exc).__name__}: {exc}",
        }
    record.stage_usage = {
        stage.value: {
            "input_tokens": totals.usage.input_tokens,
            "output_tokens": totals.usage.output_tokens,
            "calls": totals.calls,
        }
        for stage, totals in sorted(
            gw.ledger.snapshot().items(), key=lambda kv: kv[0].value
        )
    }
    return record


def _record_filename(claim_id: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", claim_id)[:80]
    digest = hashlib.sha1(claim_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}.json"


def _write_record(run_dir: Path, record: RunRecord) -> Path:
    runs_dir = run_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / _record_filename(record.claim_id)
    write_text_atomic(path, json.dumps(record.to_dict(), ensure_ascii=False, indent=2))
    return path


def load_run_config(run_dir: Union[str, Path]) -> PipelineConfig:
    """Config a run directory was created with (config_hash key stripped)."""
    path = Path(run_dir) / "config.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable run config {path}: {exc}") from exc
    payload.pop("config_hash", None)
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
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    if config_path.exists():
        existing = json.loads(config_path.read_text(encoding="utf-8"))
        if existing.get("config_hash") != config.config_hash() and not force:
            raise ConfigError(
                "run directory was created with a different config; "
                "use a fresh directory or pass force"
            )
    payload = dict(config.to_dict(), config_hash=config.config_hash())
    config_path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2), encoding="utf-8"
    )


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
    pool. Per-claim failures are recorded, never raised.
    """
    run_dir = Path(run_dir)
    _prepare_run_dir(run_dir, config, force)
    done_ids = {r.claim_id for r in load_run_records(run_dir)}
    pending = [r for r in records if r.claim_id not in done_ids]
    runtime = build_runtime(config, run_dir, provider=provider)
    processed = 0
    if pending:
        workers = max(1, min(config.claim_concurrency, len(pending)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for record in pool.map(lambda c: run_claim(runtime, c), pending):
                _write_record(run_dir, record)
                processed += 1
    report = write_reports(run_dir, config)
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
    (run_dir / "report.json").write_text(
        json.dumps(report.to_dict(), ensure_ascii=False, indent=2), encoding="utf-8"
    )
    return report


def write_reports(run_dir: Path, config: PipelineConfig) -> Optional[EvaluationReport]:
    """Recompute report.json and cost.json from the records on disk."""
    records = load_run_records(run_dir)
    report = None
    outcomes = outcomes_from_records(records, config.scheme)
    if outcomes:
        report = _write_report(run_dir, outcomes, config.scheme)
    cost = cost_report(run_dir, config)
    (run_dir / "cost.json").write_text(
        json.dumps(cost.to_dict(), ensure_ascii=False, indent=2), encoding="utf-8"
    )
    return report


LATENCY_FORMULA = "T_total = T_dec + T_rel + n*(T_ret + T_comp) + T_pred + T_final"

_COMPONENT_STAGES = {
    "T_dec": "claim_decomposition",
    "T_rel": "edge_generation",
    "T_ret": "evidence_retrieval",
    "T_comp": "explanation_generation",
    "T_pred": "inference",
    "T_final": "final_explanation_generation",
}
_PER_SUBCLAIM = {"T_ret", "T_comp"}


@dataclass(frozen=True)
class CostReport:
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
    """Aggregate tokens, dollars, and latency over a run directory.

    Latency components are measured averages; T_ret and T_comp are per
    sub-claim (a claim's stage duration divided by its n) so the formula's
    ``n*(T_ret + T_comp)`` term scales with decomposition size.
    """
    records = load_run_records(run_dir)
    stage_tokens: Dict[str, dict] = {}
    for record in records:
        for stage_name, entry in record.stage_usage.items():
            bucket = stage_tokens.setdefault(
                stage_name, {"input_tokens": 0, "output_tokens": 0, "calls": 0}
            )
            bucket["input_tokens"] += entry["input_tokens"]
            bucket["output_tokens"] += entry["output_tokens"]
            bucket["calls"] += entry["calls"]
    breakdown = CostBreakdown(
        {
            Stage(name): config.pricing.cost(
                TokenUsage(entry["input_tokens"], entry["output_tokens"])
            )
            for name, entry in stage_tokens.items()
        }
    )
    total_in = sum(e["input_tokens"] for e in stage_tokens.values())
    total_out = sum(e["output_tokens"] for e in stage_tokens.values())
    components: Dict[str, List[float]] = {key: [] for key in _COMPONENT_STAGES}
    measured: List[float] = []
    sub_counts: List[float] = []
    sources: Dict[str, int] = {}
    for record in records:
        if record.durations:
            measured.append(sum(record.durations.values()))
        if record.n:
            sub_counts.append(float(record.n))
        if record.prediction:
            source = record.prediction.get("source", "unknown")
            sources[source] = sources.get(source, 0) + 1
        for key, stage_name in _COMPONENT_STAGES.items():
            if stage_name not in record.durations:
                continue
            value = record.durations[stage_name]
            if key in _PER_SUBCLAIM and record.n:
                value /= record.n
            components[key].append(value)
    avg_components = {
        key: (sum(values) / len(values) if values else 0.0)
        for key, values in components.items()
    }
    avg_n = sum(sub_counts) / len(sub_counts) if sub_counts else 0.0
    estimated = (
        avg_components["T_dec"]
        + avg_components["T_rel"]
        + avg_n * (avg_components["T_ret"] + avg_components["T_comp"])
        + avg_components["T_pred"]
        + avg_components["T_final"]
    )
    return CostReport(
        claim_count=len(records),
        stage_tokens=dict(sorted(stage_tokens.items())),
        total_input_tokens=total_in,
        total_output_tokens=total_out,
        input_cost=breakdown.input_cost,
        output_cost=breakdown.output_cost,
        total_cost=breakdown.total,
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
    gateway = build_runtime(config, run_dir, provider=provider).gateway
    outcomes = []
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
    return _write_report(run_dir, outcomes, config.scheme)
