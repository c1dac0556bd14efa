"""Explainable fake news detection over claim-centered graphs.

A claim is decomposed into sub-claims arranged in a small dependency graph,
each sub-claim is grounded in retrieved report sentences and argued from both
sides, a verdict is inferred over the serialized graph, and the surviving
explanations are folded into a final human-readable account.
"""
from .errors import (
    AdapterContractError,
    ClaimGraphError,
    ConfigError,
    DatasetError,
    FixtureMissError,
    ProviderError,
    SummarizationError,
)
from .gateway import (
    FixtureProvider,
    LlmGateway,
    Pricing,
    Stage,
    TokenLedger,
    TokenUsage,
)
from .graphs import ClaimCenteredGraph, DependencyEdge, assemble_claim_graph
from .inference import DefenseGraph, build_inference_prompt, graph_to_seq
from .ingest import dataset_stats, load_manifest, load_records
from .labels import (
    SIX_WAY,
    THREE_WAY,
    VeracityLabel,
    VeracityScheme,
    label_to_score,
    map_six_to_three,
    parse_label_string,
    scheme_by_name,
)
from .pipeline import (
    PipelineConfig,
    RunRecord,
    build_runtime,
    cost_report,
    load_run_records,
    run_batch,
    run_claim,
)
from .records import ClaimRecord, Report
from .retrieval import (
    EvidenceSet,
    HashingBagOfWordsEmbedder,
    build_corpus_index,
    retrieve_top_k,
    split_report_sentences,
)
from .summarize import ExplanationGraph, export_dot, export_structured, parse_structured

__all__ = [
    "AdapterContractError",
    "ClaimCenteredGraph",
    "ClaimGraphError",
    "ClaimRecord",
    "ConfigError",
    "DatasetError",
    "DefenseGraph",
    "DependencyEdge",
    "EvidenceSet",
    "ExplanationGraph",
    "FixtureMissError",
    "FixtureProvider",
    "HashingBagOfWordsEmbedder",
    "LlmGateway",
    "PipelineConfig",
    "Pricing",
    "ProviderError",
    "Report",
    "RunRecord",
    "SIX_WAY",
    "Stage",
    "SummarizationError",
    "THREE_WAY",
    "TokenLedger",
    "TokenUsage",
    "VeracityLabel",
    "VeracityScheme",
    "assemble_claim_graph",
    "build_corpus_index",
    "build_inference_prompt",
    "build_runtime",
    "cost_report",
    "dataset_stats",
    "export_dot",
    "export_structured",
    "graph_to_seq",
    "label_to_score",
    "load_manifest",
    "load_records",
    "load_run_records",
    "map_six_to_three",
    "parse_label_string",
    "parse_structured",
    "retrieve_top_k",
    "run_batch",
    "run_claim",
    "scheme_by_name",
    "split_report_sentences",
]
