"""Spans recorded from outside the program, and the self times derived from them.

The traced run wraps the public functions that ``claimgraph.pipeline`` (and
the layers it drives) call into each layer. Nothing under ``src/`` changes:
each wrapper replaces a module or class attribute for the duration of the
traced batch and the original is put back afterwards.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    claim_id: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects finished spans in memory; each thread keeps its own parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, claim_id: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent, parent_claim = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        claim_id = claim_id if claim_id is not None else parent_claim
        stack.append((span_id, claim_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, layer, start, end, parent, claim_id))

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        claim_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            claim_id = claim_of(*args, **kwargs) if claim_of else None
            with self.span(name, layer, claim_id):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (children on several threads), so the
    covered part is the union of their intervals clipped to the parent.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def _claim_of_run_claim(runtime, claim_record, *args, **kwargs) -> str:
    return claim_record.claim_id


def _claim_of_write_record(run_dir, record, *args, **kwargs) -> str:
    return record.claim_id


def _targets(provider_cls: type):
    """(owner, attribute, span name, layer, claim id getter) for every wrapper."""
    from claimgraph import explain, graphs, ingest, inference, pipeline, summarize
    from claimgraph.gateway import LlmGateway, ResponseCache

    targets = [
        (pipeline, "run_claim", "run_claim", "pipeline", _claim_of_run_claim),
        (pipeline, "_write_record", "write_record", "pipeline.record_write", _claim_of_write_record),
        (pipeline, "write_reports", "write_reports", "pipeline.reports", None),
        (pipeline, "load_run_records", "load_run_records", "pipeline.load_records", None),
        (pipeline, "decompose_claim", "decompose_claim", "graphs", None),
        (pipeline, "generate_edges", "generate_edges", "graphs", None),
        (pipeline, "assemble_claim_graph", "assemble_claim_graph", "graphs", None),
        (pipeline, "build_corpus", "build_corpus", "retrieval", None),
        (pipeline, "build_corpus_index", "build_corpus_index", "retrieval", None),
        (pipeline, "retrieve_top_k", "retrieve_top_k", "retrieval", None),
        (pipeline, "generate_competing_pair", "generate_competing_pair", "explain", None),
        (pipeline, "graph_to_seq", "graph_to_seq", "inference", None),
        (pipeline, "build_inference_prompt", "build_inference_prompt", "inference", None),
        (pipeline, "predict_zero_shot", "predict_zero_shot", "inference", None),
        (pipeline, "summarize_explanations", "summarize_explanations", "summarize", None),
        (pipeline, "build_explanation_graph", "build_explanation_graph", "summarize", None),
        (pipeline, "export_structured", "export_structured", "summarize", None),
        (summarize, "coerce_mapping", "coerce_mapping", "parsing", None),
        (ingest, "split_report_sentences", "split_report_sentences", "ingest", None),
        (LlmGateway, "complete", "complete", "gateway", None),
        (ResponseCache, "get", "cache_get", "gateway.cache", None),
        (ResponseCache, "put", "cache_put", "gateway.cache", None),
        (provider_cls, "generate", "provider", "provider", None),
    ]
    for module in (graphs, explain, inference, summarize):
        targets.append((module, "render_prompt", "render_prompt", "prompts", None))
    return targets


@contextmanager
def instrumented(tracer: Tracer, provider_cls: type) -> Iterator[Tracer]:
    """Wrap every layer boundary with ``tracer`` spans; restore on exit."""
    with ExitStack() as restore:
        for owner, attr, name, layer, claim_of in _targets(provider_cls):
            original = owner.__dict__[attr]
            restore.callback(setattr, owner, attr, original)
            setattr(owner, attr, tracer.wrap(original, name, layer, claim_of))
        yield tracer
