"""One measured batch, its output checks, and the metrics derived from batches.

End-to-end metrics come from untraced batches only; per-layer metrics come
from the spans of traced batches (see ``spans.py``).
"""
from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from spans import Span, self_times

# Record fields that hold wall-clock measurements and so differ run to run.
TIMING_FIELDS = ("durations",)
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

Metrics = Dict[str, Tuple[float, str]]


def tail_percentile(samples: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it, or None."""
    for pct in _TAIL_CANDIDATES:
        if samples * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


@dataclass
class BatchOutcome:
    """What one ``run_batch`` call did, measured from outside."""

    submitted: List[str]
    wall_s: float
    cpu_s: float
    error: Optional[str]  # exception type when run_batch raised
    recorded: int
    failed: int
    digest: str  # records_digest of the records written
    calls: int
    input_tokens: int
    output_tokens: int
    busy_s: float
    max_in_flight: int
    run_dir_bytes: int
    run_dir_files: int
    cache_bytes: int
    record_bytes: List[int]
    claim_times_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.submitted)


def failed_claims(submitted: Sequence[str], records: Iterable[dict]) -> int:
    """Claims without a succeeded record: recorded failures plus claims whose
    record never got written because the batch aborted."""
    succeeded = {
        r["claim_id"] for r in records if r.get("failure") is None and r.get("prediction")
    }
    return sum(1 for claim_id in submitted if claim_id not in succeeded)


def records_digest(records: Iterable[dict]) -> str:
    """Digest of the records with timing fields removed, independent of order."""
    stripped = sorted(
        json.dumps({k: v for k, v in r.items() if k not in TIMING_FIELDS}, sort_keys=True)
        for r in records
    )
    return hashlib.sha256("\n".join(stripped).encode("utf-8")).hexdigest()


def _tree_bytes(root: Path) -> Tuple[int, int]:
    total = files = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(dirpath, name))
            files += 1
    return total, files


def run_one_batch(run_batch, records, config, run_dir: Path, provider) -> BatchOutcome:
    """Run one batch into a fresh ``run_dir`` and check its outputs.

    A raise from ``run_batch`` is recorded as the batch's error, not propagated.
    """
    error = None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        run_batch(records, config, run_dir, provider=provider)
    except Exception as exc:  # a program failure: counted, the benchmark goes on
        error = type(exc).__name__
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    record_paths = sorted((run_dir / "runs").glob("*.json"))
    written = [json.loads(p.read_text(encoding="utf-8")) for p in record_paths]
    run_dir_bytes, run_dir_files = _tree_bytes(run_dir)
    submitted = [r.claim_id for r in records]
    outcome = BatchOutcome(
        submitted=submitted,
        wall_s=wall_s,
        cpu_s=cpu_s,
        error=error,
        recorded=len(written),
        failed=failed_claims(submitted, written),
        digest=records_digest(written),
        calls=provider.calls,
        input_tokens=provider.input_tokens,
        output_tokens=provider.output_tokens,
        busy_s=provider.busy_s,
        max_in_flight=provider.max_in_flight,
        run_dir_bytes=run_dir_bytes,
        run_dir_files=run_dir_files,
        cache_bytes=_tree_bytes(run_dir / "cache")[0],
        record_bytes=[p.stat().st_size for p in record_paths],
    )
    outcome.problems = check_batch(outcome, written, run_dir, config.scheme.labels)
    return outcome


def check_batch(
    outcome: BatchOutcome, records: Sequence[dict], run_dir: Path, labels: Sequence[str]
) -> List[str]:
    """Output checks; an empty list means the batch's outputs are correct."""
    problems = []
    ids = [r["claim_id"] for r in records]
    if len(ids) != len(set(ids)) or not set(ids) <= set(outcome.submitted):
        problems.append("a claim has more than one record, or a record has no claim")
    for record in records:
        label = (record.get("prediction") or {}).get("label")
        if record.get("failure") is None and label not in labels:
            problems.append(f"{record['claim_id']}: label {label!r} is not in the scheme")
    if outcome.error is not None:
        return problems  # no reports are written when the batch aborts
    if len(ids) != outcome.attempted:
        problems.append(f"{outcome.attempted} claims but {len(ids)} records")
    try:
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        cost = json.loads((run_dir / "cost.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"report.json or cost.json unreadable: {exc}"]
    if report.get("claims") != outcome.attempted or cost.get("claims") != outcome.attempted:
        problems.append("report.json or cost.json does not count every claim")
    booked_calls = sum(entry["calls"] for entry in cost["stage_tokens"].values())
    booked = (booked_calls, cost["total_input_tokens"], cost["total_output_tokens"])
    counted = (outcome.calls, outcome.input_tokens, outcome.output_tokens)
    if booked != counted:
        problems.append(f"cost.json books (calls, in, out) {booked}; provider counted {counted}")
    return problems


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def end_to_end(
    batches: Sequence[BatchOutcome], setup_s: Sequence[float], peak_rss_mb: float
) -> Tuple[Metrics, Dict[str, int]]:
    """End-to-end metrics over untraced batches, with each one's sample count."""
    attempted = sum(b.attempted for b in batches)
    pct = tail_percentile(batches[0].attempted)
    # Claim-time percentiles are taken per batch, then the median over batches,
    # so one batch slowed by the machine does not move the result.
    claim_ms = [np.array(b.claim_times_s) * 1000.0 for b in batches]
    metrics: Metrics = {
        "claims_per_s": (_median([b.recorded / b.wall_s for b in batches]), "1/s"),
        "claim_p50_ms": (_median([float(np.median(ms)) for ms in claim_ms]), "ms"),
        f"claim_p{pct:g}_ms": (_median([float(np.percentile(ms, pct)) for ms in claim_ms]), "ms"),
        "calls_per_claim": (sum(b.calls for b in batches) / attempted, "count"),
        "tokens_per_claim": (
            sum(b.input_tokens + b.output_tokens for b in batches) / attempted,
            "count",
        ),
        "failed_share": (sum(b.failed for b in batches) / attempted, "ratio"),
        "cpu_ms_per_claim": (_median([b.cpu_s * 1000.0 / b.attempted for b in batches]), "ms"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "run_dir_kb_per_claim": (
            _median([b.run_dir_bytes / 1024.0 / b.attempted for b in batches]),
            "KiB",
        ),
    }
    per_batch = len(batches)
    samples = {name: per_batch for name in metrics}
    samples.update({"setup_s": len(setup_s), "peak_rss_mb": 1})
    samples.update({k: attempted for k in ("calls_per_claim", "tokens_per_claim", "failed_share")})
    return metrics, samples


def per_layer(
    spans: Sequence[Span],
    batches: Sequence[BatchOutcome],
    load_spans: Sequence[Span],
    untraced_claims_per_s: float,
) -> Tuple[Metrics, Dict[str, float]]:
    """Per-layer metrics from the spans of traced batches and traced loads,
    and the total self time of each layer in milliseconds."""
    claims = sum(b.attempted for b in batches)
    wall_ms = sum(b.wall_s for b in batches) * 1000.0
    selfs = self_times(spans)
    layer_self: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        layer_self[span.layer] += selfs[span.id] * 1000.0
        by_name[span.name].append(span)

    def total_ms(name: str) -> float:
        return sum(s.duration for s in by_name[name]) * 1000.0

    def p50(name: str, scale: float) -> float:
        durations = [s.duration * scale for s in by_name[name]]
        return _median(durations) if durations else 0.0

    claim_ms = total_ms("run_claim")
    completes = by_name["complete"]
    with_provider = {s.parent for s in by_name["provider"]}
    gets = len(by_name["cache_get"])
    hits = sum(1 for s in completes if s.id not in with_provider)

    load_selfs = self_times(load_spans)
    loads = [s for s in load_spans if s.name == "load_dataset"]
    split_ms = [
        sum(load_selfs[c.id] for c in load_spans if c.parent == load.id) * 1000.0
        for load in loads
    ]
    traced_cps = _median([b.recorded / b.wall_s for b in batches])
    busy_ms = sum(b.busy_s for b in batches) * 1000.0

    metrics: Metrics = {
        "ingest.load_ms": (_median([s.duration * 1000.0 for s in loads]), "ms"),
        "ingest.split_ms": (_median(split_ms), "ms"),
        "retrieval.index_ms_per_claim": (
            (total_ms("build_corpus") + total_ms("build_corpus_index")) / claims,
            "ms",
        ),
        "retrieval.top_k_ms_p50": (p50("retrieve_top_k", 1000.0), "ms"),
        "retrieval.top_k_calls_per_claim": (len(by_name["retrieve_top_k"]) / claims, "count"),
        "retrieval.share": (layer_self.get("retrieval", 0.0) / claim_ms, "ratio"),
        "graphs.self_ms_per_claim": (layer_self.get("graphs", 0.0) / claims, "ms"),
        "explain.self_ms_per_claim": (layer_self.get("explain", 0.0) / claims, "ms"),
        "explain.wall_ms_per_claim": (total_ms("generate_competing_pair") / claims, "ms"),
        "inference.self_ms_per_claim": (layer_self.get("inference", 0.0) / claims, "ms"),
        "summarize.self_ms_per_claim": (layer_self.get("summarize", 0.0) / claims, "ms"),
        "prompts.render_us_p50": (p50("render_prompt", 1e6), "us"),
        "parsing.coerce_us_p50": (p50("coerce_mapping", 1e6), "us"),
        "gateway.complete_calls_per_claim": (len(completes) / claims, "count"),
        "gateway.self_ms_per_call": (
            sum(selfs[s.id] for s in completes) * 1000.0 / max(1, len(completes)),
            "ms",
        ),
        "gateway.cache_get_ms_p50": (p50("cache_get", 1000.0), "ms"),
        "gateway.cache_put_ms_p50": (p50("cache_put", 1000.0), "ms"),
        "gateway.cache_hit_ratio": (hits / gets if gets else 0.0, "ratio"),
        "gateway.provider_calls_per_complete": (
            len(by_name["provider"]) / max(1, len(completes)),
            "ratio",
        ),
        "provider.calls_per_claim": (sum(b.calls for b in batches) / claims, "count"),
        "provider.input_tokens_per_claim": (
            sum(b.input_tokens for b in batches) / claims,
            "count",
        ),
        "provider.output_tokens_per_claim": (
            sum(b.output_tokens for b in batches) / claims,
            "count",
        ),
        "provider.busy_ms_per_claim": (busy_ms / claims, "ms"),
        "provider.mean_in_flight": (busy_ms / wall_ms, "count"),
        "provider.max_in_flight": (float(max(b.max_in_flight for b in batches)), "count"),
        "pipeline.claim_self_ms": (layer_self.get("pipeline", 0.0) / claims, "ms"),
        "pipeline.record_write_ms_p50": (p50("write_record", 1000.0), "ms"),
        "pipeline.record_write_share": (total_ms("write_record") / wall_ms, "ratio"),
        "pipeline.record_kb_p50": (
            _median([n / 1024.0 for b in batches for n in b.record_bytes]),
            "KiB",
        ),
        "pipeline.load_records_ms": (total_ms("load_run_records") / len(batches), "ms"),
        "pipeline.reports_ms": (total_ms("write_reports") / len(batches), "ms"),
        "store.files_per_claim": (
            _median([b.run_dir_files / b.attempted for b in batches]),
            "count",
        ),
        "store.cache_kb_per_claim": (
            _median([b.cache_bytes / 1024.0 / b.attempted for b in batches]),
            "KiB",
        ),
        "trace.overhead_share": (1.0 - traced_cps / untraced_claims_per_s, "ratio"),
    }
    return metrics, dict(layer_self)
