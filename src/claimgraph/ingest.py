"""Dataset loading: manifest, canonical claim records, validation, stats.

The canonical on-disk form is a manifest JSON next to a JSONL claims file.
Each claims line is ``{"id", "claim", "label", "reports": [...]}`` where a
report is either ``{"content": "raw text"}`` (split into sentences here) or
``{"sentences": ["...", ...]}`` (already split).

Each rule is checked once, here: ``load_records`` rejects a line that does
not decode (or nests too deep), is not an object or repeats an id;
``parse_claim_record`` checks the id, claim, label and report list, and
``_parse_report`` each report's sentences, stripped in one ``map`` pass.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DatasetError, UnparseableLabelError
from .jsonform import as_json, read_json, unreadable, write_text
from .labels import VeracityLabel, VeracityScheme, scheme_by_name
from .records import ClaimRecord, Report
from .retrieval import split_report_sentences


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    scheme: VeracityScheme
    split: str
    claims_path: Path
    expected_stats: Optional[dict] = None

    VALID_SPLITS = ("train", "valid", "test")

    def __post_init__(self) -> None:
        if self.split not in self.VALID_SPLITS:
            raise DatasetError(f"split must be one of {self.VALID_SPLITS}, got {self.split!r}")


def load_manifest(path: Union[str, Path]) -> DatasetManifest:
    path = Path(path)

    def decode(payload: dict) -> DatasetManifest:
        return DatasetManifest(
            payload["name"], scheme_by_name(payload["scheme"]), payload["split"],
            path.parent / payload["claims"], payload.get("expected_stats"),
        )

    return read_json(path, DatasetError, "manifest", decode)


@dataclass(frozen=True)
class RejectedRecord:
    claim_id: str
    reason: str


def _parse_report(raw: object) -> Tuple[str, ...]:
    """Sentences of one report; empty tuple means the report is unusable."""
    if isinstance(raw, dict):
        content = raw.get("content")
        if isinstance(content, str):
            return tuple(split_report_sentences(content))
        sentences = raw.get("sentences")
        if isinstance(sentences, list):
            try:
                stripped = tuple(map(str.strip, sentences))
            except TypeError:  # a sentence that is not a string
                return ()
            return () if "" in stripped else stripped
    return ()


def parse_claim_record(
    payload: dict, scheme: VeracityScheme, allow_empty_reports: bool = False
) -> ClaimRecord:
    """Validate one raw record against the canonical schema.

    Raises DatasetError with a human-readable reason; the loader catches it
    and routes the record to the reject log.
    """
    claim_id = str(payload.get("id", "")).strip()
    if not claim_id:
        raise DatasetError("missing id")
    claim = payload.get("claim")
    if not isinstance(claim, str) or not claim.strip():
        raise DatasetError("missing or empty claim text")
    gold: Optional[VeracityLabel] = None
    if payload.get("label") is not None:
        try:
            gold = VeracityLabel.from_identifier(scheme, str(payload["label"]))
        except UnparseableLabelError as exc:
            raise DatasetError(str(exc)) from None
    raw_reports = payload.get("reports", [])
    if not isinstance(raw_reports, list):
        raise DatasetError("reports must be a list")
    reports = tuple(map(_parse_report, raw_reports))
    if () in reports:
        raise DatasetError(f"report {reports.index(())} is empty or malformed")
    if not reports and not allow_empty_reports:
        raise DatasetError("record has no reports")
    return ClaimRecord(claim_id, claim.strip(), tuple(map(Report, reports)), gold)


def load_records(
    manifest: DatasetManifest, allow_empty_reports: bool = False
) -> Tuple[List[ClaimRecord], List[RejectedRecord]]:
    """All usable records plus a reject entry for every line that is not."""
    records: List[ClaimRecord] = []
    rejects: List[RejectedRecord] = []
    seen_ids: set = set()
    with unreadable(DatasetError, "claims file", manifest.claims_path):
        # Lines end at \n, \r\n or \r only; str.splitlines also splits a JSON string's raw U+2028.
        text = manifest.claims_path.read_bytes().decode("utf-8")
        lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            rejects.append(RejectedRecord(f"line-{line_no}", f"invalid JSON: {exc}"))
            continue
        try:
            if not isinstance(payload, dict):
                raise DatasetError("line is not an object")
            record = parse_claim_record(payload, manifest.scheme, allow_empty_reports)
        except DatasetError as exc:
            fallback_id = f"line-{line_no}"
            claim_id = str(payload.get("id", fallback_id)) if isinstance(payload, dict) else fallback_id
            rejects.append(RejectedRecord(claim_id or fallback_id, str(exc)))
            continue
        if record.claim_id in seen_ids:
            rejects.append(RejectedRecord(record.claim_id, "duplicate id"))
            continue
        seen_ids.add(record.claim_id)
        records.append(record)
    return records, rejects


def write_reject_log(path: Union[str, Path], rejects: Sequence[RejectedRecord]) -> None:
    lines = (json.dumps({"id": r.claim_id, "reason": r.reason}, ensure_ascii=False) for r in rejects)
    write_text(path, "".join(line + "\n" for line in lines))


@dataclass(frozen=True)
class Extent:
    """The least, greatest and mean of some counts; all 0 when there are none."""

    min: int = 0
    max: int = 0
    avg: float = 0.0

    @classmethod
    def of(cls, counts: Sequence[int]) -> "Extent":
        return cls(min(counts), max(counts), sum(counts) / len(counts)) if counts else cls()

    def render_text(self) -> str:
        return f"min {self.min}  max {self.max}  avg {self.avg:.1f}"


@dataclass(frozen=True)
class DatasetStats:
    """A corpus's shape; ``to_dict`` is a manifest's ``expected_stats``."""

    claim_count: int = field(metadata={"json": "claims"})
    label_counts: Dict[str, int] = field(default_factory=dict)
    reports_per_claim: Extent = Extent()
    sentences_per_report: Extent = Extent()

    def to_dict(self) -> dict:
        return as_json(self)

    def render_text(self) -> str:
        labels = "  ".join(f"{k}: {v}" for k, v in self.label_counts.items())
        return "\n".join(
            [
                f"claims: {self.claim_count}",
                f"labels: {labels or 'none'}",
                f"reports/claim:    {self.reports_per_claim.render_text()}",
                f"sentences/report: {self.sentences_per_report.render_text()}",
            ]
        )


def dataset_stats(records: Sequence[ClaimRecord]) -> DatasetStats:
    """Corpus shape summary: label counts plus report and sentence extents."""
    golds = [record.gold_label for record in records]
    schemes = [gold.scheme for gold in golds if gold is not None]
    label_counts: Dict[str, int] = dict.fromkeys(schemes[-1].labels if schemes else (), 0)
    for gold in golds:
        key = gold.identifier if gold else "unlabeled"
        label_counts[key] = label_counts.get(key, 0) + 1
    return DatasetStats(
        claim_count=len(records),
        label_counts=label_counts,
        reports_per_claim=Extent.of([len(r.reports) for r in records]),
        sentences_per_report=Extent.of([len(rep.sentences) for r in records for rep in r.reports]),
    )
