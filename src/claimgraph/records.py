"""Claim records: the unit of work flowing through the pipeline."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .labels import VeracityLabel


@dataclass(frozen=True)
class Report:
    """One raw report attached to a claim, already split into sentences."""

    sentences: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.sentences:
            raise ValueError("report has no sentences")
        if any(not s.strip() for s in self.sentences):
            raise ValueError("report contains a blank sentence")


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    claim: str
    reports: Tuple[Report, ...]
    gold_label: Optional[VeracityLabel] = None

    def __post_init__(self) -> None:
        if not self.claim_id.strip():
            raise ValueError("claim_id must be non-empty")
        if not self.claim.strip():
            raise ValueError("claim text must be non-empty")
