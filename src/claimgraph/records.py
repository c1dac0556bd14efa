"""Claim records: the unit of work flowing through the pipeline.

``claimgraph.ingest`` builds them and checks each rule they keep, once."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .labels import VeracityLabel


@dataclass(frozen=True)
class Report:
    """One raw report attached to a claim, already split into sentences."""

    sentences: Tuple[str, ...]


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    claim: str
    reports: Tuple[Report, ...]
    gold_label: Optional[VeracityLabel] = None
