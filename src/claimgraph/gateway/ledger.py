"""Per-stage token accounting and spend estimation."""
from __future__ import annotations

import threading
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN
from enum import Enum
from typing import Dict, Iterable, Mapping, TypedDict, Union


class Stage(str, Enum):
    """The one vocabulary of pipeline stages, in the order they run.

    Run records' durations (their traces read off them), usage and failures,
    and the latency model's terms, all key by them; a member's JSON form and
    text are its value, as for ``enum.StrEnum``. ``JUDGE`` is evaluation's call.
    """

    __str__, __format__ = str.__str__, str.__format__

    CLAIM_DECOMPOSITION = "claim_decomposition"
    EDGE_GENERATION = "edge_generation"
    HYPEREDGE_GENERATION = "hyperedge_generation"
    EVIDENCE_RETRIEVAL = "evidence_retrieval"
    EXPLANATION_GENERATION = "explanation_generation"
    BACKGROUND_GENERATION = "background_generation"
    INFERENCE = "inference"
    FINAL_EXPLANATION_GENERATION = "final_explanation_generation"
    JUDGE = "judge"


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int = 0
    output_tokens: int = 0

    def __post_init__(self) -> None:
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be non-negative")

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.input_tokens + other.input_tokens,
            self.output_tokens + other.output_tokens,
        )


class StageUsage(TypedDict):
    """One stage's provider usage, as run records and ``cost.json`` store it."""

    input_tokens: int
    output_tokens: int
    calls: int


class TokenLedger:
    """Thread-safe usage per stage, as a ``StageUsage`` entry per ``Stage``.

    The totals are kept in the form run records and ``cost.json`` store them.
    Only provider calls are booked; a cache hit costs nothing and is not.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: Dict[Stage, StageUsage] = {}

    def record(self, stage: Stage, usage: TokenUsage) -> None:
        """Book one provider call."""
        entry = StageUsage(input_tokens=usage.input_tokens, output_tokens=usage.output_tokens, calls=1)
        self.add({stage: entry})

    def add(self, totals: Mapping[Stage, StageUsage]) -> None:
        """Book totals already in the stored form, such as a record's ``stage_usage``."""
        with self._lock:
            for stage, entry in totals.items():
                bucket = self._totals.setdefault(
                    stage, StageUsage(input_tokens=0, output_tokens=0, calls=0)
                )
                for key in bucket:
                    bucket[key] += entry[key]

    def totals(self) -> Dict[Stage, StageUsage]:
        """A copy of the totals, sorted by stage."""
        with self._lock:
            return {stage: StageUsage(self._totals[stage]) for stage in sorted(self._totals)}


_MILLION = Decimal(1_000_000)
_CENT_MICRO = Decimal("0.000001")


def _as_decimal(value: Union[str, float, int, Decimal]) -> Decimal:
    return value if isinstance(value, Decimal) else Decimal(str(value))


@dataclass(frozen=True)
class Pricing:
    """USD per one million tokens. Defaults follow common API list prices."""

    input_per_million: Decimal = Decimal("0.50")
    output_per_million: Decimal = Decimal("1.50")

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_per_million", _as_decimal(self.input_per_million))
        object.__setattr__(self, "output_per_million", _as_decimal(self.output_per_million))

    def price(self, totals: Mapping[Stage, StageUsage]) -> StageCost:
        """Price ``TokenLedger.totals()``: each stage's two sides are rounded to
        micro-dollars, then summed."""
        entries = totals.values()
        return StageCost(
            input_cost=_price((e["input_tokens"] for e in entries), self.input_per_million),
            output_cost=_price((e["output_tokens"] for e in entries), self.output_per_million),
        )


@dataclass(frozen=True)
class StageCost:
    input_cost: Decimal
    output_cost: Decimal

    @property
    def total(self) -> Decimal:
        return self.input_cost + self.output_cost


def _price(counts: Iterable[int], per_million: Decimal) -> Decimal:
    # Each count's exact rational value, bankers-rounded to micro-dollars, then summed.
    exact = (Decimal(tokens) * per_million / _MILLION for tokens in counts)
    return sum((value.quantize(_CENT_MICRO, rounding=ROUND_HALF_EVEN) for value in exact), Decimal(0))
