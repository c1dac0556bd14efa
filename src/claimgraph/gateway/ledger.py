"""Per-stage token accounting and spend estimation."""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_EVEN
from enum import Enum
from typing import Dict, Union


class Stage(str, Enum):
    """Accounting buckets for provider traffic."""

    CLAIM_DECOMPOSITION = "claim_decomposition"
    EDGE_GENERATION = "edge_generation"
    EXPLANATION_GENERATION = "explanation_generation"
    FINAL_EXPLANATION_GENERATION = "final_explanation_generation"
    INFERENCE = "inference"
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


@dataclass(frozen=True)
class StageTotals:
    usage: TokenUsage = TokenUsage()
    calls: int = 0


class TokenLedger:
    """Thread-safe cumulative usage per stage.

    Only real provider traffic should be recorded here; cache hits cost
    nothing and must not be recorded.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: Dict[Stage, StageTotals] = {}

    def record(self, stage: Stage, usage: TokenUsage) -> None:
        stage = Stage(stage)
        with self._lock:
            current = self._totals.get(stage, StageTotals())
            self._totals[stage] = StageTotals(current.usage + usage, current.calls + 1)

    def stage_totals(self, stage: Stage) -> StageTotals:
        with self._lock:
            return self._totals.get(Stage(stage), StageTotals())

    def snapshot(self) -> Dict[Stage, StageTotals]:
        with self._lock:
            return dict(self._totals)

    @property
    def total_usage(self) -> TokenUsage:
        with self._lock:
            total = TokenUsage()
            for entry in self._totals.values():
                total = total + entry.usage
            return total

    @property
    def total_calls(self) -> int:
        with self._lock:
            return sum(entry.calls for entry in self._totals.values())


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

    def cost(self, usage: TokenUsage) -> StageCost:
        """Price one bucket's tokens, each side rounded to micro-dollars."""
        return StageCost(
            input_cost=_price(usage.input_tokens, self.input_per_million),
            output_cost=_price(usage.output_tokens, self.output_per_million),
        )


@dataclass(frozen=True)
class StageCost:
    input_cost: Decimal
    output_cost: Decimal

    @property
    def total(self) -> Decimal:
        return self.input_cost + self.output_cost


@dataclass(frozen=True)
class CostBreakdown:
    per_stage: Dict[Stage, StageCost] = field(default_factory=dict)

    @property
    def input_cost(self) -> Decimal:
        return sum((c.input_cost for c in self.per_stage.values()), Decimal(0))

    @property
    def output_cost(self) -> Decimal:
        return sum((c.output_cost for c in self.per_stage.values()), Decimal(0))

    @property
    def total(self) -> Decimal:
        return self.input_cost + self.output_cost


def _price(tokens: int, per_million: Decimal) -> Decimal:
    # Exact rational value, then bankers-rounded to micro-dollars.
    return (Decimal(tokens) * per_million / _MILLION).quantize(
        _CENT_MICRO, rounding=ROUND_HALF_EVEN
    )


def estimate_cost(ledger: TokenLedger, pricing: Pricing = Pricing()) -> CostBreakdown:
    snapshot = sorted(ledger.snapshot().items(), key=lambda kv: kv[0].value)
    return CostBreakdown({stage: pricing.cost(totals.usage) for stage, totals in snapshot})
