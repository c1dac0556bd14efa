"""Veracity metrics, explanation judging, and run-level reports.

Macro metrics use the per-class convention that an undefined precision,
recall, or F1 term (zero denominator) contributes 0 to the macro average.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import EvaluationError, JudgeFailureError, SchemeMismatchError
from .gateway import LlmGateway, Stage, TemplateId, ask, render_prompt
from .jsonform import as_json
from .labels import VeracityLabel, VeracityScheme, label_to_score, max_score
from .parsing import coerce_mapping


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are gold labels, columns are predictions."""

    scheme: VeracityScheme
    counts: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.scheme)
        if len(self.counts) != size or any(len(row) != size for row in self.counts):
            raise ValueError(f"counts must be {size}x{size}")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("counts must be non-negative")

    @classmethod
    def from_pairs(
        cls, scheme: VeracityScheme, pairs: Iterable[Tuple[VeracityLabel, VeracityLabel]]
    ) -> "ConfusionMatrix":
        size = len(scheme)
        counts = [[0] * size for _ in range(size)]
        for gold, predicted in pairs:
            if gold.scheme.name != scheme.name or predicted.scheme.name != scheme.name:
                raise SchemeMismatchError("pair does not match the matrix scheme")
            counts[gold.index][predicted.index] += 1
        return cls(scheme, tuple(tuple(row) for row in counts))

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class MacroMetrics:
    precision: float
    recall: float
    mac_f1: float
    per_class_precision: Tuple[float, ...]
    per_class_recall: Tuple[float, ...]
    per_class_f1: Tuple[float, ...]


def macro_metrics(matrix: ConfusionMatrix) -> MacroMetrics:
    if matrix.total == 0:
        raise EvaluationError("cannot score an empty confusion matrix")
    size = len(matrix.scheme)
    precisions: List[float] = []
    recalls: List[float] = []
    f1s: List[float] = []
    for cls_index in range(size):
        tp = matrix.counts[cls_index][cls_index]
        predicted = sum(matrix.counts[row][cls_index] for row in range(size))
        actual = sum(matrix.counts[cls_index])
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    return MacroMetrics(
        precision=sum(precisions) / size,
        recall=sum(recalls) / size,
        mac_f1=sum(f1s) / size,
        per_class_precision=tuple(precisions),
        per_class_recall=tuple(recalls),
        per_class_f1=tuple(f1s),
    )


def discrepancy(predicted: VeracityLabel, gold: VeracityLabel) -> float:
    """Absolute difference between the numeric scores of two same-scheme labels."""
    if predicted.scheme.name != gold.scheme.name:
        raise SchemeMismatchError("discrepancy needs labels from one scheme")
    return abs(label_to_score(predicted) - label_to_score(gold))


@dataclass(frozen=True)
class JudgeScores:
    misleadingness: int
    informativeness: int
    soundness: int
    readability: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, int) or not 1 <= value <= 5:
                raise ValueError(f"{name} must be an integer in 1..5, got {value!r}")


_JUDGE_KEYS = ("misleadingness", "informativeness", "soundness", "readability")
_JUDGE_RETRY_NOTE = "\nNote: Output integer scores from 1 to 5 for all four keys."


def parse_judge_response(text: str) -> JudgeScores:
    """Four integer scores out of a dictionary-shaped reply; ValueError if not."""
    mapping = coerce_mapping(text)
    values: Dict[str, int] = {}
    if mapping is not None:
        for key in _JUDGE_KEYS:
            if key in mapping:
                values[key] = mapping[key]
    else:
        for key in _JUDGE_KEYS:
            found = re.search(rf'"?{key}"?\s*[:=]\s*(-?\d+)', text, re.IGNORECASE)
            if found:
                values[key] = int(found.group(1))
    missing = [key for key in _JUDGE_KEYS if key not in values]
    if missing:
        raise ValueError(f"judge reply lacks keys: {missing}")
    coerced = {}
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"judge score {key} is not numeric")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"judge score {key} is not an integer")
        coerced[key] = int(value)
    return JudgeScores(**coerced)


def judge_explanation(
    gateway: LlmGateway, claim: str, gold: VeracityLabel, explanation: str
) -> JudgeScores:
    """Likert ratings for one explanation; one corrective re-ask, then failure.

    Raises JudgeFailureError when the second reply is still out of contract;
    callers count such claims as judge failures rather than aborting.
    """
    prompt = render_prompt(
        TemplateId.JUDGE,
        {"claim": claim, "gold_label": gold.identifier, "explanation": explanation},
    )
    scores, rejected = ask(gateway, prompt, Stage.JUDGE, (_JUDGE_RETRY_NOTE,), parse_judge_response)
    if scores is None:
        exc = rejected[-1]
        raise JudgeFailureError(f"judge reply unusable after re-ask: {exc}") from exc
    return scores


@dataclass(frozen=True)
class ClaimOutcome:
    """What evaluation needs to know about one processed claim."""

    claim_id: str
    gold: VeracityLabel
    predicted: Optional[VeracityLabel] = None
    failure_stage: Optional[Stage] = None  # a failed claim without one counts as "unknown"
    judge: Optional[JudgeScores] = None
    judge_failed: bool = False


@dataclass(frozen=True)
class EvaluationReport:
    """A run's figures; ``to_dict`` is ``report.json``. ``failures_by_stage`` is sorted by stage."""

    scheme_name: str = field(metadata={"json": "scheme"})
    claim_count: int = field(metadata={"json": "claims"})
    success_count: int = field(metadata={"json": "successes"})
    failure_count: int = field(metadata={"json": "failures"})
    failures_by_stage: Dict[str, int]
    metrics: Optional[MacroMetrics]
    mean_discrepancy: Optional[float]
    mean_discrepancy_failures_as_max: Optional[float]
    judge_means: Optional[Dict[str, float]]
    judged_count: int = field(default=0, metadata={"json": "judged"})
    judge_failure_count: int = field(default=0, metadata={"json": "judge_failures"})

    def to_dict(self) -> dict:
        return as_json(self)

    def render_text(self) -> str:
        lines = [
            f"claims evaluated: {self.claim_count} "
            f"({self.success_count} predicted, {self.failure_count} failed)"
        ]
        if self.metrics:
            lines.append(
                f"macro precision {self.metrics.precision:.4f}  "
                f"recall {self.metrics.recall:.4f}  macF1 {self.metrics.mac_f1:.4f}"
            )
        if self.mean_discrepancy is not None:
            lines.append(f"mean discrepancy (successes): {self.mean_discrepancy:.4f}")
        if self.mean_discrepancy_failures_as_max is not None:
            lines.append(
                "mean discrepancy (failures as max): "
                f"{self.mean_discrepancy_failures_as_max:.4f}"
            )
        for stage, count in self.failures_by_stage.items():
            lines.append(f"failures at {stage}: {count}")
        if self.judge_means:
            parts = "  ".join(f"{k[0].upper()} {v:.2f}" for k, v in self.judge_means.items())
            lines.append(
                f"judge means over {self.judged_count} claims "
                f"({self.judge_failure_count} judge failures): {parts}"
            )
        return "\n".join(lines)


def evaluate_run(outcomes: Sequence[ClaimOutcome], scheme: VeracityScheme) -> EvaluationReport:
    """Aggregate per-claim outcomes into one report.

    Claims without a prediction stay out of the confusion matrix and the
    successes-only discrepancy; a second discrepancy figure charges each
    failure the scheme's maximum score. Order of outcomes is irrelevant.
    """
    successes = [o for o in outcomes if o.predicted is not None]
    failures = [o for o in outcomes if o.predicted is None]
    failures_by_stage: Dict[str, int] = {}
    for outcome in failures:
        stage = outcome.failure_stage or "unknown"
        failures_by_stage[stage] = failures_by_stage.get(stage, 0) + 1
    metrics = None
    mean_disc = None
    mean_disc_max = None
    if successes:
        matrix = ConfusionMatrix.from_pairs(
            scheme, [(o.gold, o.predicted) for o in successes]
        )
        metrics = macro_metrics(matrix)
        discs = [discrepancy(o.predicted, o.gold) for o in successes]
        mean_disc = sum(discs) / len(discs)
    if outcomes:
        ceiling = max_score(scheme)
        charged = [
            discrepancy(o.predicted, o.gold) if o.predicted is not None else ceiling
            for o in outcomes
        ]
        mean_disc_max = sum(charged) / len(charged)
    judged = [o.judge for o in outcomes if o.judge is not None]
    judge_means = None
    if judged:
        judge_means = {
            key: sum(getattr(scores, key) for scores in judged) / len(judged)
            for key in _JUDGE_KEYS
        }
    return EvaluationReport(
        scheme_name=scheme.name,
        claim_count=len(outcomes),
        success_count=len(successes),
        failure_count=len(failures),
        failures_by_stage=dict(sorted(failures_by_stage.items())),
        metrics=metrics,
        mean_discrepancy=mean_disc,
        mean_discrepancy_failures_as_max=mean_disc_max,
        judge_means=judge_means,
        judged_count=len(judged),
        judge_failure_count=sum(1 for o in outcomes if o.judge_failed),
    )
