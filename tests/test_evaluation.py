import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from claimgraph.errors import EvaluationError, JudgeFailureError, SchemeMismatchError
from claimgraph.evaluation import (
    ClaimOutcome,
    ConfusionMatrix,
    JudgeScores,
    discrepancy,
    evaluate_run,
    judge_explanation,
    macro_metrics,
    parse_judge_response,
)
from claimgraph.gateway import Stage
from claimgraph.labels import SIX_WAY, THREE_WAY, label_to_score, map_six_to_three

from fakes import FakeGateway


def test_worked_macro_example():
    matrix = ConfusionMatrix(THREE_WAY, ((5, 0, 0), (0, 0, 5), (0, 0, 5)))
    metrics = macro_metrics(matrix)
    assert metrics.precision == pytest.approx(0.5, abs=1e-12)
    assert metrics.recall == pytest.approx(2 / 3, abs=1e-12)
    assert metrics.mac_f1 == pytest.approx(5 / 9, abs=1e-4)


def test_macro_zero_denominators_count_as_zero():
    # Nothing predicted as "half" and no gold "half": precision, recall and
    # F1 for that class are all 0, not NaN.
    matrix = ConfusionMatrix(THREE_WAY, ((2, 0, 0), (0, 0, 0), (0, 0, 2)))
    metrics = macro_metrics(matrix)
    assert metrics.per_class_precision[1] == 0.0
    assert metrics.per_class_recall[1] == 0.0
    assert metrics.per_class_f1[1] == 0.0


def test_empty_matrix_is_an_error():
    matrix = ConfusionMatrix(THREE_WAY, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(EvaluationError):
        macro_metrics(matrix)


def test_from_pairs_checks_scheme():
    pairs = [(THREE_WAY.label("true"), SIX_WAY.label("true"))]
    with pytest.raises(SchemeMismatchError):
        ConfusionMatrix.from_pairs(THREE_WAY, pairs)


def oracle_macro(rows):
    """Independent computation: expand the matrix into pairs, use Fractions."""
    classes = range(len(rows))
    pairs = [
        (g, p) for g in classes for p in classes for _ in range(rows[g][p])
    ]
    precisions, recalls, f1s = [], [], []
    for c in classes:
        tp = sum(1 for g, p in pairs if g == c and p == c)
        fp = sum(1 for g, p in pairs if g != c and p == c)
        fn = sum(1 for g, p in pairs if g == c and p != c)
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else Fraction(0)
        )
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    k = Fraction(len(rows))
    return (
        float(sum(precisions) / k),
        float(sum(recalls) / k),
        float(sum(f1s) / k),
    )


matrix_rows = st.lists(
    st.lists(st.integers(0, 9), min_size=3, max_size=3), min_size=3, max_size=3
).filter(lambda rows: any(any(row) for row in rows))


@settings(max_examples=300)
@given(matrix_rows)
def test_macro_matches_pair_expansion_oracle(rows):
    matrix = ConfusionMatrix(THREE_WAY, tuple(tuple(r) for r in rows))
    metrics = macro_metrics(matrix)
    precision, recall, f1 = oracle_macro(rows)
    assert metrics.precision == pytest.approx(precision, abs=1e-12)
    assert metrics.recall == pytest.approx(recall, abs=1e-12)
    assert metrics.mac_f1 == pytest.approx(f1, abs=1e-12)


def test_discrepancy_exhaustive_three_way():
    for gold, pred in itertools.product(THREE_WAY.all_labels(), repeat=2):
        expected = abs(label_to_score(pred) - label_to_score(gold))
        assert discrepancy(pred, gold) == expected
    assert discrepancy(THREE_WAY.label("true"), THREE_WAY.label("false")) == 5.0
    assert discrepancy(THREE_WAY.label("half"), THREE_WAY.label("true")) == 2.5


def test_discrepancy_exhaustive_six_way():
    for gold, pred in itertools.product(SIX_WAY.all_labels(), repeat=2):
        expected = abs(label_to_score(pred) - label_to_score(gold))
        assert discrepancy(pred, gold) == expected


def test_discrepancy_rejects_cross_scheme():
    with pytest.raises(SchemeMismatchError):
        discrepancy(THREE_WAY.label("true"), SIX_WAY.label("true"))


def test_six_to_three_mapping_never_increases_discrepancy_class_count():
    # Exhaustive consistency: mapping then scoring stays within the coarse scale.
    for label in SIX_WAY.all_labels():
        mapped = map_six_to_three(label)
        assert label_to_score(mapped) in (0.0, 2.5, 5.0)


def test_parse_judge_strict_json():
    scores = parse_judge_response(
        '{"misleadingness": 2, "informativeness": 4, "soundness": 3, "readability": 5}'
    )
    assert scores == JudgeScores(2, 4, 3, 5)


def test_parse_judge_salvages_loose_text():
    text = "misleadingness: 1\ninformativeness: 3\nsoundness: 2\nreadability: 4 done"
    assert parse_judge_response(text) == JudgeScores(1, 3, 2, 4)


def test_parse_judge_rejects_bools_floats_and_gaps():
    with pytest.raises(ValueError):
        parse_judge_response(
            '{"misleadingness": true, "informativeness": 4, "soundness": 3, "readability": 5}'
        )
    with pytest.raises(ValueError):
        parse_judge_response(
            '{"misleadingness": 2.5, "informativeness": 4, "soundness": 3, "readability": 5}'
        )
    with pytest.raises(ValueError):
        parse_judge_response('{"misleadingness": 2, "informativeness": 4}')


def test_judge_scores_range_checked():
    with pytest.raises(ValueError):
        JudgeScores(0, 3, 3, 3)
    with pytest.raises(ValueError):
        JudgeScores(1, 3, 3, 6)


def test_judge_explanation_retries_then_fails():
    good = '{"misleadingness": 1, "informativeness": 5, "soundness": 4, "readability": 5}'
    gw = FakeGateway(["not usable", good])
    scores = judge_explanation(gw, "claim", THREE_WAY.label("false"), "text")
    assert scores.informativeness == 5
    assert [stage for stage, _ in gw.prompts] == [Stage.JUDGE, Stage.JUDGE]
    assert gw.prompts[0][1] != gw.prompts[1][1]

    gw = FakeGateway(["junk", "more junk"])
    with pytest.raises(JudgeFailureError):
        judge_explanation(gw, "claim", THREE_WAY.label("false"), "text")


def outcome(cid, gold, pred=None, stage=None, judge=None, judge_failed=False):
    return ClaimOutcome(
        claim_id=cid,
        gold=THREE_WAY.label(gold),
        predicted=THREE_WAY.label(pred) if pred else None,
        failure_stage=stage,
        judge=judge,
        judge_failed=judge_failed,
    )


def test_evaluate_run_mixes_successes_and_failures():
    outcomes = [
        outcome("a", "true", "true"),
        outcome("b", "false", "true"),
        outcome("c", "half", stage=Stage.CLAIM_DECOMPOSITION),
        outcome("d", "false", stage=Stage.CLAIM_DECOMPOSITION),
    ]
    report = evaluate_run(outcomes, THREE_WAY)
    assert report.claim_count == 4
    assert report.success_count == 2
    assert report.failures_by_stage == {"claim_decomposition": 2}
    # Successes: |5-5| and |5-0| -> mean 2.5. With failures charged the
    # ceiling: (0 + 5 + 5 + 5) / 4.
    assert report.mean_discrepancy == pytest.approx(2.5)
    assert report.mean_discrepancy_failures_as_max == pytest.approx(3.75)


def test_evaluate_run_all_failures_has_no_metrics():
    outcomes = [outcome("a", "true", stage=Stage.INFERENCE)]
    report = evaluate_run(outcomes, THREE_WAY)
    assert report.metrics is None
    assert report.mean_discrepancy is None
    assert report.mean_discrepancy_failures_as_max == pytest.approx(5.0)


def test_evaluate_run_judge_means():
    outcomes = [
        outcome("a", "true", "true", judge=JudgeScores(1, 5, 4, 5)),
        outcome("b", "half", "half", judge=JudgeScores(3, 3, 2, 3)),
        outcome("c", "false", "false", judge_failed=True),
    ]
    report = evaluate_run(outcomes, THREE_WAY)
    assert report.judged_count == 2
    assert report.judge_failure_count == 1
    assert report.judge_means["misleadingness"] == pytest.approx(2.0)
    assert report.judge_means["informativeness"] == pytest.approx(4.0)


def test_report_serializes_and_renders():
    report = evaluate_run([outcome("a", "true", "half")], THREE_WAY)
    payload = report.to_dict()
    assert payload["claims"] == 1
    assert payload["metrics"]["mac_f1"] is not None
    text = report.render_text()
    assert "macro precision" in text
