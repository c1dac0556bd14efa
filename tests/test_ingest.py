import json

import pytest

from claimgraph.errors import DatasetError
from claimgraph.ingest import (
    dataset_stats,
    load_manifest,
    load_records,
    parse_claim_record,
    write_reject_log,
)
from claimgraph.labels import SIX_WAY, THREE_WAY
from claimgraph.records import ClaimRecord, Report


def write_dataset(tmp_path, lines, scheme="three_way", split="test", extra=None):
    claims = tmp_path / "claims.jsonl"
    claims.write_text(
        "\n".join(json.dumps(line) if isinstance(line, dict) else line for line in lines)
        + "\n",
        encoding="utf-8",
    )
    manifest = {"name": "t", "scheme": scheme, "split": split, "claims": "claims.jsonl"}
    manifest.update(extra or {})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


GOOD_ROW = {
    "id": "c1",
    "claim": "The dam was finished in 2015.",
    "label": "true",
    "reports": [{"content": "Work ended in 2015. Opening followed."}],
}


def test_manifest_round_trip(tmp_path):
    path = write_dataset(tmp_path, [GOOD_ROW])
    manifest = load_manifest(path)
    assert manifest.name == "t"
    assert manifest.scheme is THREE_WAY
    assert manifest.claims_path == tmp_path / "claims.jsonl"
    assert manifest.expected_stats is None


def test_manifest_rejects_bad_split(tmp_path):
    path = write_dataset(tmp_path, [GOOD_ROW], split="dev")
    with pytest.raises(DatasetError):
        load_manifest(path)


def test_manifest_rejects_missing_keys_and_bad_scheme(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"name": "t"}', encoding="utf-8")
    with pytest.raises(DatasetError):
        load_manifest(path)
    path.write_text(
        '{"name": "t", "scheme": "nine_way", "split": "test", "claims": "x.jsonl"}',
        encoding="utf-8",
    )
    with pytest.raises(DatasetError):
        load_manifest(path)


def test_manifest_unreadable_file(tmp_path):
    with pytest.raises(DatasetError):
        load_manifest(tmp_path / "nope.json")


@pytest.mark.parametrize("fault", ["missing", "not_utf8"])
def test_an_unreadable_claims_file_names_it(tmp_path, fault):
    manifest = load_manifest(write_dataset(tmp_path, [GOOD_ROW]))
    if fault == "missing":
        manifest.claims_path.unlink()
    else:
        manifest.claims_path.write_bytes(b'{"id": "c1", "claim": "\xff"}\n')
    with pytest.raises(DatasetError, match="^unreadable claims file .*claims.jsonl: "):
        load_records(manifest)


def test_content_reports_are_sentence_split():
    record = parse_claim_record(GOOD_ROW, THREE_WAY)
    assert record.reports[0].sentences == ("Work ended in 2015.", "Opening followed.")


def test_sentence_reports_pass_through_stripped():
    row = dict(GOOD_ROW, reports=[{"sentences": ["  One.  ", "Two."]}])
    record = parse_claim_record(row, THREE_WAY)
    assert record.reports[0].sentences == ("One.", "Two.")


def test_unlabeled_record_is_allowed():
    row = dict(GOOD_ROW)
    del row["label"]
    record = parse_claim_record(row, THREE_WAY)
    assert record.gold_label is None


@pytest.mark.parametrize(
    "mutation, reason_fragment",
    [
        ({"id": "  "}, "missing id"),
        ({"claim": ""}, "empty claim"),
        ({"claim": 3}, "empty claim"),
        ({"label": "probably"}, "probably"),
        ({"reports": "nope"}, "must be a list"),
        ({"reports": [{"content": ""}]}, "report 0"),
        ({"reports": [{"sentences": ["ok", "  "]}]}, "report 0"),
        ({"reports": []}, "no reports"),
    ],
)
def test_strict_rejects(mutation, reason_fragment):
    row = dict(GOOD_ROW, **mutation)
    with pytest.raises(DatasetError, match=reason_fragment):
        parse_claim_record(row, THREE_WAY)


def test_allow_empty_reports_waives_only_that_check():
    row = dict(GOOD_ROW, reports=[])
    record = parse_claim_record(row, THREE_WAY, allow_empty_reports=True)
    assert record.reports == ()
    with pytest.raises(DatasetError):
        parse_claim_record(dict(row, claim=""), THREE_WAY, allow_empty_reports=True)


def test_load_records_routes_bad_lines_to_rejects(tmp_path):
    rows = [
        GOOD_ROW,
        dict(GOOD_ROW, id="c2", label="nonsense"),
        "{not json",
        dict(GOOD_ROW),  # duplicate id c1
        dict(GOOD_ROW, id="c3"),
    ]
    path = write_dataset(tmp_path, rows)
    records, rejects = load_records(load_manifest(path))
    assert [r.claim_id for r in records] == ["c1", "c3"]
    assert [r.claim_id for r in rejects] == ["c2", "line-3", "c1"]
    assert rejects[1].reason.startswith("invalid JSON")
    assert rejects[2].reason == "duplicate id"


def test_load_records_skips_blank_lines(tmp_path):
    path = write_dataset(tmp_path, [GOOD_ROW, "", "   "])
    records, rejects = load_records(load_manifest(path))
    assert len(records) == 1 and not rejects


def test_reject_log_is_one_json_object_per_line(tmp_path):
    rows = [GOOD_ROW, dict(GOOD_ROW, id="bad", claim="")]
    _, rejects = load_records(load_manifest(write_dataset(tmp_path, rows)))
    log = tmp_path / "rejects.jsonl"
    write_reject_log(log, rejects)
    lines = log.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"id": "bad", "reason": "missing or empty claim text"}


def test_reject_log_empty_writes_empty_file(tmp_path):
    log = tmp_path / "rejects.jsonl"
    write_reject_log(log, [])
    assert log.read_text(encoding="utf-8") == ""


def make_record(cid, label, report_sentence_counts):
    reports = tuple(
        Report(tuple(f"Sentence {i}." for i in range(count)))
        for count in report_sentence_counts
    )
    gold = THREE_WAY.label(label) if label else None
    return ClaimRecord(cid, f"Claim {cid}.", reports, gold)


def test_dataset_stats_seeds_all_scheme_labels():
    records = [make_record("a", "true", [2]), make_record("b", "true", [3, 1])]
    stats = dataset_stats(records)
    assert stats.label_counts == {"false": 0, "half": 0, "true": 2}
    assert stats.reports_per_claim.min == 1 and stats.reports_per_claim.max == 2
    assert stats.reports_per_claim.avg == pytest.approx(1.5)
    assert stats.sentences_per_report.min == 1 and stats.sentences_per_report.max == 3
    assert stats.sentences_per_report.avg == pytest.approx(2.0)


def test_dataset_stats_unlabeled_bucket():
    records = [make_record("a", "false", [1]), make_record("b", None, [1])]
    stats = dataset_stats(records)
    assert stats.label_counts["unlabeled"] == 1
    assert stats.label_counts["false"] == 1


def test_dataset_stats_empty():
    stats = dataset_stats([])
    assert stats.claim_count == 0
    assert stats.to_dict()["label_counts"] == {}


def test_fixture_manifest_reproduces_expected_stats(workspace):
    records, rejects = load_records(workspace.manifest)
    assert not rejects
    assert dataset_stats(records).to_dict() == workspace.manifest.expected_stats


def test_six_way_manifest_loads(tmp_path):
    row = dict(GOOD_ROW, label="mostly-true")
    path = write_dataset(tmp_path, [row], scheme="six_way")
    records, rejects = load_records(load_manifest(path))
    assert not rejects
    assert records[0].gold_label.scheme is SIX_WAY
