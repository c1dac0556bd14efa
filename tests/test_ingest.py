import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from claimgraph.errors import DatasetError, UnparseableLabelError
from claimgraph.ingest import (
    DatasetManifest,
    RejectedRecord,
    dataset_stats,
    load_manifest,
    load_records,
    parse_claim_record,
    write_reject_log,
)
from claimgraph.labels import SIX_WAY, THREE_WAY, VeracityLabel
from claimgraph.records import ClaimRecord, Report
from test_text_path import reference_split


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


def test_a_line_nested_too_deep_is_rejected_alone(tmp_path):
    # json.loads raises RecursionError, not ValueError, on this line.
    deep = "[" * 100_000 + "]" * 100_000
    path = write_dataset(tmp_path, [GOOD_ROW, deep, dict(GOOD_ROW, id="c3")])
    records, rejects = load_records(load_manifest(path))
    assert [r.claim_id for r in records] == ["c1", "c3"]
    assert [r.claim_id for r in rejects] == ["line-2"]
    assert rejects[0].reason.startswith("invalid JSON: maximum recursion depth exceeded")


def test_load_records_skips_blank_lines(tmp_path):
    path = write_dataset(tmp_path, [GOOD_ROW, "", "   "])
    records, rejects = load_records(load_manifest(path))
    assert len(records) == 1 and not rejects


@pytest.mark.parametrize("mark", ["\u2028", "\u2029", "\x85"])
def test_a_line_break_a_json_string_holds_raw_does_not_split_its_line(tmp_path, mark):
    # str.splitlines breaks at these; a JSON string written with ensure_ascii=False holds them raw.
    claim = f"The dam was{mark}finished in 2015."
    path = write_dataset(tmp_path, [json.dumps(dict(GOOD_ROW, claim=claim), ensure_ascii=False)])
    assert mark in (tmp_path / "claims.jsonl").read_text(encoding="utf-8")
    records, rejects = load_records(load_manifest(path))
    assert [r.claim for r in records] == [claim] and rejects == []


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


# --- the loader against a frozen copy of its original form --------------------
#
# Kept unchanged on purpose, like test_text_path.reference_split (which it
# splits content reports with): every record, sentence and reject reason of
# load_records must equal what this gives. Do not optimise it.


def reference_label(scheme, identifier):
    ident = identifier.strip().lower()
    ident = dict(scheme.aliases).get(ident, ident)
    try:
        return VeracityLabel(scheme, scheme.labels.index(ident))
    except ValueError:
        raise UnparseableLabelError(
            f"{identifier!r} is not a label of scheme {scheme.name}"
        ) from None


def reference_parse_report(raw):
    if isinstance(raw, dict) and isinstance(raw.get("content"), str):
        return tuple(reference_split(raw["content"]))
    if isinstance(raw, dict) and isinstance(raw.get("sentences"), list):
        sentences = raw["sentences"]
        if any(not isinstance(s, str) or not s.strip() for s in sentences):
            return ()
        return tuple(s.strip() for s in sentences)
    return ()


def reference_report(sentences):
    if not sentences:
        raise ValueError("report has no sentences")
    if any(not s.strip() for s in sentences):
        raise ValueError("report contains a blank sentence")
    return Report(sentences)


def reference_claim_record(claim_id, claim, reports, gold):
    if not claim_id.strip():
        raise ValueError("claim_id must be non-empty")
    if not claim.strip():
        raise ValueError("claim text must be non-empty")
    return ClaimRecord(claim_id, claim, reports, gold)


def reference_parse_claim_record(payload, scheme, allow_empty_reports):
    claim_id = str(payload.get("id", "")).strip()
    if not claim_id:
        raise DatasetError("missing id")
    claim = payload.get("claim")
    if not isinstance(claim, str) or not claim.strip():
        raise DatasetError("missing or empty claim text")
    gold = None
    if payload.get("label") is not None:
        try:
            gold = reference_label(scheme, str(payload["label"]))
        except UnparseableLabelError as exc:
            raise DatasetError(str(exc)) from None
    raw_reports = payload.get("reports", [])
    if not isinstance(raw_reports, list):
        raise DatasetError("reports must be a list")
    reports = []
    for position, raw in enumerate(raw_reports):
        sentences = reference_parse_report(raw)
        if not sentences:
            raise DatasetError(f"report {position} is empty or malformed")
        reports.append(reference_report(sentences))
    if not reports and not allow_empty_reports:
        raise DatasetError("record has no reports")
    return reference_claim_record(claim_id, claim.strip(), tuple(reports), gold)


def reference_load_records(manifest, allow_empty_reports):
    records, rejects, seen_ids = [], [], set()
    lines = manifest.claims_path.read_text(encoding="utf-8").split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fallback_id = f"line-{line_no}"
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise DatasetError("line is not an object")
            record = reference_parse_claim_record(payload, manifest.scheme, allow_empty_reports)
        except DatasetError as exc:
            claim_id = str(payload.get("id", fallback_id)) if isinstance(payload, dict) else fallback_id
            rejects.append(RejectedRecord(claim_id or fallback_id, str(exc)))
            continue
        except ValueError as exc:
            rejects.append(RejectedRecord(fallback_id, f"invalid JSON: {exc}"))
            continue
        if record.claim_id in seen_ids:
            rejects.append(RejectedRecord(record.claim_id, "duplicate id"))
            continue
        seen_ids.add(record.claim_id)
        records.append(record)
    return records, rejects


ODD_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.just([]), st.just({}))
GOOD_SENTENCE = st.sampled_from(["One.", "  Two.  ", "U.S.", "\x85x\x85", "Ask Mr. Lee"])
SENTENCE = st.one_of(GOOD_SENTENCE, st.sampled_from(["", "   ", "\u3000"]), ODD_VALUES)
CONTENT = st.text(alphabet="aU.S!?Mr \n\t\u00a0\x85\u2028", min_size=1, max_size=30)
REPORT = st.one_of(
    st.builds(dict, content=CONTENT),
    st.builds(dict, sentences=st.lists(GOOD_SENTENCE, min_size=1, max_size=4)),
    st.builds(dict, sentences=st.lists(SENTENCE, max_size=3)),
    st.fixed_dictionaries({}, optional={"content": ODD_VALUES, "sentences": st.lists(SENTENCE, max_size=2)}),
    ODD_VALUES,
)
LABEL = st.one_of(
    st.sampled_from(["true", "half", "half-true", " HALF-TRUE ", "False", "pants-fire", "probably"]),
    ODD_VALUES,
)
# A well-formed record, then at most one field replaced by something else or removed.
RECORD = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["c1", "c2", "c3", " c1 "]),
        "claim": st.sampled_from(["A claim.", " A claim. "]),
        "reports": st.lists(REPORT, min_size=1, max_size=3),
    },
    optional={"label": LABEL},
)
MUTATION = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["id", "claim", "label", "reports"]),
        st.one_of(ODD_VALUES, st.sampled_from(["", "  ", "nope", "x1", None])),
        st.booleans(),
    ),
)


def mutated(record, mutation):
    if mutation is not None:
        key, value, remove = mutation
        record = {k: v for k, v in record.items() if k != key}
        if not remove:
            record[key] = value
    return record


LINES = st.lists(
    st.one_of(
        st.builds(json.dumps, st.builds(mutated, RECORD, MUTATION), ensure_ascii=st.booleans()),
        st.sampled_from(["", "   ", "\t", "{not json", "[1, 2]", '"text"', "3", "null"]),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(LINES, st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from([THREE_WAY, SIX_WAY]), st.booleans())
def test_the_loader_matches_its_frozen_reference(lines, newline, scheme, allow_empty_reports):
    with tempfile.TemporaryDirectory() as root:
        claims = Path(root) / "claims.jsonl"
        claims.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        manifest = DatasetManifest("t", scheme, "test", claims)
        assert load_records(manifest, allow_empty_reports) == reference_load_records(
            manifest, allow_empty_reports
        )
