"""Deterministic synthetic datasets for offline runs and tests.

The generated claims and reports are nonsense, but structurally faithful:
multi-sentence reports, abbreviation traps for the sentence splitter, shared
vocabulary between claims and their reports so retrieval has signal, and a
label distribution covering the whole scheme.
"""
from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List, Union

from .ingest import dataset_stats, load_manifest, load_records
from .jsonform import write_json, write_text
from .labels import THREE_WAY, VeracityScheme

_TOPICS = [
    ("the city council", "cut the transit budget by 40 percent"),
    ("a regional hospital", "turned away patients during the strike"),
    ("the energy ministry", "approved the offshore wind farm without review"),
    ("a textbook publisher", "removed the climate chapter from new editions"),
    ("the election board", "counted mail ballots twice in three counties"),
    ("a vaccine factory", "shipped doses stored above the required temperature"),
    ("the port authority", "hid inspection failures at the container terminal"),
    ("a chain of pharmacies", "billed insurers for prescriptions never filled"),
    ("the water utility", "knew about the lead readings for two years"),
    ("a charter airline", "flew routes with uncertified maintenance crews"),
    ("the fisheries agency", "ignored quota violations by the largest fleet"),
    ("a university lab", "reused control data across unrelated studies"),
]

_FILLER = [
    "Officials declined to comment on the timeline.",
    "Records obtained this week tell a more complicated story.",
    "An internal memo circulated before the announcement.",
    "The figure comes from a preliminary tally.",
    "Residents first raised the issue at a public meeting.",
    "An audit is expected by the end of the quarter.",
    "The agency disputes how the numbers were aggregated.",
    "Two former employees described the practice on condition of anonymity.",
]

_ABBREV_SENTENCES = [
    "Dr. Alvarez reviewed the documents for the U.S. office.",
    "The filing cites Sec. 12 of the charter, according to Mr. Okafor.",
    "Inspectors from the E.U. visited the site on Jan. 14.",
    "A spokesperson for the firm, Ms. Tran, confirmed the dates.",
]


def _report_sentences(rng: random.Random, subject: str, predicate: str) -> List[str]:
    words = predicate.split()
    fragment = " ".join(words[: max(3, len(words) // 2)])
    sentences = [
        f"Sources said {subject} {predicate}.",
        f"A review found no record that {subject} {fragment} as described.",
    ]
    sentences.append(rng.choice(_ABBREV_SENTENCES))
    for _ in range(rng.randint(1, 4)):
        sentences.append(rng.choice(_FILLER))
    rng.shuffle(sentences)
    return sentences


def build_fixture_dataset(
    out_dir: Union[str, Path],
    claim_count: int = 10,
    scheme: VeracityScheme = THREE_WAY,
    seed: int = 7,
) -> Path:
    """Write claims.jsonl plus a manifest and return the manifest path.

    The manifest's expected_stats block is computed by loading the file back
    through the normal ingest path, so a stats mismatch later means the
    loader or splitter changed behaviour, not that the fixture is stale.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    labels = list(scheme.labels)
    rows = []
    for i in range(claim_count):
        subject, predicate = _TOPICS[i % len(_TOPICS)]
        claim = f"Claim {i}: {subject} {predicate}."
        reports = []
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                reports.append(
                    {"content": " ".join(_report_sentences(rng, subject, predicate))}
                )
            else:
                reports.append(
                    {"sentences": _report_sentences(rng, subject, predicate)}
                )
        rows.append(
            {
                "id": f"fx-{i:03d}",
                "claim": claim,
                "label": labels[i % len(labels)],
                "reports": reports,
            }
        )
    claims_path = out_dir / "claims.jsonl"
    write_text(claims_path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))

    manifest_path = out_dir / "manifest.json"
    manifest = {
        "name": f"fixture-{scheme.name}-{claim_count}",
        "scheme": scheme.name,
        "split": "test",
        "claims": claims_path.name,
    }
    write_json(manifest_path, manifest, indent=2)
    loaded, rejects = load_records(load_manifest(manifest_path))
    if rejects:
        raise AssertionError(f"fixture generator produced rejects: {rejects}")
    manifest["expected_stats"] = dataset_stats(loaded).to_dict()
    write_json(manifest_path, manifest, indent=2)
    return manifest_path
