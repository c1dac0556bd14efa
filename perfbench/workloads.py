"""Seeded inputs for the benchmark's workloads.

Every workload starts from ``claimgraph.fixtures.build_fixture_dataset`` with
the benchmark's seed and is written back out as a manifest plus
``claims.jsonl``, so set-up goes through ``claimgraph.ingest`` exactly as
``claimgraph run`` does. The program only ever sees the generated files.

Run as a script to write one workload's dataset::

    python3 perfbench/workloads.py --workload long_reports --seed 3 --out DIR --src src
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

CLAIMS = 200
# Sentences added to each claim's corpus for long_reports, as reports of
# REPORT_SENTENCES sentences each; with the fixture's own 8-28 sentences a
# corpus ends up at about 500.
ADDED_SENTENCES = 480
REPORT_SENTENCES = 8

_VOCABULARY = (
    "officials report figures agency budget review council records audit "
    "statement residents spokesperson investigation documents meeting data "
    "program contract inspection schedule funding evidence county regulators "
    "analysis response policy staff committee hearing survey estimate press "
    "timeline source account complaint draft office filing vote memo"
).split()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its inputs are built and how they are run."""

    name: str
    claims: int  # distinct fixture claims
    widen: bool  # add ADDED_SENTENCES seeded sentences per claim
    repeats: int  # the first `repeats` claims are submitted again after all claims
    latency: bool  # simulated provider latency instead of zero latency
    workers: int  # claim_concurrency; the reference machine has 2 cores

    @property
    def submitted(self) -> int:
        return self.claims + self.repeats


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture_cpu", CLAIMS, widen=False, repeats=0, latency=False, workers=1),
        Workload("long_reports", CLAIMS, widen=True, repeats=0, latency=False, workers=1),
        Workload("provider_bound", CLAIMS, widen=False, repeats=0, latency=True, workers=2),
        # A second copy runs 134 claims after its first: two copies running
        # side by side write the same cache key at once, which aborts
        # run_batch while ResponseCache.put uses a fixed `<key>.json.tmp`
        # name. With one third of the claims repeated, the median claim is an
        # uncached one, not one on the edge between cached and uncached.
        Workload("repeated_claims", 134, widen=False, repeats=67, latency=True, workers=2),
    )
}


def _sentence(rng: random.Random, claim_words: List[str]) -> str:
    words = [
        rng.choice(claim_words) if rng.random() < 0.4 else rng.choice(_VOCABULARY)
        for _ in range(rng.randint(6, 14))
    ]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _widen(row: dict, rng: random.Random) -> dict:
    claim_words = [
        w.strip(".:,").lower() for w in row["claim"].split()[2:] if len(w.strip(".:,")) > 2
    ]
    added = [
        {
            "content": " ".join(
                _sentence(rng, claim_words) for _ in range(REPORT_SENTENCES)
            )
        }
        for _ in range(ADDED_SENTENCES // REPORT_SENTENCES)
    ]
    return dict(row, reports=row["reports"] + added)


def generate(name: str, seed: int, out_dir: Path) -> Path:
    """Write workload ``name``'s dataset under ``out_dir``; return the manifest path."""
    from claimgraph.fixtures import build_fixture_dataset

    workload = WORKLOADS[name]
    manifest_path = build_fixture_dataset(out_dir, claim_count=workload.claims, seed=seed)
    claims_path = out_dir / "claims.jsonl"
    rows = [json.loads(line) for line in claims_path.read_text(encoding="utf-8").splitlines()]
    if workload.widen:
        rng = random.Random(seed)
        rows = [_widen(row, rng) for row in rows]
    rows += [dict(row, id=row["id"] + "-again") for row in rows[: workload.repeats]]
    claims_path.write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
    )
    # The fixture's expected_stats describe the file before widening and repeats.
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest.pop("expected_stats", None)
    manifest["name"] = f"perfbench-{name}-{seed}"
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest_path


def main() -> None:
    parser = argparse.ArgumentParser(description="Write one workload's dataset.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True, help="the claimgraph source root")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    print(generate(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
