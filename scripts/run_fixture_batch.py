#!/usr/bin/env python3
"""Run a dataset end to end offline and print the evaluation and cost reports.

With --fixtures the provider replays recorded exchanges (zero new tokens are
fabricated); without it the deterministic scripted responder answers live.
"""
import argparse
from pathlib import Path

from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, cost_report, run_batch


def _count(text: str) -> int:
    """A --limit value: a whole number of claims, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--fixtures", type=Path, default=None)
    parser.add_argument("--ablation", action="append", default=[])
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--limit", type=_count, default=None)
    args = parser.parse_args()

    manifest = load_manifest(args.manifest)
    records, rejects = load_records(manifest)
    if rejects:
        print(f"skipping {len(rejects)} rejected records")
    if args.limit is not None:
        records = records[: args.limit]

    provider = {"type": "scripted"}
    if args.fixtures is not None:
        provider = {"type": "fixture", "path": str(args.fixtures)}
    config = PipelineConfig(
        scheme_name=manifest.scheme.name,
        k=args.k,
        ablations=tuple(args.ablation),
        provider=provider,
    )

    result = run_batch(records, config, args.out)
    print(f"processed {result.processed}, skipped {result.skipped}")
    if result.report is not None:
        print()
        print(result.report.render_text())
    print()
    print(cost_report(args.out, config).render_text())


if __name__ == "__main__":
    main()
