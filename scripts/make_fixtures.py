#!/usr/bin/env python3
"""Build the offline test corpus: a synthetic dataset plus recorded provider
fixtures, produced by running the batch once against the scripted responder.

The output root ends up with three siblings:
  data/               manifest.json + claims.jsonl
  recorded_run/       the run directory; its cache/responses.jsonl holds one
                      JSON line per unique provider exchange
  provider_fixtures/  a copy of recorded_run/cache, replayed by the
                      "fixture" provider type

recorded_run/config.json names that fixture provider by absolute path, so
from any directory the recorded run replays with no new provider calls:

  claimgraph run --manifest OUT/data/manifest.json \
      --config OUT/recorded_run/config.json --out REPLAY_DIR
  claimgraph cost --run-dir REPLAY_DIR

The replay books each distinct reply once, as the recording did, so its
cost.json matches recorded_run's; REPLAY_DIR/cache holds the replies it used
and is itself a fixture set.
"""
import argparse
import shutil
from pathlib import Path

from claimgraph.fixtures import build_fixture_dataset
from claimgraph.gateway import ResponseCache, fixture_totals
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.ingest import load_manifest, load_records
from claimgraph.labels import scheme_by_name
from claimgraph.pipeline import PipelineConfig, run_batch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("fixtures"))
    parser.add_argument("--claims", type=int, default=10)
    parser.add_argument("--scheme", choices=["three_way", "six_way"], default="three_way")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    out = args.out.resolve()

    manifest_path = build_fixture_dataset(
        out / "data",
        claim_count=args.claims,
        scheme=scheme_by_name(args.scheme),
        seed=args.seed,
    )
    manifest = load_manifest(manifest_path)
    records, rejects = load_records(manifest)
    assert not rejects, rejects

    fixture_dir = out / "provider_fixtures"
    config = PipelineConfig(
        scheme_name=args.scheme, provider={"type": "fixture", "path": str(fixture_dir)}
    )
    result = run_batch(
        records, config, out / "recorded_run", provider=ScriptedResponder(seed=0)
    )
    shutil.copytree(result.run_dir / "cache", fixture_dir, dirs_exist_ok=True)

    totals = fixture_totals(fixture_dir)
    print(f"dataset:   {manifest_path}")
    print(f"fixtures:  {fixture_dir} ({len(ResponseCache(fixture_dir))} exchanges recorded)")
    print(f"run dir:   {result.run_dir} ({result.processed} claims)")
    print(f"tokens:    in {totals.input_tokens}  out {totals.output_tokens}")
    if result.report is not None:
        print(result.report.render_text())
    print("replay:")
    print(f"  claimgraph run --manifest {manifest_path} "
          f"--config {result.run_dir / 'config.json'} --out {out / 'replay'}")
    print(f"  claimgraph cost --run-dir {out / 'replay'}")


if __name__ == "__main__":
    main()
