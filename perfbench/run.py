"""The claimgraph batch benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fixture_cpu --seed 1 --seconds 20 --trace 0

Builds the workload's dataset from the seed (``workloads.py``), loads it
through ``claimgraph.ingest`` several times to time set-up, then calls
``claimgraph.pipeline.run_batch`` on a fresh run directory again and again
for ``--seconds``. The load is a closed loop: ``run_batch`` starts a claim on
each of its ``claim_concurrency`` workers only when that worker's previous
claim has returned.

``--trace 0`` reports the end-to-end metrics of untraced batches. ``--trace
1`` spends half the time on untraced batches and half on traced ones, and
reports the per-layer metrics derived from the traced batches' spans. Every
batch's outputs are checked. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from measure import end_to_end, per_layer, run_one_batch
from simprovider import FIXED_MS, PER_OUTPUT_TOKEN_MS, CountingProvider
from spans import Tracer, instrumented
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 25
SETUP_BUDGET_S = 2.0


def _require_source() -> None:
    if not (SRC / "claimgraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no claimgraph source under {SRC}")
    sys.path.insert(0, str(SRC))


def _code_hash() -> str:
    """Hash of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (SRC / "claimgraph", Path(__file__).parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _load(manifest_path: Path):
    from claimgraph.ingest import load_manifest, load_records

    manifest = load_manifest(manifest_path)
    records, rejects = load_records(manifest)
    if rejects:
        raise RuntimeError(f"generated dataset has rejected lines: {rejects[:3]}")
    return records


def time_setup(manifest_path: Path) -> Tuple[list, List[float]]:
    """Load the dataset at least 3 and up to SETUP_REPEATS times, stopping
    once SETUP_BUDGET_S has passed."""
    import claimgraph.ingest  # noqa: F401  (import time is not set-up time)

    times: List[float] = []
    started = time.perf_counter()
    while len(times) < SETUP_REPEATS and (
        len(times) < 3 or time.perf_counter() - started < SETUP_BUDGET_S
    ):
        gc.collect()
        t0 = time.perf_counter()
        records = _load(manifest_path)
        times.append(time.perf_counter() - t0)
    return records, times


@contextmanager
def claim_timer() -> Iterator[List[float]]:
    """Collect the wall time of every ``pipeline.run_claim`` call, from outside."""
    from claimgraph import pipeline

    times: List[float] = []
    original = pipeline.run_claim

    def timed(runtime, claim_record):
        t0 = time.perf_counter()
        try:
            return original(runtime, claim_record)
        finally:
            times.append(time.perf_counter() - t0)

    pipeline.run_claim = timed
    try:
        yield times
    finally:
        pipeline.run_claim = original


def run_batches(
    workload,
    records: list,
    seconds: float,
    work_dir: Path,
    tracer=None,
) -> list:
    """Run batches until the next one would overrun ``seconds`` (at least one)."""
    from claimgraph.pipeline import PipelineConfig, run_batch

    config = PipelineConfig(claim_concurrency=workload.workers)
    latency = (FIXED_MS, PER_OUTPUT_TOKEN_MS) if workload.latency else (0.0, 0.0)
    batches = []
    started = time.perf_counter()
    while True:
        run_dir = work_dir / f"run-{len(batches)}"
        provider = CountingProvider(*latency)
        gc.collect()
        if tracer is None:
            with claim_timer() as times:
                outcome = run_one_batch(run_batch, records, config, run_dir, provider)
            outcome.claim_times_s = times
        else:
            with instrumented(tracer, CountingProvider):
                outcome = run_one_batch(run_batch, records, config, run_dir, provider)
        shutil.rmtree(run_dir)
        batches.append(outcome)
        print(
            f"  batch {len(batches)}{' (traced)' if tracer else ''}: {outcome.wall_s:.3f} s wall, "
            f"{outcome.cpu_s:.3f} s cpu, {outcome.recorded}/{outcome.attempted} records"
        )
        if outcome.error:
            print(f"  run_batch raised {outcome.error}; claims without a record count as failed")
        if time.perf_counter() - started + outcome.wall_s > seconds:
            return batches


def _check_digests(batches: list, workload: str, seed: int) -> List[str]:
    """Records must not change between batches, nor between runs of the same code."""
    digests = {b.digest for b in batches if b.error is None}
    if len(digests) > 1:
        return [f"{len(digests)} different record digests across batches of one run"]
    if not digests:
        return []
    path = OUT / "digests" / f"{workload}-s{seed}-{_code_hash()}.txt"
    digest = digests.pop()
    if path.exists() and path.read_text(encoding="utf-8") != digest:
        return [f"record digest differs from an earlier run of the same code ({path.name})"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest, encoding="utf-8")
    return []


def _declared_metrics(key: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _print_table(title: str, metrics, samples: Optional[Dict[str, int]] = None) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if samples else ""
        print(f"  {name:<36} {value:>14.6g} {unit:<6}{count}")


def _untraced(workload, records, seconds, work_dir, setup_times):
    batches = run_batches(workload, records, seconds, work_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, samples = end_to_end(batches, setup_times, peak_rss_mb)
    _print_table(f"end-to-end metrics over {len(batches)} untraced batches", metrics, samples)
    return metrics, batches


def _traced(workload, records, seconds, work_dir, manifest_path):
    untraced = run_batches(workload, records, seconds / 2, work_dir)
    load_tracer = Tracer()
    with instrumented(load_tracer, CountingProvider):
        for _ in range(3):
            with load_tracer.span("load_dataset", "ingest"):
                _load(manifest_path)
    tracer = Tracer()
    traced = run_batches(workload, records, seconds / 2, work_dir, tracer)
    untraced_metrics, _ = end_to_end(untraced, [0.0], 0.0)
    metrics, layer_self_ms = per_layer(
        tracer.spans, traced, load_tracer.spans, untraced_metrics["claims_per_s"][0]
    )
    claims = sum(b.attempted for b in traced)
    claim_ms = sum(s.duration for s in tracer.spans if s.name == "run_claim") * 1000.0
    by_layer = sorted(layer_self_ms.items(), key=lambda kv: -kv[1])
    shares = {
        layer: (ms / claims, f"ms/claim  {ms / claim_ms:6.1%} of claim time")
        for layer, ms in by_layer
    }
    _print_table("self time by layer (traced batches)", shares)
    _print_table(f"per-layer metrics over {len(traced)} traced batches", metrics)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    return metrics, untraced + traced


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="claimgraph batch benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")

    workload = WORKLOADS[args.workload]
    work_dir = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        data_dir = work_dir / "data"
        subprocess.run(
            [
                sys.executable,
                str(Path(__file__).with_name("workloads.py")),
                "--workload", workload.name,
                "--seed", str(args.seed),
                "--out", str(data_dir),
                "--src", str(SRC),
            ],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        manifest_path = data_dir / "manifest.json"
        records, setup_times = time_setup(manifest_path)
        print(
            f"workload {workload.name}: {len(records)} claims, {workload.workers} claim "
            f"worker(s), seed {args.seed}, closed loop, {args.seconds:g} s"
        )
        if args.trace:
            metrics, batches = _traced(workload, records, args.seconds, work_dir, manifest_path)
        else:
            metrics, batches = _untraced(workload, records, args.seconds, work_dir, setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [p for b in batches for p in b.problems]
    problems += _check_digests(batches, workload.name, args.seed)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    disagree = [n for n, unit in declared.items() if metrics.get(n, (None, None))[1] != unit]
    if disagree:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run did not give: {disagree}")
    result = {
        "correct": not problems,
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in declared.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
