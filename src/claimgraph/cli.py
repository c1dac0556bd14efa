"""Command line entry points: ingest, run, evaluate, cost, export."""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click

from .errors import ClaimGraphError
from .ingest import dataset_stats, load_manifest, load_records, write_reject_log
from .jsonform import write_text
from .pipeline import (
    PipelineConfig,
    cost_report,
    judge_run,
    load_run_config,
    load_run_record,
    load_run_records,
    run_batch,
    write_reports,
)
from .summarize import export_dot, export_structured


class _DomainErrorGroup(click.Group):
    """Surface domain and file-system failures as exit-code-1 messages, not tracebacks."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ClaimGraphError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_DomainErrorGroup)
def main() -> None:
    """Claim decomposition, evidence-grounded explanation, and veracity checks."""


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--reject-log", type=click.Path(dir_okay=False), default=None)
@click.option("--allow-empty-reports", is_flag=True, default=False)
def ingest(manifest_path: str, reject_log: str, allow_empty_reports: bool) -> None:
    """Validate a dataset and print its shape."""
    manifest = load_manifest(manifest_path)
    records, rejects = load_records(manifest, allow_empty_reports)
    stats = dataset_stats(records)
    click.echo(f"dataset: {manifest.name} ({manifest.scheme.name}, {manifest.split})")
    click.echo(stats.render_text())
    if rejects:
        click.echo(f"rejected: {len(rejects)}")
        if reject_log:
            write_reject_log(reject_log, rejects)
            click.echo(f"reject log: {reject_log}")
    if manifest.expected_stats is not None:
        if stats.to_dict() == manifest.expected_stats:
            click.echo("expected stats: match")
        else:
            click.echo("expected stats: MISMATCH")
            sys.exit(1)


def _apply_overrides(config: PipelineConfig, overrides: dict) -> PipelineConfig:
    changes = {k: v for k, v in overrides.items() if v is not None and v != ()}
    return dataclasses.replace(config, **changes)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "run_dir", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--ablation", "ablations", multiple=True)
@click.option("--k", type=int, default=None)
@click.option("--graph-structure", type=click.Choice(["dependency", "hypergraph"]), default=None)
@click.option("--decomposition", type=click.Choice(["standard", "enhanced"]), default=None)
@click.option("--background/--no-background", "with_background", default=None)
@click.option("--inference", "inference_path", type=click.Choice(["zero_shot", "external_adapter"]), default=None)
@click.option("--model-id", default=None)
@click.option(
    "--claim-concurrency", type=click.IntRange(min=1), default=None,
    help=f"Claims run at once (default: the config's, else {PipelineConfig.claim_concurrency}). "
    "A run option: a resume may change it.",
)
@click.option(
    "--provider-concurrency", type=click.IntRange(min=1), default=None,
    help="Provider calls in flight at once across the run (default: the config's, else "
    f"{PipelineConfig.provider_concurrency}); lower it to fit the provider's own limit. "
    "A run option: a resume may change it.",
)
@click.option("--limit", type=click.IntRange(min=0), default=None)
def run(
    manifest_path: str,
    run_dir: str,
    config_path: str,
    ablations: tuple,
    k: int,
    graph_structure: str,
    decomposition: str,
    with_background: bool,
    inference_path: str,
    model_id: str,
    claim_concurrency: int,
    provider_concurrency: int,
    limit: int,
) -> None:
    """Process a dataset into a run directory, resuming from its config.json.

    Flags override --config, else that config.json, else the defaults. A resume
    that changes a field other than a run option is refused.
    """
    manifest = load_manifest(manifest_path)
    if config_path:
        config = PipelineConfig.from_file(config_path)
    elif (Path(run_dir) / "config.json").exists():
        config = load_run_config(run_dir)
    else:
        config = PipelineConfig(scheme_name=manifest.scheme.name)
    if config.scheme_name != manifest.scheme.name:
        raise click.ClickException(
            f"config scheme {config.scheme_name} does not match "
            f"manifest scheme {manifest.scheme.name}"
        )
    config = _apply_overrides(
        config,
        {
            "ablations": tuple(ablations),
            "k": k,
            "graph_structure": graph_structure,
            "decomposition": decomposition,
            "with_background": with_background,
            "inference_path": inference_path,
            "model_id": model_id,
            "claim_concurrency": claim_concurrency,
            "provider_concurrency": provider_concurrency,
        },
    )
    records, rejects = load_records(manifest)
    if rejects:
        click.echo(f"skipping {len(rejects)} rejected records", err=True)
    if limit is not None:
        records = records[:limit]
    result = run_batch(records, config, run_dir)
    click.echo(f"processed {result.processed}, skipped {result.skipped} (already done)")
    if result.report is not None:
        click.echo(result.report.render_text())
    click.echo(f"run dir: {result.run_dir}")


@main.command()
@click.option("--run-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--judge/--no-judge", default=False)
def evaluate(run_dir: str, judge: bool) -> None:
    """Rebuild the evaluation report for a run, optionally judging explanations."""
    config = load_run_config(run_dir)
    if judge:
        report = judge_run(run_dir, config)
    else:
        report = write_reports(Path(run_dir), config, load_run_records(run_dir))
    if report is None:
        click.echo("no labelled outcomes to evaluate")
        return
    click.echo(report.render_text())


@main.command()
@click.option("--run-dir", required=True, type=click.Path(exists=True, file_okay=False))
def cost(run_dir: str) -> None:
    """Token, dollar, and latency accounting for a run."""
    config = load_run_config(run_dir)
    click.echo(cost_report(run_dir, config).render_text())


@main.command()
@click.option("--run-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--claim-id", required=True)
@click.option("--format", "fmt", type=click.Choice(["dot", "structured"]), default="structured")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def export(run_dir: str, claim_id: str, fmt: str, out_path: str) -> None:
    """Write one claim's explanation graph as DOT or structured JSON."""
    record = load_run_record(run_dir, claim_id)
    if record is None:
        raise click.ClickException(f"no record for claim id {claim_id!r}")
    graph = record.derived_explanation_graph()
    if graph is None:
        cause = "it was run without sub-claims"
        if record.failure is not None:
            cause = f"failed at {record.failure.stage}: {record.failure.message}"
        raise click.ClickException(f"claim {claim_id!r} has no explanation graph ({cause})")
    text = export_dot(graph) if fmt == "dot" else export_structured(graph)
    if out_path:
        write_text(out_path, text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
