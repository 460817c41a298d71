"""Command-line orchestration of the recall-initiator pipeline."""

from __future__ import annotations

import json
import sys

import click

from . import stages
from .errors import RecallScanError
from .fixtures import FIXTURE_BUILDERS
from .openfda import API_KEY_ENV
from .report import FORMATS


_FETCH_OPTIONS = [
    click.option("--from", "date_from", default=None, help="Start of the recall date window (YYYY-MM-DD)."),
    click.option("--to", "date_to", default=None, help="End of the recall date window (YYYY-MM-DD)."),
    click.option("--page-size", metavar="INTEGER", default=None, help="Records per API request (max 1000)."),
    click.option("--max-pages", metavar="INTEGER", default=None, help="Pagination cap per endpoint."),
    click.option("--cache-dir", default=None, help="Directory for verbatim response pages."),
    click.option("--api-key", envvar=API_KEY_ENV, help=f"openFDA API key (falls back to ${API_KEY_ENV})."),
]
_BUILD_OPTIONS = [
    click.option(
        "--fixture",
        default=None,
        help=f"Bundled offline dataset to build from instead of the cache: {', '.join(sorted(FIXTURE_BUILDERS))}.",
    ),
]
_CLUSTER_OPTIONS = [
    click.option("--eps", metavar="FLOAT", default=None, help="DBSCAN neighbourhood radius."),
    click.option("--min-pts", metavar="INTEGER", default=None, help="DBSCAN minimum neighbourhood size."),
]
_AGGREGATE_OPTIONS = [
    click.option("--prefix-len", metavar="INTEGER", default=None, help="Label prefix length to compare."),
    click.option("--theta", metavar="FLOAT", default=None, help="Similarity threshold for merging."),
    click.option("--overrides-file", default=None, help="JSON file with merge/split pair overrides."),
]
_REPORT_OPTIONS = [
    click.option("--top", metavar="INTEGER", default=None, help="Entries in top-k summaries."),
    click.option("--format", "format", default=None, help=f"Report output format: {', '.join(FORMATS)}."),
]
_COMMON_OPTIONS = [
    click.option("--config", "config_path", default=None, help="JSON config file (flags override it)."),
    click.option("--out", default=None, help="Output directory for stage artifacts."),
]


def _apply(options):
    def wrap(f):
        for option in reversed(options):
            f = option(f)
        return f

    return wrap


def _run(stage_fn, config_path: str | None, flags: dict) -> None:
    try:
        cfg = stages.PipelineConfig.from_sources(config_path, flags)
        summary = stage_fn(cfg)
        stages.echo_config(cfg)  # only a stage that succeeded is echoed
    except (RecallScanError, OSError) as exc:
        # An OSError is a file that could not be read or written: exit 4 like a data error.
        code = getattr(exc, "exit_code", 4)
        error = type(exc).__name__ if isinstance(exc, RecallScanError) else "OSError"
        click.echo(json.dumps({"error": error, "exit_code": code, "message": str(exc)}), err=True)
        sys.exit(code)
    click.echo(summary)


@click.group()
@click.version_option()
def main():
    """Deterministic recall-initiator analysis over openFDA device data."""


@main.command()
@_apply(_FETCH_OPTIONS + _COMMON_OPTIONS)
def fetch(config_path, **flags):
    """Download recall and classification pages into the cache."""
    _run(stages.fetch_stage, config_path, flags)


@main.command()
@_apply(_FETCH_OPTIONS + _BUILD_OPTIONS + _COMMON_OPTIONS)
def build(config_path, **flags):
    """Merge, clean and persist the canonical dataset."""
    _run(stages.build_stage, config_path, flags)


@main.command()
@_apply(_CLUSTER_OPTIONS + _COMMON_OPTIONS)
def cluster(config_path, **flags):
    """Cluster root-cause texts and write clusters.json."""
    _run(stages.cluster_stage, config_path, flags)


@main.command()
@_apply(_AGGREGATE_OPTIONS + _COMMON_OPTIONS)
def aggregate(config_path, **flags):
    """Merge cluster labels into groups and write groups.json."""
    _run(stages.aggregate_stage, config_path, flags)


@main.command()
@_apply(_REPORT_OPTIONS + _COMMON_OPTIONS)
def report(config_path, **flags):
    """Render ranked reports from the stage artifacts."""
    _run(stages.report_stage, config_path, flags)


@main.command()
@_apply(
    _FETCH_OPTIONS
    + _BUILD_OPTIONS
    + _CLUSTER_OPTIONS
    + _AGGREGATE_OPTIONS
    + _REPORT_OPTIONS
    + _COMMON_OPTIONS
)
def pipeline(config_path, **flags):
    """Run fetch, build, cluster, aggregate and report in sequence."""
    _run(stages.pipeline_stage, config_path, flags)


if __name__ == "__main__":
    main()
