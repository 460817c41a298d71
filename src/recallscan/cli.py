"""Command-line orchestration of the recall-initiator pipeline."""

from __future__ import annotations

import json
import sys
from typing import NoReturn

import click

from . import __version__, stages
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


def _fail(error: str, code: int, message: str) -> NoReturn:
    """Print the one JSON error line on stderr and exit with ``code``."""
    click.echo(json.dumps({"error": error, "exit_code": code, "message": message}), err=True)
    sys.exit(code)


def _run(stage_fn, config_path: str | None, flags: dict) -> None:
    try:
        cfg = stages.PipelineConfig.from_sources(config_path, flags)
        with stages.gc_paused():
            summary = stage_fn(cfg)
        stages.echo_config(cfg)  # only a stage that succeeded is echoed
    except (RecallScanError, OSError) as exc:
        # An OSError is a file that could not be read or written: exit 4 like a data error.
        error = type(exc).__name__ if isinstance(exc, RecallScanError) else "OSError"
        _fail(error, getattr(exc, "exit_code", 4), str(exc))
    click.echo(summary)


class _JsonErrorGroup(click.Group):
    """Click's usage errors under a command end in the one JSON error line too."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail("UsageError", exc.exit_code, exc.format_message())


# Each command and its option groups; every command also takes the common options.
COMMANDS = (
    ("fetch", _FETCH_OPTIONS),
    ("build", _FETCH_OPTIONS + _BUILD_OPTIONS),
    ("cluster", _CLUSTER_OPTIONS),
    ("aggregate", _AGGREGATE_OPTIONS),
    ("report", _REPORT_OPTIONS),
    ("pipeline", _FETCH_OPTIONS + _BUILD_OPTIONS + _CLUSTER_OPTIONS + _AGGREGATE_OPTIONS + _REPORT_OPTIONS),
)


@click.group(cls=_JsonErrorGroup)
@click.version_option(version=__version__)
def main():
    """Deterministic recall-initiator analysis over openFDA device data."""


def _register(name: str, options: list) -> None:
    """Add the command ``name``: it runs ``stages.<name>_stage`` and takes its help from it."""
    stage = f"{name}_stage"

    def command(config_path, **flags):
        # Looked up per call, so a stage function replaced after import is the one that runs.
        _run(getattr(stages, stage), config_path, flags)

    for option in reversed(options + _COMMON_OPTIONS):
        command = option(command)
    main.command(name, help=getattr(stages, stage).__doc__)(command)


for _name, _options in COMMANDS:
    _register(_name, _options)


if __name__ == "__main__":
    main()
