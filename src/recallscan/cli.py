"""Deterministic recall-initiator analysis over openFDA device data."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import __version__, stages
from .errors import RecallScanError
from .fixtures import FIXTURE_BUILDERS
from .openfda import API_KEY_ENV
from .report import FORMATS


# (flag, config key, help). Flags default to None and arrive as strings; PipelineConfig types them.
_FETCH_OPTIONS = [
    ("--from", "date_from", "Start of the recall date window (YYYY-MM-DD)."),
    ("--to", "date_to", "End of the recall date window (YYYY-MM-DD)."),
    ("--page-size", "page_size", "Records per API request (max 1000)."),
    ("--max-pages", "max_pages", "Pagination cap per endpoint."),
    ("--cache-dir", "cache_dir", "Directory for verbatim response pages."),
    ("--api-key", "api_key", f"openFDA API key (falls back to ${API_KEY_ENV})."),
]
_BUILD_OPTIONS = [("--fixture", "fixture",
                   f"Bundled dataset to use instead of the cache: {', '.join(sorted(FIXTURE_BUILDERS))}.")]
_CLUSTER_OPTIONS = [
    ("--eps", "eps", "DBSCAN neighbourhood radius."),
    ("--min-pts", "min_pts", "DBSCAN minimum neighbourhood size."),
]
_AGGREGATE_OPTIONS = [
    ("--prefix-len", "prefix_len", "Label prefix length to compare."),
    ("--theta", "theta", "Similarity threshold for merging."),
    ("--overrides-file", "overrides_file", "JSON file with merge/split pair overrides."),
]
_REPORT_OPTIONS = [
    ("--top", "top", "Entries in top-k summaries."),
    ("--format", "format", f"Report output format: {', '.join(FORMATS)}."),
]
_COMMON_OPTIONS = [
    ("--config", "config_path", "JSON config file (flags override it)."),
    ("--out", "out", "Output directory for stage artifacts."),
]

# Each command and its option groups; every command also takes the common options.
COMMANDS = (
    ("fetch", _FETCH_OPTIONS),
    ("build", _FETCH_OPTIONS + _BUILD_OPTIONS),
    ("cluster", _CLUSTER_OPTIONS),
    ("aggregate", _AGGREGATE_OPTIONS),
    ("report", _REPORT_OPTIONS),
    ("pipeline", _FETCH_OPTIONS + _BUILD_OPTIONS + _CLUSTER_OPTIONS + _AGGREGATE_OPTIONS + _REPORT_OPTIONS),
)


def _fail(error: str, code: int, message: str) -> NoReturn:
    """Print the one JSON error line on stderr and exit with ``code``."""
    print(json.dumps({"error": error, "exit_code": code, "message": message}), file=sys.stderr)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """A usage error, before or after the command name, ends in the one JSON error line."""

    def error(self, message: str) -> NoReturn:
        _fail("UsageError", 2, message)


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the command in ``args`` (default ``sys.argv``); a failure exits with its code after
    one JSON line on stderr. ``standalone_mode`` is accepted and ignored, for the benchmark probe."""
    parser = _Parser(prog="recallscan", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, options in COMMANDS:
        # Looked up per call: a stage function replaced after import is the one described and run.
        doc = getattr(stages, f"{name}_stage").__doc__
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        for flag, key, text in options + _COMMON_OPTIONS:
            sub.add_argument(flag, dest=key, help=text)
    flags = vars(parser.parse_args(args))
    command, config_path = flags.pop("command"), flags.pop("config_path")
    if "api_key" in flags and flags["api_key"] is None:
        flags["api_key"] = os.environ.get(API_KEY_ENV) or None  # an empty variable counts as unset
    try:
        cfg = stages.PipelineConfig.from_sources(config_path, flags)
        with stages.gc_paused():
            summary = getattr(stages, f"{command}_stage")(cfg)
        stages.echo_config(cfg)  # only a stage that succeeded is echoed
        print(summary, flush=True)
    except (RecallScanError, OSError) as exc:
        # An OSError is a file that could not be read or written, stdout included: exit 4 like
        # a data error. A closed stdout is pointed at devnull so the exit flushes nothing into it.
        if isinstance(exc, BrokenPipeError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        error = type(exc).__name__ if isinstance(exc, RecallScanError) else "OSError"
        _fail(error, getattr(exc, "exit_code", 4), str(exc))


if __name__ == "__main__":
    main()
