"""Pipeline stages and their file artifacts.

``INPUTS`` is the artifact graph. Every stage writes its artifacts plus a
``<stage>.meta.json`` sidecar (input hashes, config, timestamp, peak RSS)
and returns a one-line summary for the CLI. All artifacts are deterministic;
only the sidecars carry timestamps. A stage reads its inputs with ``load``,
which checks each file's lineage, and ends in one ``save``, which writes its
artifacts and then the sidecar; inside ``pipeline`` the values saved are
handed on in ``run``.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import gc
import hashlib
import json
import math
import resource
import sys
import typing
from pathlib import Path

from . import artifacts, openfda
from .aggregate import (
    DEFAULT_THETA,
    AggregationParams,
    MergeOverrides,
    aggregate,
    groups_from_json_dict,
    groups_to_json_dict,
)
from .dataset import (
    CleaningRules,
    clean,
    iso_date,
    merge_datasets,
    read_dataset,
    write_dataset,
)
from .dbscan import (
    DEFAULT_EPS,
    DEFAULT_MIN_PTS,
    DbscanParams,
    cluster_root_causes,
    clusters_from_json_dict,
    clusters_to_json_dict,
)
from .errors import ContractError, DataError, FormatError, UsageError
from .fixtures import FIXTURE_BUILDERS
from .report import FORMATS, build_document, render
from .textprep import DEFAULT_PREFIX_LEN

DATASET_FILE = "dataset.csv"
CLEANING_REPORT_FILE = "cleaning_report.json"
CLUSTERS_FILE = "clusters.json"
GROUPS_FILE = "groups.json"
CONFIG_ECHO_FILE = "effective_config.json"
REPORT_METADATA_FILE = "report_metadata.json"

# Each stage's input files in the output directory, and the stage that writes each.
INPUTS: dict[str, dict[str, str]] = {
    "fetch": {},
    "build": {},
    "cluster": {DATASET_FILE: "build"},
    "aggregate": {CLUSTERS_FILE: "cluster"},
    "report": {CLUSTERS_FILE: "cluster", GROUPS_FILE: "aggregate", DATASET_FILE: "build"},
}


_PARSERS = {int: int, float: float, dt.date: iso_date}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dt.date: "a YYYY-MM-DD date"}


def _parse_value(key: str, value, hint):
    """``value`` as the type ``hint`` names, parsing strings; bools are not numbers."""
    kinds = typing.get_args(hint) or (hint,)  # ``str | None`` gives (str, NoneType)
    kind = kinds[0]
    if value is None and type(None) in kinds:
        return None
    if isinstance(value, str):
        try:  # argv and the environment hold any bytes; every file written is UTF-8
            value.encode("utf-8")
        except UnicodeEncodeError as exc:  # the value is not echoed: it may be the API key
            raise UsageError(f"{key} is not valid UTF-8: {exc.reason} at position {exc.start}") from exc
    if isinstance(value, str) and kind in _PARSERS:
        try:
            value = _PARSERS[kind](value)
        except ValueError as exc:
            raise UsageError(f"bad {key} {value!r}: {exc}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        nullable = " or null" if type(None) in kinds else ""
        raise UsageError(f"config key {key} must be {_KIND_NAMES[kind]}{nullable}")
    if kind is float and not math.isfinite(value):
        raise UsageError(f"config key {key} must be finite, got {value}")
    return float(value) if kind is float else value


class PipelineConfig(typing.NamedTuple):
    """Effective configuration of a run; flags override file, file overrides defaults."""

    date_from: dt.date = openfda.DEFAULT_DATE_FROM
    date_to: dt.date = openfda.DEFAULT_DATE_TO
    page_size: int = openfda.MAX_PAGE_SIZE
    max_pages: int = openfda.DEFAULT_MAX_PAGES
    api_key: str | None = None
    cache_dir: str = "cache"
    out: str = "out"
    eps: float = DEFAULT_EPS
    min_pts: int = DEFAULT_MIN_PTS
    prefix_len: int = DEFAULT_PREFIX_LEN
    theta: float = DEFAULT_THETA
    top: int = 10
    format: str = "markdown"
    fixture: str | None = None
    overrides_file: str | None = None

    def to_dict(self) -> dict:
        """JSON values, the API key null: it is a secret, so no written file holds it."""
        return {
            key: value.isoformat() if isinstance(value, dt.date) else value
            for key, value in {**self._asdict(), "api_key": None}.items()
        }

    @classmethod
    def from_sources(cls, config_path: str | None, flags: dict) -> "PipelineConfig":
        """Merge defaults, the JSON config file and flags, then type-check every value.

        A value of the field's type is kept; a string is parsed to that type
        (flags always arrive as strings). Anything else is a ``UsageError``.
        A value out of range is a ``ContractError``, raised here so that no
        stage has written a file yet.
        """
        values = dict(cls._field_defaults)
        if config_path == "":  # Path("") is the current directory
            raise UsageError("config_path must name a file, not be empty")
        if config_path is not None:
            loaded = artifacts.read_object(Path(config_path), "config file", UsageError)
            unknown = set(loaded) - set(values)
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
            values.update(loaded)
        for key, value in flags.items():
            if value is not None:
                values[key] = value
        for key, hint in typing.get_type_hints(cls).items():
            values[key] = _parse_value(key, values[key], hint)
        for key, choices in (("format", FORMATS), ("fixture", sorted(FIXTURE_BUILDERS))):
            if values[key] is not None and values[key] not in choices:
                raise UsageError(
                    f"unknown {key} {values[key]!r}; choose one of {', '.join(choices)}"
                )
        for key in ("cache_dir", "out", "overrides_file"):
            if values[key] == "":
                raise UsageError(f"config key {key} must name a path, not be empty")
        cfg = cls(**values)
        # The range rules live in these classes; building them checks every value.
        cfg.cleaning_rules(), cfg.dbscan_params(), cfg.aggregation_params()
        cfg.fetch_spec(openfda.Endpoint.RECALL)
        if cfg.top < 1:
            raise ContractError(f"top k must be >= 1, got {cfg.top}")
        return cfg

    def cleaning_rules(self) -> CleaningRules:
        return CleaningRules(date_from=self.date_from, date_to=self.date_to)

    def dbscan_params(self) -> DbscanParams:
        return DbscanParams(eps=self.eps, min_pts=self.min_pts)

    def aggregation_params(self) -> AggregationParams:
        return AggregationParams(prefix_len=self.prefix_len, theta=self.theta)

    def fetch_spec(self, endpoint: openfda.Endpoint) -> openfda.FetchSpec:
        return openfda.FetchSpec(
            endpoint=endpoint,
            date_from=self.date_from,
            date_to=self.date_to,
            page_size=self.page_size,
            max_pages=self.max_pages,
            api_key=self.api_key,
        )

    @property
    def out_dir(self) -> Path:
        return Path(self.out)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load(cfg: PipelineConfig, stage: str, name: str, run: dict | None = None):
    """The input ``name`` of ``stage``: its value in ``run``, which this run made, else its file
    checked by ``check_lineage`` and parsed (JSON gives that same payload dict). A missing file
    is a ``DataError`` naming its producer.
    """
    if run and name in run:
        return run[name]
    path, producer = cfg.out_dir / name, INPUTS[stage][name]
    if not path.exists():
        raise DataError(f"missing input artifact {path}; run {producer} first")
    check_lineage(cfg, name, producer)
    return read_dataset(path) if name == DATASET_FILE else artifacts.read_object(path, "artifact")


def check_lineage(cfg: PipelineConfig, name: str, producer: str) -> None:
    """Refuse the input ``name`` if ``producer`` built it from files that have changed since.

    ``producer``'s sidecar holds the sha256 of what it read. A file it recorded
    that now exists with other bytes makes ``name`` stale (``DataError``). No
    sidecar means no check, so hand-made and older artifacts still run; a
    malformed one is a ``FormatError``.
    """
    sidecar = cfg.out_dir / f"{producer}.meta.json"
    if not INPUTS[producer] or not sidecar.exists():
        return
    recorded = artifacts.read_object(sidecar, "sidecar").get("inputs")
    if not isinstance(recorded, dict) or not all(isinstance(h, str) for h in recorded.values()):
        raise FormatError(f"sidecar {sidecar}: inputs must map file names to sha256 strings")
    for upstream in INPUTS[producer]:
        path = cfg.out_dir / upstream
        if upstream in recorded and path.exists() and _sha256(path) != recorded[upstream]:
            raise DataError(
                f"{name} is stale: {upstream} changed after {producer} ran; rerun {producer}"
            )


def save(cfg: PipelineConfig, stage: str, outputs: dict, run: dict | None = None, **extra) -> None:
    """Write ``stage``'s artifacts in order (``dataset.csv`` as a dataset, bytes as they are, the
    rest as JSON) and keep each value in ``run``; then ``<stage>.meta.json``, which vouches for
    them: the hashes of the inputs ``stage`` read, the run's config, ``peak_rss_kb`` and ``extra``.

    ``peak_rss_kb`` is the process's resident-set high-water mark so far (``ru_maxrss`` of
    ``RUSAGE_SELF``), not this stage's own use: in ``pipeline`` it covers every stage up to
    this one. A parent that spawns the process through vfork (as ``subprocess`` does) can
    leave its own, larger RSS in the figure until the process outgrows it.
    """
    out = cfg.out_dir
    for name, value in outputs.items():
        if name == DATASET_FILE:
            write_dataset(value, out / name)
        elif isinstance(value, bytes):
            artifacts.write(out / name, value)
        else:
            artifacts.write_json(out / name, value)
        if run is not None:
            run[name] = value
    artifacts.write_json(out / f"{stage}.meta.json", {
        "stage": stage,
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
        "inputs": {name: _sha256(out / name) for name in INPUTS[stage] if (out / name).exists()},
        "params": cfg.to_dict(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **extra,
    })


def echo_config(cfg: PipelineConfig) -> None:
    # A replay reads the key from the flag or the environment.
    artifacts.write_json(cfg.out_dir / CONFIG_ECHO_FILE, cfg.to_dict())


def fetch_stage(cfg: PipelineConfig, *, get=None, run: dict | None = None) -> str:
    """Download recall and classification pages into the cache."""
    totals, reported = {}, {}
    for endpoint in (openfda.Endpoint.RECALL, openfda.Endpoint.CLASSIFICATION):
        pages = openfda.fetch_pages(cfg.fetch_spec(endpoint), cfg.cache_dir, get=get)
        totals[endpoint.value] = sum(p.record_count for p in pages)
        if pages and pages[-1].total is not None:
            reported[endpoint.value] = pages[-1].total
        if run is not None:
            run[endpoint] = pages
    save(cfg, "fetch", {}, run, records=totals, reported=reported)
    short = [f"{name} {totals[name]} of {n}" for name, n in reported.items() if totals[name] < n]
    if short:  # a pull cut off by max_pages; JSON like the CLI's error line, so stderr stays JSON
        message = "fetched fewer records than openFDA reports: " + ", ".join(short)
        print(json.dumps({"warning": "IncompleteFetch", "message": message}), file=sys.stderr)
    return (
        f"fetch: {totals['recall']} recall and {totals['classification']} "
        f"classification records cached in {cfg.cache_dir}"
    )


def build_stage(cfg: PipelineConfig, *, run: dict | None = None) -> str:
    """Merge, clean and persist the canonical dataset, from the cache or a fixture."""
    rules, merge = cfg.cleaning_rules(), {}
    if cfg.fixture is not None:
        raw = FIXTURE_BUILDERS[cfg.fixture](cfg.date_from, cfg.date_to)
        dataset, report = clean(raw, rules)
    else:
        columns = {endpoint: [[] for _ in endpoint.fields] for endpoint in openfda.Endpoint}
        for endpoint, sinks in columns.items():
            def not_cached(url, params, timeout, endpoint=endpoint):  # a DataError is not retried
                page = params["skip"] // params["limit"]
                raise DataError(
                    f"{endpoint.value} page {page} is not cached under {cfg.cache_dir}; run fetch first"
                )

            # A pipeline's fetch left its pages in ``run``; popped, they die with this loop.
            for page in run.pop(endpoint) if run and endpoint in run else openfda.fetch_pages(
                cfg.fetch_spec(endpoint), cfg.cache_dir, get=not_cached
            ):
                for sink, column in zip(sinks, page.columns):
                    sink.extend(column)
        recalls, classifications = columns.values()  # in Endpoint order
        if not recalls[0]:
            search = cfg.fetch_spec(openfda.Endpoint.RECALL).search_expression()
            raise DataError(f"the recall query {search} returned no records; nothing to build")
        merged, stats = merge_datasets(recalls, classifications)
        dataset, report = clean(merged, rules)
        report = report._replace(unmatched_product_codes=stats.unmatched_product_codes)
        merge = {"duplicate_classification_codes": stats.duplicate_classification_codes}

    save(cfg, "build", {DATASET_FILE: dataset, CLEANING_REPORT_FILE: report.to_dict()}, run, **merge)
    return f"build: {len(dataset)} records -> {cfg.out_dir / DATASET_FILE}"


def cluster_stage(cfg: PipelineConfig, *, run: dict | None = None) -> str:
    """Cluster root-cause texts and write clusters.json."""
    dataset = load(cfg, "cluster", DATASET_FILE, run)
    if not dataset:
        raise DataError(f"dataset {cfg.out_dir / DATASET_FILE} holds no records; nothing to cluster")
    result = cluster_root_causes(dataset.root_cause_description, cfg.dbscan_params())
    save(cfg, "cluster", {CLUSTERS_FILE: clusters_to_json_dict(result)}, run, points=result.points)
    return (
        f"cluster: {result.cluster_count} clusters over {result.clustered_count} records, "
        f"{result.noise_count} noise -> {cfg.out_dir / CLUSTERS_FILE}"
    )


def aggregate_stage(cfg: PipelineConfig, *, run: dict | None = None) -> str:
    """Merge cluster labels into groups and write groups.json."""
    out = cfg.out_dir
    summaries, _ = clusters_from_json_dict(load(cfg, "aggregate", CLUSTERS_FILE, run))
    if not summaries:
        raise DataError(f"{out / CLUSTERS_FILE} holds no clusters; nothing to aggregate")
    params = cfg.aggregation_params()
    overrides = None if cfg.overrides_file is None else MergeOverrides.from_file(cfg.overrides_file)
    groups = aggregate(summaries, params, overrides)
    save(cfg, "aggregate", {GROUPS_FILE: groups_to_json_dict(groups, params)}, run)
    return f"aggregate: {len(groups)} groups -> {out / GROUPS_FILE}"


def report_stage(cfg: PipelineConfig, *, run: dict | None = None) -> str:
    """Render ranked reports from the stage artifacts."""
    out = cfg.out_dir
    summaries, noise = clusters_from_json_dict(load(cfg, "report", CLUSTERS_FILE, run))
    groups = groups_from_json_dict(load(cfg, "report", GROUPS_FILE, run))
    if not summaries or not groups:
        raise DataError("empty cluster or group artifact; nothing to report")
    # The artifacts must agree: each cluster label in one group, whose total is its members' sum,
    # and as many dataset rows as records clustered.
    counts = {s.label: s.count for s in summaries}
    members = [m for g in groups for m in g.members]
    if len(members) != len(counts) or set(members) != counts.keys():
        raise DataError(
            f"{GROUPS_FILE} disagrees with {CLUSTERS_FILE}: "
            "the group members are not the cluster labels, each once; rerun aggregate"
        )
    for g in groups:
        if g.total_count != (total := sum(counts[m] for m in g.members)):
            raise DataError(
                f"{GROUPS_FILE} disagrees with {CLUSTERS_FILE}: the group of {g.members[0]!r} "
                f"totals {g.total_count}, its members {total}; rerun aggregate"
            )
    noise_count = sum(n.count for n in noise)
    dataset = None
    if (out / DATASET_FILE).exists():
        dataset = load(cfg, "report", DATASET_FILE, run)
        if len(dataset) != (total := sum(counts.values()) + noise_count):
            raise DataError(
                f"{CLUSTERS_FILE} disagrees with {DATASET_FILE}: it counts {total} records, "
                f"{DATASET_FILE} holds {len(dataset)}; rerun cluster"
            )

    doc = build_document(summaries, groups, noise_count, dataset, cfg.top)
    files = dict(render(doc, cfg.format))
    save(cfg, "report", {**files, REPORT_METADATA_FILE: doc.metadata}, run)
    names = ", ".join(files)
    return f"report: {names} (shares over {doc.metadata['clustered_records']} clustered records)"


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for the block, then restore the state it found.

    The stages build hundreds of thousands of tuples and strings that hold no reference
    cycles; each automatic collection would rescan all of them and find nothing to free.
    Reference counting still frees everything as usual.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def pipeline_stage(cfg: PipelineConfig, *, get=None) -> str:
    """Run fetch, build, cluster, aggregate and report in sequence (a fixture skips fetch)."""
    run: dict = {}  # saved values by file name and fetch's pages by endpoint, for the next stages
    with gc_paused():
        lines = [fetch_stage(cfg, get=get, run=run)] if cfg.fixture is None else []
        for stage in (build_stage, cluster_stage, aggregate_stage, report_stage):
            lines.append(stage(cfg, run=run))
    return "\n".join(lines)
