"""Pipeline stages and their file artifacts.

``INPUTS`` is the artifact graph. Every stage writes its artifacts plus a
``<stage>.meta.json`` sidecar (input hashes, config, timestamp) and returns
a one-line summary for the CLI. All artifacts are deterministic; only the
sidecars carry timestamps.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import math
import typing
from dataclasses import dataclass
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
from .report import FORMATS, WRITERS, build_document
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


_PARSERS = {int: int, float: float, dt.date: dt.date.fromisoformat}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dt.date: "a YYYY-MM-DD date"}


def _parse_value(key: str, value, hint):
    """``value`` as the type ``hint`` names, parsing strings; bools are not numbers."""
    kinds = typing.get_args(hint) or (hint,)  # ``str | None`` gives (str, NoneType)
    kind = kinds[0]
    if value is None and type(None) in kinds:
        return None
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


@dataclass
class PipelineConfig:
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
            for key, value in {**dataclasses.asdict(self), "api_key": None}.items()
        }

    @classmethod
    def from_sources(cls, config_path: str | None, flags: dict) -> "PipelineConfig":
        """Merge defaults, the JSON config file and flags, then type-check every value.

        A value of the field's type is kept; a string is parsed to that type
        (flags always arrive as strings). Anything else is a ``UsageError``.
        A value out of range is a ``ContractError``, raised here so that no
        stage has written a file yet.
        """
        values = dataclasses.asdict(cls())
        if config_path:
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
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _input(cfg: PipelineConfig, stage: str, name: str) -> Path:
    """The input ``name`` of ``stage``; if it is missing, a ``DataError`` naming its producer."""
    return artifacts.require(cfg.out_dir / name, INPUTS[stage][name])


def check_lineage(cfg: PipelineConfig, stage: str) -> None:
    """Refuse an input of ``stage`` built from files that have changed since.

    The sidecar of the stage that wrote each input holds the sha256 of what
    that stage read. A file it recorded that now exists with other bytes makes
    the input stale (``DataError``). No sidecar means no check, so hand-made
    and older artifacts still run; a malformed one is a ``FormatError``.
    """
    out = cfg.out_dir
    for name, producer in INPUTS[stage].items():
        sidecar = out / f"{producer}.meta.json"
        if not INPUTS[producer] or not sidecar.exists():
            continue
        recorded = artifacts.read_object(sidecar, "sidecar").get("inputs")
        if not isinstance(recorded, dict) or not all(isinstance(h, str) for h in recorded.values()):
            raise FormatError(f"sidecar {sidecar}: inputs must map file names to sha256 strings")
        for upstream in INPUTS[producer]:
            path = out / upstream
            if upstream in recorded and path.exists() and _sha256(path) != recorded[upstream]:
                raise DataError(
                    f"{name} is stale: {upstream} changed after {producer} ran; rerun {producer}"
                )


def write_sidecar(cfg: PipelineConfig, stage: str, **extra) -> None:
    """``<stage>.meta.json``: the hashes of the inputs ``stage`` read and the run's config."""
    out = cfg.out_dir
    meta = {
        "stage": stage,
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
        "inputs": {name: _sha256(out / name) for name in INPUTS[stage] if (out / name).exists()},
        "params": cfg.to_dict(),
        **extra,
    }
    artifacts.write_json(out / f"{stage}.meta.json", meta)


def echo_config(cfg: PipelineConfig) -> None:
    # A replay reads the key from the flag or the environment.
    artifacts.write_json(cfg.out_dir / CONFIG_ECHO_FILE, cfg.to_dict())


def fetch_stage(cfg: PipelineConfig, *, get=None) -> str:
    """Download recall and classification pages into the cache."""
    totals = {}
    for endpoint in (openfda.Endpoint.RECALL, openfda.Endpoint.CLASSIFICATION):
        pages = openfda.fetch_pages(cfg.fetch_spec(endpoint), cfg.cache_dir, get=get)
        totals[endpoint.value] = sum(p.record_count for p in pages)
    write_sidecar(cfg, "fetch", records=totals)
    return (
        f"fetch: {totals['recall']} recall and {totals['classification']} "
        f"classification records cached in {cfg.cache_dir}"
    )


def build_stage(cfg: PipelineConfig) -> str:
    """Merge, clean and persist the canonical dataset, from the cache or a fixture."""
    out = cfg.out_dir
    rules = cfg.cleaning_rules()
    if cfg.fixture is not None:
        raw = FIXTURE_BUILDERS[cfg.fixture](cfg.date_from, cfg.date_to)
        records, report = clean(raw, rules)
    else:
        recalls, classifications = [], []
        for endpoint, parse, sink in (
            (openfda.Endpoint.RECALL, openfda.parse_recall_page, recalls),
            (openfda.Endpoint.CLASSIFICATION, openfda.parse_classification_page, classifications),
        ):
            def not_cached(url, params, timeout, endpoint=endpoint):  # a DataError is not retried
                page = params["skip"] // params["limit"]
                raise DataError(
                    f"{endpoint.value} page {page} is not cached under {cfg.cache_dir}; run fetch first"
                )

            for page in openfda.fetch_pages(cfg.fetch_spec(endpoint), cfg.cache_dir, get=not_cached):
                sink.extend(parse(page))
        if not recalls:
            search = cfg.fetch_spec(openfda.Endpoint.RECALL).search_expression()
            raise DataError(f"the recall query {search} returned no records; nothing to build")
        merged, stats = merge_datasets(recalls, classifications)
        records, report = clean(merged, rules)
        report.unmatched_product_codes = stats.unmatched_product_codes

    write_dataset(records, out / DATASET_FILE)
    artifacts.write_json(out / CLEANING_REPORT_FILE, report.to_dict())
    write_sidecar(cfg, "build")
    return f"build: {len(records)} records -> {out / DATASET_FILE}"


def cluster_stage(cfg: PipelineConfig) -> str:
    """Cluster root-cause texts and write clusters.json."""
    out = cfg.out_dir
    dataset_path = _input(cfg, "cluster", DATASET_FILE)
    records = read_dataset(dataset_path)
    if not records:
        raise DataError(f"dataset {dataset_path} holds no records; nothing to cluster")
    result = cluster_root_causes([r.root_cause_description for r in records], cfg.dbscan_params())
    artifacts.write_json(out / CLUSTERS_FILE, clusters_to_json_dict(result))
    write_sidecar(cfg, "cluster")
    return (
        f"cluster: {result.cluster_count} clusters over {result.clustered_count} records, "
        f"{result.noise_count} noise -> {out / CLUSTERS_FILE}"
    )


def aggregate_stage(cfg: PipelineConfig) -> str:
    """Merge cluster labels into groups and write groups.json."""
    out = cfg.out_dir
    clusters_path = _input(cfg, "aggregate", CLUSTERS_FILE)
    summaries, _ = clusters_from_json_dict(artifacts.read_object(clusters_path, "artifact"))
    if not summaries:
        raise DataError(f"{clusters_path} holds no clusters; nothing to aggregate")
    params = cfg.aggregation_params()
    overrides = MergeOverrides.from_file(cfg.overrides_file) if cfg.overrides_file else None
    check_lineage(cfg, "aggregate")
    groups = aggregate(summaries, params, overrides)
    artifacts.write_json(out / GROUPS_FILE, groups_to_json_dict(groups, params))
    write_sidecar(cfg, "aggregate")
    return f"aggregate: {len(groups)} groups -> {out / GROUPS_FILE}"


def report_stage(cfg: PipelineConfig) -> str:
    """Render ranked reports from the stage artifacts."""
    out = cfg.out_dir
    clusters = artifacts.read_object(_input(cfg, "report", CLUSTERS_FILE), "artifact")
    summaries, noise = clusters_from_json_dict(clusters)
    groups = artifacts.read_object(_input(cfg, "report", GROUPS_FILE), "artifact")
    groups = groups_from_json_dict(groups)
    if not summaries or not groups:
        raise DataError("empty cluster or group artifact; nothing to report")
    dataset_path = out / DATASET_FILE
    records = read_dataset(dataset_path) if dataset_path.exists() else []
    check_lineage(cfg, "report")
    noise_count = sum(n.count for n in noise)

    doc = build_document(summaries, groups, noise_count, records, cfg.top)
    files = WRITERS[cfg.format](doc)
    for name, payload in files:
        artifacts.write(out / name, payload)
    artifacts.write_json(out / REPORT_METADATA_FILE, doc.metadata)
    write_sidecar(cfg, "report")
    names = ", ".join(name for name, _ in files)
    return f"report: {names} (shares over {doc.metadata['clustered_records']} clustered records)"


def pipeline_stage(cfg: PipelineConfig, *, get=None) -> str:
    """Run fetch, build, cluster, aggregate and report in sequence (a fixture skips fetch)."""
    lines = []
    if cfg.fixture is None:
        lines.append(fetch_stage(cfg, get=get))
    lines.append(build_stage(cfg))
    lines.append(cluster_stage(cfg))
    lines.append(aggregate_stage(cfg))
    lines.append(report_stage(cfg))
    return "\n".join(lines)
