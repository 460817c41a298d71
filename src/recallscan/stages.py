"""Pipeline stages and their file artifacts.

Every stage reads the previous stage's artifact from the output directory,
writes its own artifact plus a ``<stage>.meta.json`` sidecar (input hashes,
parameters, timestamp), and returns a one-line summary for the CLI. All
artifacts are deterministic; only the sidecars carry timestamps.
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
from .errors import ContractError, DataError, TransportError, UsageError
from .fixtures import FIXTURE_BUILDERS
from .report import FORMATS, WRITERS, build_document
from .textprep import DEFAULT_PREFIX_LEN

DATASET_FILE = "dataset.csv"
CLEANING_REPORT_FILE = "cleaning_report.json"
CLUSTERS_FILE = "clusters.json"
GROUPS_FILE = "groups.json"
CONFIG_ECHO_FILE = "effective_config.json"
REPORT_METADATA_FILE = "report_metadata.json"


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
        return {
            key: value.isoformat() if isinstance(value, dt.date) else value
            for key, value in dataclasses.asdict(self).items()
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
        if cfg.top < 1:
            raise ContractError(f"top k must be >= 1, got {cfg.top}")
        return cfg

    def cleaning_rules(self) -> CleaningRules:
        return CleaningRules(date_from=self.date_from, date_to=self.date_to)

    def dbscan_params(self) -> DbscanParams:
        return DbscanParams(eps=self.eps, min_pts=self.min_pts)

    def aggregation_params(self) -> AggregationParams:
        return AggregationParams(prefix_len=self.prefix_len, theta=self.theta)

    @property
    def out_dir(self) -> Path:
        return Path(self.out)


def _read_artifact(path: Path, producer: str) -> dict:
    return artifacts.read_object(artifacts.require(path, producer), "artifact")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_sidecar(out_dir: Path, stage: str, inputs: list[Path], params: dict) -> None:
    meta = {
        "stage": stage,
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
        "inputs": {p.name: _sha256(p) for p in inputs if p.exists()},
        "params": params,
    }
    artifacts.write_json(out_dir / f"{stage}.meta.json", meta)


def echo_config(cfg: PipelineConfig) -> None:
    # The key is a secret, so the echo never holds it; a replay reads it from the flag or env.
    artifacts.write_json(cfg.out_dir / CONFIG_ECHO_FILE, {**cfg.to_dict(), "api_key": None})


def _fetch_spec(cfg: PipelineConfig, endpoint: openfda.Endpoint) -> openfda.FetchSpec:
    return openfda.FetchSpec(
        endpoint=endpoint,
        date_from=cfg.date_from,
        date_to=cfg.date_to,
        page_size=cfg.page_size,
        max_pages=cfg.max_pages,
        api_key=cfg.api_key,
    )


def fetch_stage(cfg: PipelineConfig, *, get=None) -> str:
    """Download recall and classification pages into the cache."""
    totals = {}
    for endpoint in (openfda.Endpoint.RECALL, openfda.Endpoint.CLASSIFICATION):
        pages = openfda.fetch_pages(_fetch_spec(cfg, endpoint), cfg.cache_dir, get=get)
        totals[endpoint.value] = sum(p.record_count for p in pages)
    write_sidecar(
        cfg.out_dir,
        "fetch",
        [],
        {
            "cache_dir": cfg.cache_dir,
            "date_from": cfg.date_from.isoformat(),
            "date_to": cfg.date_to.isoformat(),
            "page_size": cfg.page_size,
            "max_pages": cfg.max_pages,
            "records": totals,
        },
    )
    return (
        f"fetch: {totals['recall']} recall and {totals['classification']} "
        f"classification records cached in {cfg.cache_dir}"
    )


def _offline_get(url, params, timeout):
    raise ConnectionError("network access disabled for this stage")


def build_stage(cfg: PipelineConfig) -> str:
    """Merge, clean and persist the canonical dataset (from cache or fixture)."""
    out = cfg.out_dir
    rules = cfg.cleaning_rules()
    if cfg.fixture is not None:
        raw = FIXTURE_BUILDERS[cfg.fixture](cfg.date_from, cfg.date_to)
        records, report = clean(raw, rules)
        source: dict = {"fixture": cfg.fixture}
    else:
        recalls, classifications = [], []
        for endpoint, parse, sink in (
            (openfda.Endpoint.RECALL, openfda.parse_recall_page, recalls),
            (openfda.Endpoint.CLASSIFICATION, openfda.parse_classification_page, classifications),
        ):
            try:
                pages = openfda.fetch_pages(
                    _fetch_spec(cfg, endpoint), cfg.cache_dir, get=_offline_get, sleep=lambda s: None
                )
            except TransportError as exc:
                raise DataError(f"cache incomplete ({exc}); run fetch first") from exc
            for page in pages:
                sink.extend(parse(page))
        if not recalls:
            raise DataError(f"no cached recall pages under {cfg.cache_dir}; run fetch first")
        merged, stats = merge_datasets(recalls, classifications)
        records, report = clean(merged, rules)
        report.unmatched_product_codes = stats.unmatched_product_codes
        source = {"cache_dir": cfg.cache_dir}

    write_dataset(records, out / DATASET_FILE)
    artifacts.write_json(out / CLEANING_REPORT_FILE, report.to_dict())
    write_sidecar(out, "build", [out / DATASET_FILE], {**source, "rules": {
        "date_from": cfg.date_from.isoformat(), "date_to": cfg.date_to.isoformat()}})
    return f"build: {len(records)} records -> {out / DATASET_FILE}"


def cluster_stage(cfg: PipelineConfig) -> str:
    """Cluster root causes and write the cluster artifact."""
    out = cfg.out_dir
    dataset_path = artifacts.require(out / DATASET_FILE, "build")
    records = read_dataset(dataset_path)
    if not records:
        raise DataError(f"dataset {dataset_path} holds no records; nothing to cluster")
    result = cluster_root_causes([r.root_cause_description for r in records], cfg.dbscan_params())
    artifacts.write_json(out / CLUSTERS_FILE, clusters_to_json_dict(result))
    write_sidecar(out, "cluster", [dataset_path], {"eps": cfg.eps, "min_pts": cfg.min_pts})
    return (
        f"cluster: {result.cluster_count} clusters over {result.clustered_count} records, "
        f"{result.noise_count} noise -> {out / CLUSTERS_FILE}"
    )


def aggregate_stage(cfg: PipelineConfig) -> str:
    """Aggregate cluster labels into groups and write the group artifact."""
    out = cfg.out_dir
    clusters_path = out / CLUSTERS_FILE
    summaries, _ = clusters_from_json_dict(_read_artifact(clusters_path, "cluster"))
    if not summaries:
        raise DataError(f"{clusters_path} holds no clusters; nothing to aggregate")
    params = cfg.aggregation_params()
    overrides = MergeOverrides.from_file(cfg.overrides_file) if cfg.overrides_file else None
    groups = aggregate(summaries, params, overrides)
    artifacts.write_json(out / GROUPS_FILE, groups_to_json_dict(groups, params))
    write_sidecar(
        out, "aggregate", [clusters_path], {"prefix_len": cfg.prefix_len, "theta": cfg.theta}
    )
    return f"aggregate: {len(groups)} groups -> {out / GROUPS_FILE}"


def report_stage(cfg: PipelineConfig) -> str:
    """Render ranked reports from the cluster and group artifacts."""
    out = cfg.out_dir
    clusters_path = out / CLUSTERS_FILE
    groups_path = out / GROUPS_FILE
    dataset_path = out / DATASET_FILE
    summaries, noise = clusters_from_json_dict(_read_artifact(clusters_path, "cluster"))
    groups = groups_from_json_dict(_read_artifact(groups_path, "aggregate"))
    if not summaries or not groups:
        raise DataError("empty cluster or group artifact; nothing to report")
    records = read_dataset(dataset_path) if dataset_path.exists() else []
    noise_count = sum(n.count for n in noise)

    doc = build_document(summaries, groups, noise_count, records, cfg.top)
    files = WRITERS[cfg.format](doc)
    for name, payload in files:
        artifacts.write(out / name, payload)
    artifacts.write_json(out / REPORT_METADATA_FILE, doc.metadata)
    write_sidecar(
        out,
        "report",
        [clusters_path, groups_path, dataset_path],
        {"top": cfg.top, "format": cfg.format},
    )
    names = ", ".join(name for name, _ in files)
    return f"report: {names} (shares over {doc.metadata['clustered_records']} clustered records)"


def pipeline_stage(cfg: PipelineConfig, *, get=None) -> str:
    """fetch -> build -> cluster -> aggregate -> report (fetch skipped for fixtures)."""
    lines = []
    if cfg.fixture is None:
        lines.append(fetch_stage(cfg, get=get))
    lines.append(build_stage(cfg))
    lines.append(cluster_stage(cfg))
    lines.append(aggregate_stage(cfg))
    lines.append(report_stage(cfg))
    return "\n".join(lines)
