"""Pipeline stages and their file artifacts.

``INPUTS`` is the artifact graph. Every stage writes its artifacts plus a
``<stage>.meta.json`` sidecar (input hashes, config, timestamp) and returns
a one-line summary for the CLI. All artifacts are deterministic; only the
sidecars carry timestamps. A stage reads its inputs with ``load`` and writes
with ``save``; inside ``pipeline`` the values saved are handed on in ``run``.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
import math
import sys
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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load(cfg: PipelineConfig, stage: str, name: str, run: dict | None = None):
    """The input ``name`` of ``stage``: its value in ``run``, else its file parsed, which for
    JSON gives that same payload dict. A missing file is a ``DataError`` naming its producer.
    """
    if run and name in run:
        return run[name]
    path = cfg.out_dir / name
    if not path.exists():
        raise DataError(f"missing input artifact {path}; run {INPUTS[stage][name]} first")
    return read_dataset(path) if name == DATASET_FILE else artifacts.read_object(path, "artifact")


def save(cfg: PipelineConfig, name: str, value, run: dict | None = None) -> None:
    """Write the artifact ``name`` from ``value`` and keep ``value`` in ``run`` for later stages."""
    if name == DATASET_FILE:
        write_dataset(value, cfg.out_dir / name)
    else:
        artifacts.write_json(cfg.out_dir / name, value)
    if run is not None:
        run[name] = value


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
    write_sidecar(cfg, "fetch", records=totals, reported=reported)
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
        records, report = clean(raw, rules)
    else:
        rows: dict[openfda.Endpoint, list[dict]] = {endpoint: [] for endpoint in openfda.Endpoint}
        for endpoint, sink in rows.items():
            def not_cached(url, params, timeout, endpoint=endpoint):  # a DataError is not retried
                page = params["skip"] // params["limit"]
                raise DataError(
                    f"{endpoint.value} page {page} is not cached under {cfg.cache_dir}; run fetch first"
                )

            # A pipeline's fetch left its pages in ``run``; popped, they die with this loop.
            for page in run.pop(endpoint) if run and endpoint in run else openfda.fetch_pages(
                cfg.fetch_spec(endpoint), cfg.cache_dir, get=not_cached
            ):
                sink.extend(page.rows)
        recalls, classifications = rows.values()  # in Endpoint order
        if not recalls:
            search = cfg.fetch_spec(openfda.Endpoint.RECALL).search_expression()
            raise DataError(f"the recall query {search} returned no records; nothing to build")
        merged, stats = merge_datasets(recalls, classifications)
        records, report = clean(merged, rules)
        report.unmatched_product_codes = stats.unmatched_product_codes
        merge = {"duplicate_classification_codes": stats.duplicate_classification_codes}

    save(cfg, DATASET_FILE, records, run)
    save(cfg, CLEANING_REPORT_FILE, report.to_dict(), run)
    write_sidecar(cfg, "build", **merge)
    return f"build: {len(records)} records -> {cfg.out_dir / DATASET_FILE}"


def cluster_stage(cfg: PipelineConfig, *, run: dict | None = None) -> str:
    """Cluster root-cause texts and write clusters.json."""
    records = load(cfg, "cluster", DATASET_FILE, run)
    if not records:
        raise DataError(f"dataset {cfg.out_dir / DATASET_FILE} holds no records; nothing to cluster")
    result = cluster_root_causes([r.root_cause_description for r in records], cfg.dbscan_params())
    save(cfg, CLUSTERS_FILE, clusters_to_json_dict(result), run)
    write_sidecar(cfg, "cluster", points=result.points)
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
    overrides = MergeOverrides.from_file(cfg.overrides_file) if cfg.overrides_file else None
    check_lineage(cfg, "aggregate")
    groups = aggregate(summaries, params, overrides)
    save(cfg, GROUPS_FILE, groups_to_json_dict(groups, params), run)
    write_sidecar(cfg, "aggregate")
    return f"aggregate: {len(groups)} groups -> {out / GROUPS_FILE}"


def report_stage(cfg: PipelineConfig, *, run: dict | None = None) -> str:
    """Render ranked reports from the stage artifacts."""
    out = cfg.out_dir
    summaries, noise = clusters_from_json_dict(load(cfg, "report", CLUSTERS_FILE, run))
    groups = groups_from_json_dict(load(cfg, "report", GROUPS_FILE, run))
    if not summaries or not groups:
        raise DataError("empty cluster or group artifact; nothing to report")
    records = load(cfg, "report", DATASET_FILE, run) if (out / DATASET_FILE).exists() else []
    check_lineage(cfg, "report")
    noise_count = sum(n.count for n in noise)

    doc = build_document(summaries, groups, noise_count, records, cfg.top)
    files = render(doc, cfg.format)
    for name, payload in files:
        artifacts.write(out / name, payload)
    save(cfg, REPORT_METADATA_FILE, doc.metadata, run)
    write_sidecar(cfg, "report")
    names = ", ".join(name for name, _ in files)
    return f"report: {names} (shares over {doc.metadata['clustered_records']} clustered records)"


def pipeline_stage(cfg: PipelineConfig, *, get=None) -> str:
    """Run fetch, build, cluster, aggregate and report in sequence (a fixture skips fetch)."""
    run: dict = {}  # saved values by file name and fetch's pages by endpoint, for the next stages
    lines = [fetch_stage(cfg, get=get, run=run)] if cfg.fixture is None else []
    for stage in (build_stage, cluster_stage, aggregate_stage, report_stage):
        lines.append(stage(cfg, run=run))
    return "\n".join(lines)
