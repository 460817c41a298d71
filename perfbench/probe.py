"""Traced pipeline run: spans around each layer's public functions, from outside.

Usage: python probe.py SPEC.json

SPEC names the workload, how to start the pipeline (``cli`` argv for
``recallscan.cli.main`` or ``cold`` argv for ``cold.main``) and where to write
the trace. The probe imports ``recallscan.cli`` (timed), replaces every name
in ``recallscan.__all__`` listed in ``WRAPPED`` and every ``stages.*_stage``
function with a wrapper that records a span, runs the pipeline, and writes
the spans to the trace file when it ends.

A span holds its name, start, end, parent and workload. Its ``probe_s`` is
the wrapper work of its descendants, which ``layer_metrics`` subtracts.
Counts attached to spans (pages, records, pairs) are derived from the
arguments and results at the boundary, not counted inside the program.
Per-pair and per-call costs of the hot string functions, which run too often
to wrap, are timed after the pipeline over the pairs it compared.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

# Exported functions that get a span; the per-pair and per-record string
# functions (normalize_label, tf_vector, cosine_distance, prefix_key,
# lcs_similarity) are timed after the run instead.
WRAPPED = (
    "fetch_pages",
    "parse_recall_page",
    "parse_classification_page",
    "merge_datasets",
    "clean",
    "write_dataset",
    "read_dataset",
    "cluster_root_causes",
    "dbscan_weighted",
    "aggregate",
    "rank_initiators",
    "top_firms",
    "top_devices",
    "render",
)
STAGES = ("fetch", "build", "cluster", "aggregate", "report")
PAIR_SAMPLE = 5000


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("*") if p.is_file()) if path.is_dir() else 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; wrappers push and pop a parent stack."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.kept: dict = {}  # inputs kept for the after-run timings

    def wrap(self, name: str, fn, derive=None, before=None):
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = {
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "workload": self.workload,
                "probe_s": 0.0,
            }
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            pre = before(args, kwargs) if before else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if derive:
                try:
                    span["derived"] = derive(args, kwargs, result, pre)
                except Exception as exc:  # a renamed attribute must not end the run
                    span["derived"] = {"error": repr(exc)}
            cost = (span["start"] - entered) + (time.perf_counter() - span["end"])
            for index in self.stack:
                self.spans[index]["probe_s"] += cost
            return result

        return wrapper

    def install(self, package, modules) -> list[str]:
        """Swap each probed function for its wrapper wherever it is bound."""
        absent = []
        targets = {name: getattr(package, name, None) for name in WRAPPED}
        targets.update(
            {f"{s}_stage": getattr(package.stages, f"{s}_stage", None) for s in STAGES + ("pipeline",)}
        )
        for name, fn in targets.items():
            if fn is None:
                absent.append(name)
                continue
            span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
            wrapper = self.wrap(span_name, fn, *self._hooks(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
        return absent

    def _hooks(self, name: str):
        if name.endswith("_stage"):
            return (lambda a, k, r, p: {"peak_rss_mb": _peak_rss_mb()}), None
        if name == "fetch_pages":
            def endpoint_dir(args, kwargs):
                spec = args[0] if args else kwargs["spec"]
                cache = args[1] if len(args) > 1 else kwargs["cache_dir"]
                return Path(cache) / spec.endpoint.value

            def before(args, kwargs):
                path = endpoint_dir(args, kwargs)
                return path, not (path / "0.json").exists(), _dir_bytes(path)

            def derive(args, kwargs, result, pre):
                path, cold, size = pre
                return {
                    "pages": len(result),
                    "bytes_read": 0 if cold else sum(len(p.payload) for p in result),
                    "cold": cold,
                    "bytes_written": _dir_bytes(path) - size,
                }

            return derive, before
        if name.startswith("parse_"):
            return (lambda a, k, r, p: {"records": len(r)}), None
        if name == "merge_datasets":
            return (lambda a, k, r, p: {"unmatched": r[1].unmatched_product_codes}), None
        if name == "clean":
            def derive(args, kwargs, result, pre):
                records, report = result
                return {
                    "records_in": len(args[0]),
                    "records_out": len(records),
                    "dropped_null_root_cause": report.dropped_null_root_cause,
                    "dropped_duplicates": report.dropped_duplicates,
                    "dropped_date_outliers": report.dropped_date_outliers,
                    "dropped_total": len(args[0]) - len(records),
                    "stripped_chars": report.stripped_char_count,
                }

            return derive, None
        if name == "write_dataset":
            return (lambda a, k, r, p: {"bytes": Path(a[1]).stat().st_size}), None
        if name == "cluster_root_causes":
            def derive(args, kwargs, result, pre):
                self.kept["root_causes"] = args[0]
                return {
                    "records": len(args[0]),
                    "clusters": result.cluster_count,
                    "noise_records": result.noise_count,
                }

            return derive, None
        if name == "dbscan_weighted":
            def derive(args, kwargs, result, pre):
                self.kept["vectors"] = args[0]
                return {"points": len(args[0])}

            return derive, None
        if name == "aggregate":
            def derive(args, kwargs, result, pre):
                params = args[1] if len(args) > 1 else kwargs.get("params")
                self.kept["labels"] = [s.label for s in args[0]]
                self.kept["prefix_len"] = getattr(params, "prefix_len", 10)
                return {"labels": len(args[0]), "groups": len(result)}

            return derive, None
        if name == "render":
            return (lambda a, k, r, p: {"bytes": len(r)}), None
        return None, None


def _timed_pairs(fn, items: list, pairs: list[tuple[int, int]]) -> float:
    """Mean microseconds per call of ``fn`` over the given index pairs."""
    if not pairs:
        return 0.0
    start = time.perf_counter()
    for i, j in pairs:
        fn(items[i], items[j])
    return (time.perf_counter() - start) / len(pairs) * 1e6


def _pair_sample(n: int) -> list[tuple[int, int]]:
    """All pairs i < j when few, else a fixed random sample of them."""
    if n * (n - 1) // 2 <= PAIR_SAMPLE:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = random.Random(0)
    sample = []
    while len(sample) < PAIR_SAMPLE:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            sample.append((min(i, j), max(i, j)))
    return sample


def after_run_timings(package, tracer: Tracer) -> dict:
    """Time the string functions over the inputs the run gave them."""
    derived: dict = {}
    causes = tracer.kept.get("root_causes")
    if causes is not None:
        start = time.perf_counter()
        for cause in causes:
            package.normalize_label(cause)
        derived["textprep.normalize_label"] = {"s": time.perf_counter() - start}
    vectors = tracer.kept.get("vectors")
    if vectors is not None:
        n = len(vectors)
        derived["textprep.cosine_distance"] = {
            "pairs": n * (n - 1) // 2,
            "us_per_pair": _timed_pairs(package.cosine_distance, vectors, _pair_sample(n)),
        }
    labels = tracer.kept.get("labels")
    if labels is not None:
        prefixes = [package.prefix_key(label, tracer.kept["prefix_len"]) for label in labels]
        n = len(prefixes)
        kernel = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if prefixes[i] and prefixes[j] and prefixes[i] != prefixes[j]
        )
        derived["textprep.lcs_similarity"] = {
            "pairs": n * (n - 1) // 2,
            "kernel_pairs": kernel,
            "us_per_pair": _timed_pairs(package.lcs_similarity, prefixes, _pair_sample(n)),
        }
    return derived


def _span_s(span: dict) -> float:
    return span["end"] - span["start"] - span["probe_s"]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Flatten one trace into per-layer metric values (0 for layers not run)."""
    spans = trace["spans"]
    values: dict[str, float] = {"cli.import_s": trace["import_s"]}
    stage_total = 0.0
    for stage in STAGES:
        s = self_s = rss = 0.0
        for index, span in enumerate(spans):
            if span["name"] != f"stages.{stage}_stage":
                continue
            children = sum(_span_s(c) for c in spans if c["parent"] == index)
            s += _span_s(span)
            self_s += _span_s(span) - children
            rss = span.get("derived", {}).get("peak_rss_mb", 0.0)
        stage_total += s
        values.update({f"stages.{stage}.s": s, f"stages.{stage}.self_s": self_s,
                       f"stages.{stage}.peak_rss_mb": rss})
    roots_probe_s = sum(span["probe_s"] for span in spans if span["parent"] is None)
    values["cli.overhead_s"] = trace["main_s"] - stage_total - roots_probe_s

    def total(name: str, key: str | None = None, where=lambda d: True) -> float:
        found = [sp for sp in spans if sp["name"] == name and where(sp.get("derived", {}))]
        if key is None:
            return sum(_span_s(sp) for sp in found)
        return sum(sp.get("derived", {}).get(key, 0) for sp in found)

    values["fixtures.table2_records.s"] = total("fixtures.table2_records")
    values["openfda.fetch_pages.s"] = total("openfda.fetch_pages")
    values["openfda.fetch_pages.cold_s"] = total("openfda.fetch_pages", where=lambda d: d.get("cold"))
    for key in ("pages", "bytes_read", "bytes_written"):
        values[f"openfda.fetch_pages.{key}"] = total("openfda.fetch_pages", key)
    for key in (None, "records"):
        values[f"openfda.parse_pages.{key or 's'}"] = total(
            "openfda.parse_recall_page", key
        ) + total("openfda.parse_classification_page", key)
    values["dataset.merge_datasets.s"] = total("dataset.merge_datasets")
    values["dataset.merge_datasets.unmatched"] = total("dataset.merge_datasets", "unmatched")
    values["dataset.clean.s"] = total("dataset.clean")
    for key in ("records_in", "records_out", "dropped_null_root_cause", "dropped_duplicates",
                "dropped_date_outliers", "dropped_total", "stripped_chars"):
        values[f"dataset.clean.{key}"] = total("dataset.clean", key)
    values["dataset.write_dataset.s"] = total("dataset.write_dataset")
    values["dataset.write_dataset.bytes"] = total("dataset.write_dataset", "bytes")
    values["dataset.read_dataset.s"] = total("dataset.read_dataset")

    derived = trace["derived"]
    calls = total("dbscan.cluster_root_causes", "records")  # one call per record
    distinct = total("dbscan.dbscan_weighted", "points")  # one point per distinct label
    values["textprep.normalize_label.calls"] = calls
    values["textprep.normalize_label.distinct"] = distinct
    values["textprep.normalize_label.useful_ratio"] = distinct / calls if calls else 0.0
    values["textprep.normalize_label.s"] = derived.get("textprep.normalize_label", {}).get("s", 0.0)
    cosine = derived.get("textprep.cosine_distance", {})
    values["textprep.cosine_distance.pairs"] = cosine.get("pairs", 0)
    values["textprep.cosine_distance.us_per_pair"] = cosine.get("us_per_pair", 0.0)
    lcs = derived.get("textprep.lcs_similarity", {})
    for key in ("pairs", "kernel_pairs", "us_per_pair"):
        values[f"textprep.lcs_similarity.{key}"] = lcs.get(key, 0)

    values["dbscan.cluster_root_causes.s"] = total("dbscan.cluster_root_causes")
    values["dbscan.cluster_root_causes.uniques"] = distinct
    values["dbscan.cluster_root_causes.clusters"] = total("dbscan.cluster_root_causes", "clusters")
    values["dbscan.cluster_root_causes.noise_records"] = total(
        "dbscan.cluster_root_causes", "noise_records"
    )
    values["dbscan.dbscan_weighted.s"] = total("dbscan.dbscan_weighted")
    values["aggregate.aggregate.s"] = total("aggregate.aggregate")
    values["aggregate.aggregate.labels"] = total("aggregate.aggregate", "labels")
    values["aggregate.aggregate.groups"] = total("aggregate.aggregate", "groups")
    for name in ("top_firms", "top_devices", "rank_initiators", "render"):
        values[f"report.{name}.s"] = total(f"report.{name}")
    values["report.render.bytes"] = total("report.render", "bytes")
    return values


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import recallscan.cli

    import_s = time.perf_counter() - start
    import recallscan

    tracer = Tracer(spec["workload"])
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("recallscan")]
    absent = tracer.install(recallscan, modules)
    fixtures = sys.modules.get("recallscan.fixtures")
    builders = getattr(fixtures, "FIXTURE_BUILDERS", {})
    if "table2" in builders:  # the fixture builder is reached through this table only
        builders["table2"] = tracer.wrap("fixtures.table2_records", builders["table2"])
    else:
        absent.append("fixtures.table2_records")

    code = 0
    main_start = time.perf_counter()
    if spec["mode"] == "cli":
        try:
            recallscan.cli.main(args=spec["argv"], standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    else:
        import cold

        code = cold.main(spec["argv"])
    main_s = time.perf_counter() - main_start
    sys.stdout.flush()

    analysis_start = time.perf_counter()
    derived = after_run_timings(recallscan, tracer)
    trace = {
        "workload": spec["workload"],
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
        "absent": absent,
        "derived": derived,
        "spans": tracer.spans,
    }
    trace["analysis_s"] = time.perf_counter() - analysis_start
    Path(spec["trace"]).write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
