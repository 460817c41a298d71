"""Output checks for one pipeline run; each returns a list of problems found.

An empty list means the run passed. Any problem counts the run as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REQUIRED = (
    "effective_config.json",
    "dataset.csv",
    "cleaning_report.json",
    "clusters.json",
    "groups.json",
    "report.md",
    "report_metadata.json",
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    """Hashes of every deterministic artifact: all files but the sidecars."""
    return {
        p.name: sha256(p)
        for p in sorted(out_dir.iterdir())
        if p.is_file() and not p.name.endswith(".meta.json")
    }


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()
    }


def check_artifacts(
    out_dir: Path, rows: int, planted: dict, hashes: dict | None
) -> list[str]:
    """Record conservation, planted cleaning counts and, if given, exact hashes."""
    missing = [name for name in REQUIRED if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    try:
        with open(out_dir / "dataset.csv", encoding="utf-8", newline="") as fh:
            dataset_rows = sum(1 for _ in csv.reader(fh)) - 1
        clusters = json.loads((out_dir / "clusters.json").read_text(encoding="utf-8"))
        groups = json.loads((out_dir / "groups.json").read_text(encoding="utf-8"))
        report = json.loads((out_dir / "cleaning_report.json").read_text(encoding="utf-8"))
        clustered = sum(int(c["count"]) for c in clusters["clusters"])
        noise = sum(int(n["count"]) for n in clusters["noise"])
        grouped = sum(int(g["total_count"]) for g in groups["groups"])
        record_count = int(clusters["record_count"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"]
    if dataset_rows != rows:
        problems.append(f"dataset has {dataset_rows} rows, expected {rows}")
    if not clustered + noise == record_count == dataset_rows:
        problems.append(
            f"records not conserved: {clustered} clustered + {noise} noise, "
            f"record_count {record_count}, {dataset_rows} dataset rows"
        )
    if grouped != clustered:
        problems.append(f"groups total {grouped}, clustered total {clustered}")
    if report != planted:
        problems.append(f"cleaning report {report} differs from planted {planted}")
    if hashes is not None:
        actual = artifact_hashes(out_dir)
        wrong = sorted(set(actual) ^ set(hashes) | {n for n in actual if actual[n] != hashes.get(n)})
        if wrong:
            problems.append(f"artifacts differ from recorded hashes: {', '.join(wrong)}")
    return problems


def check_cache_unchanged(cache_dir: Path, before: dict[str, str]) -> list[str]:
    """A cache-served run must leave every cache file byte-identical."""
    after = tree_hashes(cache_dir)
    changed = sorted(set(before) ^ set(after) | {n for n in after if after[n] != before.get(n)})
    return [f"cache modified: {', '.join(changed)}"] if changed else []


def check_cache_written(cache_dir: Path, origin: dict[str, str]) -> list[str]:
    """A cold run must store each served page verbatim and a manifest for it."""
    after = tree_hashes(cache_dir)
    problems = []
    pages = {n: h for n, h in origin.items() if not n.endswith("manifest.json")}
    wrong = sorted(n for n in pages if after.get(n) != pages[n])
    if wrong:
        problems.append(f"cached pages differ from served pages: {', '.join(wrong)}")
    for endpoint in ("recall", "classification"):
        try:
            manifest = json.loads((cache_dir / endpoint / "manifest.json").read_text("utf-8"))
            recorded = len(manifest["pages"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{endpoint} manifest unreadable: {exc!r}")
            continue
        served = sum(1 for n in pages if n.startswith(endpoint + "/"))
        if recorded != served:
            problems.append(f"{endpoint} manifest lists {recorded} pages, {served} served")
    return problems
