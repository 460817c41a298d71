"""Ranked recall-initiator reports and their renderers.

Rankings sort by descending case count with lexicographic tie-breaks and
carry each entry's share of the clustered total. Renderers are pure
functions from a report model to bytes, in markdown, CSV, JSON, or a
dependency-free SVG bar chart. A run's reports form one ``ReportDocument``;
``WRITERS`` maps each output format to the files it makes of that document.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import artifacts
from .dataset import RecallRecord
from .errors import ContractError, DataError, UsageError

SCHEMA_VERSION = 1

UNSPECIFIED = "(unspecified)"


@dataclass(frozen=True)
class RankedEntry:
    """One ranked row: member labels, case count and share of the total."""

    rank: int
    members: tuple[str, ...]
    count: int
    share: float

    @property
    def display_label(self) -> str:
        if len(self.members) == 1:
            return self.members[0]
        return str(list(self.members))


@dataclass
class RankedReport:
    """A titled ranking plus the denominator its shares were computed from."""

    title: str
    entries: list[RankedEntry]
    total_count: int
    grouped: bool = False
    metadata: dict = field(default_factory=dict)


@dataclass
class ComparisonReport:
    """Side-by-side top-k of two rankings."""

    title: str
    before: RankedReport
    after: RankedReport
    k: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"k must be >= 1, got {self.k}")


@dataclass
class ReportDocument:
    """A run's reports in output order; firms and devices need the dataset."""

    metadata: dict
    before: RankedReport
    after: RankedReport
    comparison: ComparisonReport
    top_firms: RankedReport | None = None
    top_devices: RankedReport | None = None

    def sections(self) -> list[tuple[str, RankedReport | ComparisonReport]]:
        """(name, report) in output order, leaving out the absent ones."""
        names = ("before", "after", "comparison", "top_firms", "top_devices")
        return [(name, getattr(self, name)) for name in names if getattr(self, name) is not None]


def _coerce_item(item) -> tuple[tuple[str, ...], int]:
    if hasattr(item, "members"):  # an aggregated group
        return tuple(item.members), int(item.total_count)
    return (str(item.label),), int(item.count)  # a cluster summary


def _ranking(pairs: list[tuple[tuple[str, ...], int]], k: int | None = None) -> list[RankedEntry]:
    """The first ``k`` (members, count) pairs by descending count, ties by first member."""
    total = sum(count for _, count in pairs)
    ordered = sorted(pairs, key=lambda pc: (-pc[1], pc[0][0]))
    return [
        RankedEntry(rank=i, members=members, count=count, share=count / total)
        for i, (members, count) in enumerate(ordered[:k], start=1)
    ]


def rank_initiators(items: Sequence) -> list[RankedEntry]:
    """Rank cluster summaries or aggregated groups by descending count.

    Shares use the summed input count as denominator (noise is already
    excluded upstream); ranks are contiguous from 1.
    """
    pairs = [_coerce_item(item) for item in items]
    if not pairs:
        raise DataError("nothing to rank: empty input")
    return _ranking(pairs)


def _counted_ranking(values: Iterable[str], k: int) -> list[RankedEntry]:
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    counts = collections.Counter(value or UNSPECIFIED for value in values)
    return _ranking([((name,), count) for name, count in counts.items()], k)


def top_firms(records: Sequence[RecallRecord], k: int = 10) -> list[RankedEntry]:
    """Firms ranked by recall-record count; blank firms bucket as (unspecified)."""
    return _counted_ranking((r.recalling_firm for r in records), k)


def top_devices(records: Sequence[RecallRecord], k: int = 10) -> list[RankedEntry]:
    """Device names ranked by recall-record count; blanks bucket as (unspecified)."""
    return _counted_ranking((r.device_name for r in records), k)


def build_document(
    summaries: Sequence, groups: Sequence, noise_count: int, records: Sequence[RecallRecord], k: int
) -> ReportDocument:
    """Rank clusters and groups, compare their top ``k`` and, given records, rank firms and devices.

    Shares are over the clustered records; noise only enters the metadata.
    """
    clustered = sum(s.count for s in summaries)
    metadata = {
        "clustered_records": clustered,
        "records_including_noise": clustered + noise_count,
        "share_denominator": "clustered_records",
    }
    before = RankedReport(
        title="Ranked recall initiators (clusters)",
        entries=rank_initiators(summaries),
        total_count=clustered,
        metadata=metadata,
    )
    after = RankedReport(
        title="Ranked recall initiators (aggregated groups)",
        entries=rank_initiators(groups),
        total_count=clustered,
        grouped=True,
        metadata=metadata,
    )
    title = f"Top {k} recall initiators before and after aggregation"
    doc = ReportDocument(metadata, before, after, ComparisonReport(title, before, after, k))
    if records:
        doc.top_firms = RankedReport(f"Top {k} recalled firms", top_firms(records, k), len(records))
        doc.top_devices = RankedReport(
            f"Top {k} recalled devices", top_devices(records, k), len(records)
        )
    return doc


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def _md_escape(s: str) -> str:
    return s.replace("|", "\\|")


def _report_markdown(report: RankedReport) -> str:
    lines = [f"## {report.title}", ""]
    for key in sorted(report.metadata):
        lines.append(f"- {key}: {report.metadata[key]}")
    if report.metadata:
        lines.append("")
    lines.append("| Rank | Initiator | Cases | Share |")
    lines.append("|-----:|-----------|------:|------:|")
    for e in report.entries:
        lines.append(
            f"| {e.rank} | {_md_escape(e.display_label)} | {e.count} | {e.share:.2%} |"
        )
    lines.append("")
    return "\n".join(lines)


def _csv_text(header: list[str], rows: Iterable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_csv(report: RankedReport) -> str:
    rows = ([e.rank, e.display_label, e.count, f"{e.share:.6f}"] for e in report.entries)
    return _csv_text(["rank", "initiator", "cases", "share"], rows)


def _report_json_dict(report: RankedReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "title": report.title,
        "grouped": report.grouped,
        "total_count": report.total_count,
        "metadata": report.metadata,
        "entries": [
            {
                "rank": e.rank,
                "members": list(e.members),
                "count": e.count,
                "share": e.share,
            }
            for e in report.entries
        ],
    }


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _report_svg(report: RankedReport) -> str:
    """Horizontal bar chart: counts as bar lengths, labels as axis text."""
    width, left, right, top, row_h = 960, 340, 80, 56, 26
    entries = report.entries
    height = top + row_h * max(1, len(entries)) + 24
    plot_w = width - left - right
    max_count = max((e.count for e in entries), default=1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="16" y="28" font-family="sans-serif" font-size="18" font-weight="bold">'
        f"{_svg_escape(report.title)}</text>",
    ]
    for i, e in enumerate(entries):
        y = top + i * row_h
        bar_w = plot_w * e.count / max_count
        label = e.display_label
        if len(label) > 44:
            label = label[:43] + "…"
        parts.append(
            f'<text x="{left - 8}" y="{y + 14}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_svg_escape(label)}</text>'
        )
        parts.append(
            f'<rect x="{left}" y="{y}" width="{bar_w:.1f}" height="{row_h - 7}" fill="#31688e"/>'
        )
        parts.append(
            f'<text x="{left + bar_w + 6:.1f}" y="{y + 14}" '
            f'font-family="sans-serif" font-size="12">{e.count}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _comparison_rows(comparison: ComparisonReport) -> list[tuple[str, str, str]]:
    before = [e.display_label for e in comparison.before.entries[: comparison.k]]
    after = [str(list(e.members)) for e in comparison.after.entries[: comparison.k]]
    pairs = itertools.zip_longest(before, after, fillvalue="")
    return [(str(rank), b, a) for rank, (b, a) in enumerate(pairs, start=1)]


def _comparison_markdown(comparison: ComparisonReport) -> str:
    k = comparison.k
    lines = [
        f"## {comparison.title}",
        "",
        f"| Rank | Top {k} before aggregation | Top {k} after aggregation |",
        "|-----:|---------------------------|---------------------------|",
    ]
    for rank, b, a in _comparison_rows(comparison):
        lines.append(f"| {rank} | {_md_escape(b)} | {_md_escape(a)} |")
    lines.append("")
    return "\n".join(lines)


def _comparison_csv(comparison: ComparisonReport) -> str:
    header = ["rank", "before_aggregation", "after_aggregation"]
    return _csv_text(header, _comparison_rows(comparison))


def _comparison_json_dict(comparison: ComparisonReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "title": comparison.title,
        "k": comparison.k,
        "before": _report_json_dict(comparison.before),
        "after": _report_json_dict(comparison.after),
    }


_RENDERERS = {
    RankedReport: {
        "markdown": _report_markdown,
        "csv": _report_csv,
        "json": lambda report: artifacts.json_text(_report_json_dict(report)),
        "svg-bars": _report_svg,
    },
    ComparisonReport: {
        "markdown": _comparison_markdown,
        "csv": _comparison_csv,
        "json": lambda comparison: artifacts.json_text(_comparison_json_dict(comparison)),
    },
}


def render(model: RankedReport | ComparisonReport, fmt: str) -> bytes:
    """Render a report model to bytes; deterministic for a given model."""
    renderer = _RENDERERS.get(type(model), {}).get(fmt)
    if renderer is None:
        raise UsageError(f"cannot render {type(model).__name__} as {fmt!r}")
    return renderer(model).encode("utf-8")


# ---------------------------------------------------------------------------
# Document writers: each returns the (file name, bytes) pairs to write
# ---------------------------------------------------------------------------


def _markdown_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    header = (
        "# Medical device recall initiator report\n\n"
        f"- clustered records: {doc.metadata['clustered_records']}\n"
        f"- records including noise: {doc.metadata['records_including_noise']}\n"
        "- share denominator: clustered records\n\n"
    )
    sections = [render(model, "markdown").decode("utf-8") for _, model in doc.sections()]
    return [("report.md", (header + "\n".join(sections)).encode("utf-8"))]


def _json_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metadata": doc.metadata,
        "before": _report_json_dict(doc.before),
        "after": _report_json_dict(doc.after),
        "comparison": _comparison_json_dict(doc.comparison),
        "top_firms": _report_json_dict(doc.top_firms) if doc.top_firms else None,
        "top_devices": _report_json_dict(doc.top_devices) if doc.top_devices else None,
    }
    return [("report.json", artifacts.json_text(payload).encode("utf-8"))]


def _csv_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    return [(f"report_{name}.csv", render(model, "csv")) for name, model in doc.sections()]


def _svg_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    """One bar chart per ranking, cut to the top k (firms and devices already are)."""
    charts = [
        (name, dataclasses.replace(model, entries=model.entries[: doc.comparison.k]))
        for name, model in doc.sections()
        if isinstance(model, RankedReport)
    ]
    return [(f"report_{name}.svg", render(chart, "svg-bars")) for name, chart in charts]


WRITERS = {
    "markdown": _markdown_files,
    "csv": _csv_files,
    "json": _json_files,
    "svg-bars": _svg_files,
}
FORMATS = tuple(WRITERS)
