"""Ranked recall-initiator reports and their renderers.

Rankings sort by descending case count with lexicographic tie-breaks and
carry each entry's share of the clustered total. A run's reports form one
``ReportDocument``, and ``render(doc, fmt)`` turns it into the files of one
format: markdown, CSV, JSON, or a dependency-free SVG bar chart. Rendering is
a pure function of the document.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import artifacts
from .dataset import Dataset
from .errors import ContractError, DataError, UsageError

SCHEMA_VERSION = 1

UNSPECIFIED = "(unspecified)"


class RankedEntry(NamedTuple):
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


class RankedReport(NamedTuple):
    """A titled ranking plus the denominator its shares were computed from."""

    title: str
    entries: list[RankedEntry]
    total_count: int
    grouped: bool = False
    metadata: Mapping = MappingProxyType({})  # read-only, so no instance can change another's


class ReportDocument(NamedTuple):
    """A run's reports; the comparison is the top ``k`` of ``before`` and ``after``.

    The top ``k`` firms and devices need the dataset and are None without it.
    """

    metadata: dict
    before: RankedReport
    after: RankedReport
    k: int
    top_firms: RankedReport | None = None
    top_devices: RankedReport | None = None


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


def _counted_ranking(column: Iterable[str], k: int) -> list[RankedEntry]:
    """The top ``k`` values of one column by count; blanks count as ``UNSPECIFIED``, merged
    with any value that reads ``UNSPECIFIED`` itself."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    counts = collections.Counter(column)
    if "" in counts:
        counts[UNSPECIFIED] += counts.pop("")
    return _ranking([((name,), count) for name, count in counts.items()], k)


def top_firms(dataset: Dataset, k: int = 10) -> list[RankedEntry]:
    """Firms ranked by recall-record count; blank firms bucket as (unspecified)."""
    return _counted_ranking(dataset.recalling_firm, k)


def top_devices(dataset: Dataset, k: int = 10) -> list[RankedEntry]:
    """Device names ranked by recall-record count; blanks bucket as (unspecified)."""
    return _counted_ranking(dataset.device_name, k)


def build_document(
    summaries: Sequence, groups: Sequence, noise_count: int, dataset: Dataset | None, k: int
) -> ReportDocument:
    """Rank clusters and groups, compare their top ``k`` and, given a dataset, rank firms and devices.

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
    if not dataset:
        return ReportDocument(metadata, before, after, k)
    return ReportDocument(
        metadata, before, after, k,
        RankedReport(f"Top {k} recalled firms", top_firms(dataset, k), len(dataset)),
        RankedReport(f"Top {k} recalled devices", top_devices(dataset, k), len(dataset)),
    )


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
        "metadata": dict(report.metadata),
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


def _report_svg(report: RankedReport, k: int) -> str:
    """Horizontal bar chart of the top ``k``: counts as bar lengths, labels as axis text."""
    width, left, right, top, row_h = 960, 340, 80, 56, 26
    entries = report.entries[:k]
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


def _comparison_title(doc: ReportDocument) -> str:
    return f"Top {doc.k} recall initiators before and after aggregation"


def _comparison_rows(doc: ReportDocument) -> list[tuple[str, str, str]]:
    before = [e.display_label for e in doc.before.entries[: doc.k]]
    after = [str(list(e.members)) for e in doc.after.entries[: doc.k]]
    pairs = itertools.zip_longest(before, after, fillvalue="")
    return [(str(rank), b, a) for rank, (b, a) in enumerate(pairs, start=1)]


def _comparison_markdown(doc: ReportDocument) -> str:
    k = doc.k
    lines = [
        f"## {_comparison_title(doc)}",
        "",
        f"| Rank | Top {k} before aggregation | Top {k} after aggregation |",
        "|-----:|---------------------------|---------------------------|",
    ]
    for rank, b, a in _comparison_rows(doc):
        lines.append(f"| {rank} | {_md_escape(b)} | {_md_escape(a)} |")
    lines.append("")
    return "\n".join(lines)


def _comparison_csv(doc: ReportDocument) -> str:
    header = ["rank", "before_aggregation", "after_aggregation"]
    return _csv_text(header, _comparison_rows(doc))


def _comparison_json_dict(doc: ReportDocument) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "title": _comparison_title(doc),
        "k": doc.k,
        "before": _report_json_dict(doc.before),
        "after": _report_json_dict(doc.after),
    }


# ---------------------------------------------------------------------------
# Formats: each returns the (file name, bytes) pairs it makes of a document
# ---------------------------------------------------------------------------


def _sections(doc: ReportDocument, ranking, comparison) -> list[tuple[str, object]]:
    """Each section of ``doc`` rendered, in output order, as (name, value).

    A section the document lacks, or the comparison when ``comparison`` is
    None, has the value None.
    """
    return [
        ("before", ranking(doc.before)),
        ("after", ranking(doc.after)),
        ("comparison", comparison(doc) if comparison else None),
        ("top_firms", ranking(doc.top_firms) if doc.top_firms else None),
        ("top_devices", ranking(doc.top_devices) if doc.top_devices else None),
    ]


def _markdown_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    header = (
        "# Medical device recall initiator report\n\n"
        f"- clustered records: {doc.metadata['clustered_records']}\n"
        f"- records including noise: {doc.metadata['records_including_noise']}\n"
        "- share denominator: clustered records\n\n"
    )
    sections = _sections(doc, _report_markdown, _comparison_markdown)
    body = "\n".join(text for _, text in sections if text is not None)
    return [("report.md", (header + body).encode("utf-8"))]


def _json_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    """One file; an absent section is kept as null."""
    sections = _sections(doc, _report_json_dict, _comparison_json_dict)
    payload = {"schema_version": SCHEMA_VERSION, "metadata": doc.metadata, **dict(sections)}
    return [("report.json", artifacts.json_text(payload).encode("utf-8"))]


def _csv_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    sections = _sections(doc, _report_csv, _comparison_csv)
    return [(f"report_{name}.csv", text.encode("utf-8")) for name, text in sections if text is not None]


def _svg_files(doc: ReportDocument) -> list[tuple[str, bytes]]:
    """One bar chart per ranking, cut to the top k; the comparison has none."""
    sections = _sections(doc, lambda report: _report_svg(report, doc.k), None)
    return [(f"report_{name}.svg", text.encode("utf-8")) for name, text in sections if text is not None]


_FILES = {
    "markdown": _markdown_files,
    "csv": _csv_files,
    "json": _json_files,
    "svg-bars": _svg_files,
}
FORMATS = tuple(_FILES)


def render(doc: ReportDocument, fmt: str) -> list[tuple[str, bytes]]:
    """The (file name, bytes) pairs that format ``fmt`` makes of ``doc``; deterministic."""
    if fmt not in _FILES:
        raise UsageError(f"unknown report format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return _FILES[fmt](doc)
