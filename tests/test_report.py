import json

import pytest

from recallscan.aggregate import AggregatedGroup
from recallscan.dbscan import ClusterSummary
from recallscan.errors import ContractError, DataError, UsageError
from recallscan.reference import REFERENCE_INITIATORS, TOTAL_CASES
from recallscan.report import (
    FORMATS,
    RankedReport,
    ReportDocument,
    rank_initiators,
    render,
    top_devices,
    top_firms,
)

from .conftest import sample_records
from .oracles import count_ranking

SUMMARIES = [ClusterSummary(i, label, count) for i, (label, count) in enumerate(REFERENCE_INITIATORS)]


def report_of(items, grouped=False, title="Ranked") -> RankedReport:
    entries = rank_initiators(items)
    return RankedReport(title=title, entries=entries, total_count=sum(e.count for e in entries), grouped=grouped)


def document_of(before, after=None, k=10, records=()) -> ReportDocument:
    """A document over ``before`` (and ``after``, else ``before`` again), with firms and devices given records."""
    metadata = {"clustered_records": before.total_count, "records_including_noise": before.total_count}
    doc = ReportDocument(metadata, before, after or before, k)
    if records:
        doc.top_firms = RankedReport("Top firms", top_firms(records, k), len(records))
        doc.top_devices = RankedReport("Top devices", top_devices(records, k), len(records))
    return doc


def test_rank_initiators_reference_top_entry():
    entries = rank_initiators(SUMMARIES)
    first = entries[0]
    assert first.members == ("Under Investigation by firm",)
    assert first.count == 1699
    assert abs(first.share - 1699 / TOTAL_CASES) < 1e-12


def test_rank_initiators_orders_and_breaks_ties_lexicographically():
    entries = rank_initiators(SUMMARIES)
    counts = [e.count for e in entries]
    assert counts == sorted(counts, reverse=True)
    assert [e.rank for e in entries] == list(range(1, len(SUMMARIES) + 1))
    at_135 = [e.members[0] for e in entries if e.count == 135]
    assert at_135 == ["Packaging process control", "Process design"]
    at_49 = [e.members[0] for e in entries if e.count == 49]
    assert at_49 == ["Packaging", "Packaging change control"]


def test_rank_initiators_shares_sum_to_one():
    entries = rank_initiators(SUMMARIES)
    assert abs(sum(e.share for e in entries) - 1.0) < 1e-9


def test_rank_initiators_is_a_permutation_of_input():
    entries = rank_initiators(SUMMARIES)
    assert sorted(e.members[0] for e in entries) == sorted(l for l, _ in REFERENCE_INITIATORS)


def test_rank_single_summary():
    entries = rank_initiators([ClusterSummary(0, "Only", 7)])
    assert entries[0].rank == 1 and entries[0].share == 1.0


def test_rank_accepts_groups():
    groups = [AggregatedGroup(("B", "C"), 5), AggregatedGroup(("A",), 9)]
    entries = rank_initiators(groups)
    assert entries[0].members == ("A",)
    assert entries[1].members == ("B", "C")
    assert entries[1].display_label == "['B', 'C']"


def test_rank_empty_input_raises():
    with pytest.raises(DataError):
        rank_initiators([])


def test_top_firms_single_firm(records):
    same = [r for r in records if r.recalling_firm == "Repro-Med Systems, Inc."]
    entries = top_firms(same, 3)
    assert entries == [entries[0]]
    assert entries[0].members == ("Repro-Med Systems, Inc.",)
    assert entries[0].count == len(same)


def test_top_firms_sample_rows(records):
    entries = top_firms(records, 3)
    assert entries[0].members == ("Repro-Med Systems, Inc.",)
    assert entries[0].count == 2
    # The blank firm lands in the explicit unspecified bucket.
    assert entries[1].members == ("(unspecified)",)


def test_top_firms_matches_counting_oracle():
    records = sample_records() * 3 + sample_records()[:4]
    got = [(e.members[0], e.count) for e in top_firms(records, 5)]
    assert got == count_ranking((r.recalling_firm for r in records), 5)


def test_top_devices_sample_rows(records):
    entries = top_devices(records, 2)
    assert entries[0].members == ("Pump, Infusion",)
    assert entries[0].count == 2


def test_top_devices_matches_counting_oracle():
    records = sample_records() * 2
    got = [(e.members[0], e.count) for e in top_devices(records, 4)]
    assert got == count_ranking((r.device_name for r in records), 4)


def test_top_firms_rejects_k_below_one(records):
    with pytest.raises(ContractError):
        top_firms(records, 0)


def test_render_rejects_unknown_format():
    with pytest.raises(UsageError):
        render(document_of(report_of(SUMMARIES)), "pdf")


def test_render_is_deterministic_across_calls(records):
    doc = document_of(report_of(SUMMARIES), records=records)
    for fmt in FORMATS:
        assert render(doc, fmt) == render(doc, fmt)


def test_render_empty_model_csv_is_header_only():
    empty = RankedReport(title="Nothing", entries=[], total_count=0)
    files = dict(render(document_of(empty), "csv"))
    assert files["report_before.csv"].decode() == "rank,initiator,cases,share\r\n"


def test_markdown_table_rows():
    [(name, text)] = render(document_of(report_of(SUMMARIES)), "markdown")
    assert name == "report.md"
    assert "| 1 | Under Investigation by firm | 1699 | 24.30% |" in text.decode()


def test_comparison_markdown_has_both_columns():
    after_groups = [
        AggregatedGroup(("Process change control", "Process control"), 1155),
        AggregatedGroup(("Device Design",), 1046),
    ]
    doc = document_of(report_of(SUMMARIES), report_of(after_groups, grouped=True))
    [(_, text)] = render(doc, "markdown")
    text = text.decode()
    assert "Top 10 before aggregation" in text and "Top 10 after aggregation" in text
    assert "['Process change control', 'Process control']" in text
    rows = dict(render(doc, "csv"))["report_comparison.csv"].decode().splitlines()
    assert rows[0] == "rank,before_aggregation,after_aggregation"
    assert rows[1] == "1,Under Investigation by firm,\"['Process change control', 'Process control']\""
    assert len(rows) == 1 + 10


def test_json_render_carries_schema_version():
    [(name, data)] = render(document_of(report_of(SUMMARIES)), "json")
    payload = json.loads(data)
    assert name == "report.json"
    assert payload["schema_version"] == payload["comparison"]["schema_version"] == 1
    assert payload["before"]["entries"][0]["count"] == 1699
    assert payload["top_firms"] is None and payload["top_devices"] is None


def test_svg_render_escapes_and_draws_bars():
    model = report_of([ClusterSummary(0, "A & B <cause>", 5), ClusterSummary(1, "Plain", 3)])
    files = dict(render(document_of(model), "svg-bars"))
    assert sorted(files) == ["report_after.svg", "report_before.svg"]  # the comparison has no chart
    svg = files["report_before.svg"].decode()
    assert svg.startswith("<svg")
    assert "A &amp; B &lt;cause&gt;" in svg
    assert svg.count("<rect") == 3  # background + one bar per entry
