import csv
import datetime as dt
import hashlib
import io
import json
import operator
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from recallscan import stages
from recallscan.dataset import (
    ALLOWED_PUNCTUATION,
    DATASET_HEADER,
    CleaningRules,
    Dataset,
    RecallRecord,
    _strip_text,
    clean,
    merge_datasets,
    iso_date,
    parse_date,
    read_dataset,
    write_dataset,
)
from recallscan.errors import ContractError, FormatError
from recallscan.fixtures import table2_records
from recallscan.reference import TOTAL_CASES
from recallscan.openfda import _FIELDS, Endpoint

from .conftest import (
    FakeOpenFDA,
    classification_columns,
    classification_entries,
    recall_columns,
    recall_entries,
    sample_dataset,
    sample_records,
)
from .oracles import clean_ref, merge_ref

RULES = CleaningRules(dt.date(2018, 1, 1), dt.date(2024, 4, 15))


def record(**overrides) -> RecallRecord:
    base = dict(
        product_code="FRN",
        event_date_posted="2018-01-02",
        recalling_firm="Smith Medical ASD Inc.",
        root_cause_description="Process design",
        product_quantity="86 units",
        device_name="Pump, Infusion",
        device_class="2",
    )
    base.update(overrides)
    return RecallRecord(**base)


def iso_dates(*bounds: dt.date) -> st.SearchStrategy[str]:
    """Dates as the dataset holds them, ``YYYY-MM-DD`` text."""
    return st.dates(*bounds).map(dt.date.isoformat)


def columns(*rows) -> list[list]:
    """``rows`` as the columns they make, one list per field."""
    return [list(column) for column in zip(*rows)]


# --- record type -------------------------------------------------------------


def test_record_fields_follow_the_dataset_header_and_are_read_only():
    assert RecallRecord._fields == DATASET_HEADER
    rec = record()
    for name in DATASET_HEADER:
        with pytest.raises(AttributeError):
            setattr(rec, name, "x")
    assert rec == record() and hash(rec) == hash(record())


def test_dataset_holds_one_column_per_field_and_counts_records():
    recs = [record(), record(product_code="ZZZ", event_date_posted="")]
    data = Dataset.from_records(recs)
    assert len(data) == 2 and len(Dataset.from_records([])) == 0
    assert data.columns == tuple(getattr(data, name) for name in DATASET_HEADER)
    assert data.product_code == ["FRN", "ZZZ"] and data.event_date_posted == ["2018-01-02", ""]
    assert data.records() == recs and all(type(rec) is RecallRecord for rec in data.records())
    assert data == Dataset(*map(tuple, data.columns)) != Dataset.from_records(recs[:1])


@pytest.mark.parametrize(
    "lengths", [(1,) * 6, (1,) * 8, (1, 1, 1, 2, 1, 1, 1)], ids=["six", "eight", "ragged"]
)
def test_dataset_refuses_columns_of_another_count_or_length(lengths):
    with pytest.raises(ContractError, match="columns of one length") as caught:
        Dataset(*(["x"] * n for n in lengths))
    assert caught.value.exit_code == 5


def test_dataset_refuses_rows_of_another_length():
    with pytest.raises(ContractError, match=r"dataset rows of unequal lengths \[6, 7\]") as caught:
        Dataset.from_records([record(), record()[:6]])
    assert caught.value.exit_code == 5


# --- reference rules the fast paths must match ---------------------------------


def strip_text_ref(s: str) -> tuple[str, int]:
    kept = [ch for ch in s if ch.isalnum() or ch == " " or ch in ALLOWED_PUNCTUATION]
    return "".join(kept), len(s) - len(kept)


def parse_date_ref(value: str) -> dt.date | None:
    for fmt in ("%Y-%m-%d", "%Y%m%d"):
        try:
            return dt.datetime.strptime(value, fmt).date()
        except ValueError:
            continue
    return None


mixed_text = st.one_of(
    st.text(),
    st.text(alphabet=string.printable + "".join(ALLOWED_PUNCTUATION) + "é²٣"),
    st.text(alphabet="ab1 /,()-.é²٣"),
)


@given(mixed_text)
@example("")
@example("Process design")
@example("Process\tdesign")
@example("Nonconforming Material/Component (each), 1.5-2")
@example("Café² ٣")
@example("Smith & Nephew")
def test_strip_text_matches_the_per_character_rule(s):
    assert _strip_text(s) == strip_text_ref(s)


@given(st.one_of(st.text(), st.text(alphabet="0123456789-"), st.dates().map(str)))
@example("2024-1-5")
@example("20240105")
@example("")
@example("2024-02-30")
@example(" 2024-01-05")
@example("0000-01-01")
@example("20241301")
@example("2024-W01-1")  # fromisoformat takes this ISO week date from 3.11 on; strptime does not
@example("٢٠٢٤-٠١-٠٥")
@example("٢٠٢٤-01-05")  # strptime's %Y matches any script's digits, so only ASCII may skip it
@example("2024-01-05\n")
@example("202401011")  # nine digits: the fast path must match the whole string
@example("2024-1-05")
def test_parse_date_matches_the_two_format_rule(s):
    expected = parse_date_ref(s)
    assert parse_date(s) == expected


# --- merge -----------------------------------------------------------------


def test_merge_joins_on_product_code():
    merged, stats = merge_datasets(recall_columns(), classification_columns())
    assert len(merged) == len(recall_columns()[0])
    first = merged.records()[0]
    assert first.device_name == "Pump, Infusion"
    assert first.device_class == "2"
    assert first.event_date_posted == "2018-01-02"
    assert stats.unmatched_product_codes == 0


def test_merge_unmatched_code_gets_empty_device_and_unknown_class():
    merged, stats = merge_datasets(columns(("ZZZ", "", "", "Other", "")), classification_columns())
    assert merged.device_name[0] == ""
    assert merged.device_class[0] == "unknown"
    assert stats.unmatched_product_codes == 1


def test_merge_first_classification_wins_and_counts_duplicates():
    classifications = columns(("FRN", "Pump, Infusion", "2"), ("FRN", "Other Device", "3"))
    merged, stats = merge_datasets(columns(("FRN", "", "", "Other", "")), classifications)
    assert merged.device_name[0] == "Pump, Infusion"
    assert merged.device_class[0] == "2"
    assert stats.duplicate_classification_codes == 1


def test_merge_preserves_recall_count_and_order():
    recalls = recall_columns()
    merged, _ = merge_datasets(recalls, [[], [], []])
    assert len(merged) == len(recalls[0])
    assert list(merged.product_code) == recalls[0]


def test_merge_maps_odd_class_values_to_unknown():
    merged, _ = merge_datasets(columns(("AAA", "", "", "", "")), columns(("AAA", "Thing", "U")))
    assert merged.device_class[0] == "unknown"


@pytest.mark.parametrize(
    "recalls, classifications",
    [
        (recall_entries(), classification_entries()),  # the dict rows pages once held
        (recall_columns(), classification_entries()),
        (recall_entries(), classification_columns()),
        (recall_columns()[:4], classification_columns()),
        (recall_columns(), classification_columns() + [[""] * len(classification_columns()[0])]),
        (recall_columns()[:4] + [recall_columns()[4][:-1]], classification_columns()),
    ],
    ids=["dicts", "dict-classifications", "dict-recalls", "short-recalls", "long-classifications",
         "ragged-recalls"],
)
def test_merge_refuses_rows_of_another_shape(recalls, classifications):
    with pytest.raises(ContractError, match="columns of one length") as caught:
        merge_datasets(recalls, classifications)
    assert caught.value.exit_code == 5


def entries(fields: tuple[str, ...], **values) -> st.SearchStrategy[list[dict]]:
    """Lists of page entries with the endpoint's fields, each key possibly absent."""
    optional = {key: values.get(key, st.text(max_size=4)) for key in fields}
    entry = st.fixed_dictionaries({}, optional=optional)
    return st.lists(entry, max_size=12)


codes = st.sampled_from(["", "AAA", "BBB", "CCC", "DDD"])  # few, so duplicates and misses occur


@given(
    entries(
        _FIELDS[Endpoint.RECALL],
        product_code=codes,
        event_date_posted=st.one_of(
            st.sampled_from(["", "2018-01-02", "20240105", "2024-02-30", "2024-1-5", "junk"]),
            st.dates().map(str),
        ),
    ),
    entries(
        _FIELDS[Endpoint.CLASSIFICATION],
        product_code=codes,
        device_class=st.sampled_from(["", "1", "2", "3", "U", "N", "f", "4", " 2"]),
    ),
)
def test_merge_of_rows_matches_the_dict_reference(recalls, classifications):
    def page_columns(entries, endpoint):
        return [[entry.get(key, "") for entry in entries] for key in _FIELDS[endpoint]]

    merged, stats = merge_datasets(
        page_columns(recalls, Endpoint.RECALL), page_columns(classifications, Endpoint.CLASSIFICATION)
    )
    expected, duplicates, unmatched = merge_ref(recalls, classifications)
    assert [tuple(rec) for rec in merged.records()] == expected
    assert (stats.duplicate_classification_codes, stats.unmatched_product_codes) == (duplicates, unmatched)


# Raw page dates in every form a page may hold: ISO, YYYYMMDD, one-digit months and
# days, junk and "".
raw_dates = st.one_of(
    iso_dates(dt.date(2017, 1, 1), dt.date(2025, 1, 1)),
    st.dates(dt.date(2017, 1, 1), dt.date(2025, 1, 1)).flatmap(
        lambda d: st.sampled_from([f"{d:%Y%m%d}", f"{d.year}-{d.month}-{d.day}", f"{d.year}-{d.month}-{d.day:02}"])
    ),
    st.dates().map(dt.date.isoformat),
    st.text(alphabet="0123456789-/ ", max_size=10),
    st.text(max_size=10),
)


@given(st.lists(st.tuples(st.sampled_from(["AAA", "BBB"]), raw_dates), max_size=12))
@example([("AAA", "2019-01-01"), ("AAA", "20190101")])  # one day spelled two ways: a duplicate once merged
@example([("AAA", d) for d in ("2018-01-01", "2017-12-31", "2024-04-15", "2024-04-16", "20240416", "2024-4-1", "")])
def test_merge_makes_each_raw_date_its_iso_text_and_clean_windows_that_text(rows):
    raws = [raw for _, raw in rows]
    n = len(rows)
    merged, _ = merge_datasets([[code for code, _ in rows], raws, ["Smith"] * n, ["Cause"] * n, [""] * n], [[]] * 3)
    assert merged.event_date_posted == [d.isoformat() if (d := parse_date_ref(raw)) else "" for raw in raws]
    kept, report = clean(merged, RULES)
    ref_kept, ref_counts = clean_ref(merged.records(), RULES.date_from, RULES.date_to)
    assert kept.records() == ref_kept
    assert report.to_dict() == {**ref_counts, "unmatched_product_codes": 0}


# --- clean -----------------------------------------------------------------


def test_cleaning_rules_refuse_a_window_that_ends_before_it_starts():
    with pytest.raises(ContractError, match="is after"):
        CleaningRules(dt.date(2024, 1, 2), dt.date(2024, 1, 1))
    with pytest.raises(ContractError, match="is after"):
        CleaningRules(date_to=dt.date(2024, 1, 1), date_from=dt.date(2024, 1, 2))
    assert CleaningRules(dt.date(2024, 1, 1), dt.date(2024, 1, 1)).date_to == dt.date(2024, 1, 1)


def test_clean_drops_empty_root_cause():
    kept, report = clean(Dataset.from_records([record(root_cause_description="")]), RULES)
    assert kept.records() == []
    assert report.dropped_null_root_cause == 1


def test_clean_drops_whitespace_and_strips_to_empty_root_cause():
    kept, report = clean(
        Dataset.from_records([record(root_cause_description="   "), record(root_cause_description="??!")]),
        RULES,
    )
    assert kept.records() == []
    assert report.dropped_null_root_cause == 2


def test_clean_strips_disallowed_characters_and_counts_them():
    rec = record(
        root_cause_description="Process* design?",
        recalling_firm="Smith & Nephew, Inc.",
    )
    kept, report = clean(Dataset.from_records([rec]), RULES)
    assert kept.records()[0].root_cause_description == "Process design"
    assert kept.records()[0].recalling_firm == "Smith  Nephew, Inc."
    assert report.stripped_char_count == 3  # '*', '?', '&'


def test_clean_keeps_allowed_punctuation():
    rec = record(
        root_cause_description="Nonconforming Material/Component",
        product_quantity="153 cases, 30 units (each)",
        device_name="Labelling mix-ups Inc.",
    )
    kept, report = clean(Dataset.from_records([rec]), RULES)
    assert kept.records()[0] == rec
    assert report.stripped_char_count == 0


@given(st.builds(record, root_cause_description=st.text(alphabet="ab ?*é", max_size=6),
                 recalling_firm=st.sampled_from(["Smith & Nephew", "Baxter, Inc."])))
@example(record())
def test_clean_copies_a_record_only_when_it_stripped_something(rec):
    kept, report = clean(Dataset.from_records([rec]), RULES)
    if kept:  # every value is the one passed in unless something was stripped
        assert all(map(operator.is_, kept.records()[0], rec)) == (report.stripped_char_count == 0)


def test_clean_deduplicates_keeping_first():
    kept, report = clean(Dataset.from_records([record(), record(), record(device_class="3")]), RULES)
    assert len(kept) == 2
    assert report.dropped_duplicates == 1


def test_clean_drops_date_outliers_and_missing_dates():
    out_of_range = record(event_date_posted="2017-12-31")
    missing = record(event_date_posted="", product_code="ZZZ")
    kept, report = clean(Dataset.from_records([record(), out_of_range, missing]), RULES)
    assert len(kept) == 1
    assert report.dropped_date_outliers == 2


@given(
    st.lists(
        st.builds(
            record,
            root_cause_description=st.text(alphabet="ab ?*", max_size=6),
            product_code=st.sampled_from(["FRN", "ZZZ"]),
            event_date_posted=st.one_of(st.just(""), iso_dates(dt.date(2017, 1, 1), dt.date(2025, 1, 1))),
        ),
        max_size=15,
    )
)
def test_clean_is_idempotent(recs):
    once, _ = clean(Dataset.from_records(recs), RULES)
    twice, report = clean(once, RULES)
    assert twice == once
    assert report.dropped_null_root_cause == 0
    assert report.dropped_duplicates == 0
    assert report.dropped_date_outliers == 0
    assert report.stripped_char_count == 0


dirty_text = st.one_of(st.text(alphabet="ab /,.&?*\té²٣", max_size=5), st.sampled_from(["", "  ", "?*"]))


@given(
    st.lists(
        st.builds(
            record,
            product_code=st.sampled_from(["FRN", "Z*Z", "é"]),
            recalling_firm=dirty_text,
            root_cause_description=dirty_text,
            product_quantity=dirty_text,
            device_name=dirty_text,
            event_date_posted=st.one_of(st.just(""), iso_dates(dt.date(2017, 1, 1), dt.date(2025, 1, 1))),
        ),
        max_size=15,
    ).map(lambda recs: recs + recs[::2])  # every other record again, as a duplicate
)
@example([record(), record(recalling_firm="Smith & Nephew"), record(device_name="Café²")])
def test_clean_matches_the_per_field_reference(recs):
    kept, report = clean(Dataset.from_records(recs), RULES)
    ref_kept, ref_counts = clean_ref(recs, RULES.date_from, RULES.date_to)
    assert kept.records() == ref_kept
    assert report.to_dict() == {**ref_counts, "unmatched_product_codes": 0}


# Few values per field, so rows collide: a day spelled two ways is one date once parsed,
# values equal once stripped (Smith? and Smith) make duplicates, some causes strip to
# nothing, code DDD is never classified and classification codes repeat.
RECALL_ENTRY = {
    "product_code": "AAA",
    "event_date_posted": "2019-01-01",
    "recalling_firm": "Smith",
    "root_cause_description": "Process design",
    "product_quantity": "1 unit",
}
recall_entry = st.fixed_dictionaries({
    "product_code": st.sampled_from(["AAA", "BBB", "DDD"]),
    "event_date_posted": st.sampled_from(["2019-01-01", "20190101", "2017-12-31", "2024-04-16", "", "junk"]),
    "recalling_firm": st.sampled_from(["Smith", "Smith?", "", "Baxter, Inc."]),
    "root_cause_description": st.sampled_from(["Process design", "Process design?", "", "  ", "?*"]),
    "product_quantity": st.sampled_from(["1 unit", "1 unit!", ""]),
})
classification_entry = st.fixed_dictionaries({
    "product_code": st.sampled_from(["AAA", "BBB", "EEE"]),
    "device_name": st.sampled_from(["Pump", "Pump?", "Pump, Infusion", ""]),
    "device_class": st.sampled_from(["1", "2", "U", ""]),
})


@settings(max_examples=40, deadline=None)
@given(st.lists(recall_entry, min_size=1, max_size=14), st.lists(classification_entry, max_size=8))
@example(
    [
        RECALL_ENTRY,
        {**RECALL_ENTRY, "event_date_posted": "20190101"},  # a duplicate once parsed
        {**RECALL_ENTRY, "recalling_firm": "Smith?"},  # a duplicate once stripped
        {**RECALL_ENTRY, "root_cause_description": "?*"},  # blank once stripped
        {**RECALL_ENTRY, "root_cause_description": ""},
        {**RECALL_ENTRY, "product_code": "DDD", "event_date_posted": "2017-12-31"},
        {**RECALL_ENTRY, "product_code": "DDD", "event_date_posted": "2017-12-31"},
        {**RECALL_ENTRY, "product_quantity": "2 units"},
    ],
    [
        {"product_code": "AAA", "device_name": "Pump?", "device_class": "2"},
        {"product_code": "AAA", "device_name": "Other", "device_class": "3"},
    ],
)
def test_build_of_paged_columns_matches_the_merge_and_clean_references(
    tmp_path_factory, recalls, classifications
):
    # Pages of three entries, so every column is put together from more than one page.
    work = tmp_path_factory.mktemp("build")
    cfg = stages.PipelineConfig(cache_dir=str(work / "cache"), out=str(work / "out"), page_size=3)
    run: dict = {}
    stages.fetch_stage(cfg, get=FakeOpenFDA(recalls, classifications), run=run)
    stages.build_stage(cfg, run=run)

    rows, duplicates, unmatched = merge_ref(recalls, classifications)
    kept, counts = clean_ref([RecallRecord(*row) for row in rows], RULES.date_from, RULES.date_to)
    assert run["dataset.csv"].records() == kept
    assert run["cleaning_report.json"] == {**counts, "unmatched_product_codes": unmatched}
    sidecar = json.loads((work / "out" / "build.meta.json").read_text())
    assert sidecar["duplicate_classification_codes"] == duplicates


def test_fixture_survives_cleaning_untouched():
    records = table2_records()
    kept, report = clean(records, RULES)
    assert kept == records
    assert report.to_dict() == {
        "dropped_null_root_cause": 0,
        "dropped_duplicates": 0,
        "dropped_date_outliers": 0,
        "stripped_char_count": 0,
        "unmatched_product_codes": 0,
    }


@pytest.mark.parametrize("date_from", [dt.date(2020, 1, 2), dt.date(2020, 1, 5)], ids=["one-day", "four-days"])
def test_fixture_refuses_a_window_that_ends_before_it_starts(date_from):
    # Reversed by one day, the window used to divide by zero; by four, it dated records outside it.
    with pytest.raises(ContractError, match="after date_to"):
        table2_records(date_from, dt.date(2020, 1, 1))


def test_fixture_takes_a_one_day_window():
    day = dt.date(2020, 1, 2)
    records = table2_records(day, day)
    assert len(records) == TOTAL_CASES and set(records.event_date_posted) == {"2020-01-02"}


# --- file round-trips --------------------------------------------------------


def test_empty_dataset_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    write_dataset(Dataset.from_records([]), path)
    assert path.read_bytes() == (",".join(DATASET_HEADER) + "\r\n").encode("utf-8")
    assert read_dataset(path).records() == []


def test_sample_rows_roundtrip_exactly(tmp_path):
    path = tmp_path / "sample.csv"
    records = sample_dataset()
    write_dataset(records, path)
    assert read_dataset(path) == records


def test_double_write_of_7000_records_is_byte_identical(tmp_path):
    records = Dataset.from_records(table2_records().records() + [
        record(product_code=f"Z{i:02d}", root_cause_description="Synthetic cause") for i in range(9)
    ])
    assert len(records) == 7000
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(records, a)
    write_dataset(records, b)
    assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


def csv_writer_bytes(records) -> bytes:
    """What csv.writer writes for the header and ``records``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(DATASET_HEADER)
    writer.writerows(records)
    return buf.getvalue().encode("utf-8")


def test_write_dataset_matches_csv_writer_over_iso_strings(tmp_path):
    records = [
        record(event_date_posted="", recalling_firm='Smith, "Jr" & Co'),
        record(root_cause_description="Design, software", product_quantity='12 "cases"'),
        record(device_name="Line one\nline two", event_date_posted="2024-04-15"),
    ]
    path = tmp_path / "data.csv"
    write_dataset(Dataset.from_records(records), path)
    assert path.read_bytes() == csv_writer_bytes(records)


# NUL is left out: csv.writer raises on it on 3.10 and writes it raw from 3.11, and
# clean strips it, so the pipeline never writes one.
csv_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\r\n\u2028 éßЖ٣'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=10,
)
csv_records = st.builds(
    RecallRecord,
    product_code=csv_text,
    event_date_posted=st.one_of(st.just(""), iso_dates()),
    recalling_firm=csv_text,
    root_cause_description=csv_text,
    product_quantity=csv_text,
    device_name=csv_text,
    device_class=csv_text,
)


@given(
    st.one_of(
        st.lists(csv_records, max_size=8),
        # Past one encoding block: a drawn set repeated to 1025..2100 records.
        st.tuples(st.lists(csv_records, min_size=1, max_size=8), st.integers(1025, 2100)).map(
            lambda drawn: (drawn[0] * drawn[1])[: drawn[1]]  # (records, n) -> n records
        ),
    )
)
@example([record(product_code="", recalling_firm='"', device_name="\u2028")] * 1025)
# The first value that needs quoting is in the second block; the first block has none to quote.
@example([record(device_name="Pump")] * 1024 + [record(device_name="Pump, Infusion"), record(device_name="Pump")])
def test_write_dataset_writes_the_bytes_of_csv_writer(tmp_path_factory, recs):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_dataset(Dataset.from_records(recs), path)
    assert path.read_bytes() == csv_writer_bytes(recs)


def test_write_cut_off_midway_keeps_the_previous_dataset(tmp_path):
    path = tmp_path / "dataset.csv"
    write_dataset(sample_dataset(), path)
    previous = path.read_bytes()

    class CutOff(list):
        """A column whose blocks after the first cannot be read."""

        def __getitem__(self, index):
            if isinstance(index, slice) and index.start:
                raise OSError("no space left on device")
            return super().__getitem__(index)

    fixture = table2_records()
    with pytest.raises(OSError, match="no space"):
        write_dataset(Dataset(*fixture.columns[:6], CutOff(fixture.device_class)), path)
    assert path.read_bytes() == previous
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_wrong_header_raises_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(FormatError):
        read_dataset(path)


def test_missing_file_raises_format_error(tmp_path):
    with pytest.raises(FormatError):
        read_dataset(tmp_path / "nope.csv")


def test_decode_error_past_the_first_64_kib_raises_format_error(tmp_path):
    # The read streams, so bad bytes far into the file surface mid-loop, not in one up-front decode.
    path = tmp_path / "dataset.csv"
    write_dataset(Dataset.from_records(table2_records().records()[:2000]), path)
    data = path.read_bytes()
    assert len(data) > 3 * 65536
    path.write_bytes(data[:-40] + b"\xff\xfe" + data[-38:])
    with pytest.raises(FormatError, match="cannot read dataset") as caught:
        read_dataset(path)
    assert caught.value.exit_code == 4


@pytest.mark.parametrize(
    "date_row, short_row", [(1500, 1600), (1600, 1500), (5, 1500), (1030, 1025)],
    ids=["date-first", "width-first", "blocks-apart", "second-block"],
)
def test_read_reports_the_earliest_bad_row(tmp_path, date_row, short_row):
    path = tmp_path / "dataset.csv"
    write_dataset(Dataset.from_records(table2_records().records()[:2000]), path)
    lines = path.read_bytes().split(b"\r\n")  # lines[r - 1] is file row r; row 1 is the header
    code, _, rest = lines[date_row - 1].split(b",", 2)
    lines[date_row - 1] = b",".join((code, b"2024-13-01", rest))
    lines[short_row - 1] = b"AAA,2024-01-01"
    path.write_bytes(b"\r\n".join(lines))
    expected = (
        f"row {date_row} has a malformed event_date_posted '2024-13-01'" if date_row < short_row
        else f"row {short_row} has 2 fields"
    )
    with pytest.raises(FormatError, match=expected):
        read_dataset(path)


def test_read_names_the_malformed_date_not_an_absent_one_before_it(tmp_path):
    path = tmp_path / "dataset.csv"
    dates = ["2018-01-02", "", "2024-13-01", ""]
    write_dataset(Dataset.from_records([record(event_date_posted=date) for date in dates]), path)
    with pytest.raises(FormatError, match="row 4 has a malformed event_date_posted '2024-13-01'"):
        read_dataset(path)


@pytest.mark.parametrize(
    "short_row, long_row, expected",
    [
        (3, 5, "row 3 has 6 fields"),
        (None, 5, "row 5 cannot be read: field larger than field limit"),
        (1500, 1600, "row 1500 has 6 fields"),
        (None, 1030, "row 1030 cannot be read"),
    ],
    ids=["short-first", "long-alone", "short-first-later-block", "long-in-second-block"],
)
def test_read_reports_a_row_csv_cannot_read_after_the_rows_before_it(tmp_path, short_row, long_row, expected):
    path = tmp_path / "dataset.csv"
    write_dataset(Dataset.from_records(table2_records().records()[:2000]), path)
    lines = path.read_bytes().split(b"\r\n")  # lines[r - 1] is file row r
    if short_row is not None:
        lines[short_row - 1] = lines[short_row - 1].rsplit(b",", 1)[0]
    lines[long_row - 1] += b"x" * (csv.field_size_limit() + 1)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(FormatError, match=expected) as caught:
        read_dataset(path)
    assert caught.value.exit_code == 4


@given(raw_dates.filter(lambda date: "\x00" not in date))  # csv on 3.10 reads no NUL at all
@example("")
@example("2024-01-05")
@example("20240105")
@example("2024-02-30")
@example("2024-W01-1")
@example("٢٠٢٤-01-05")
def test_read_takes_a_date_exactly_when_it_is_yyyy_mm_dd_or_empty(tmp_path_factory, date):
    path = tmp_path_factory.mktemp("date") / "dataset.csv"
    write_dataset(Dataset.from_records([record(event_date_posted=date)]), path)
    try:
        valid = iso_date(date) is not None
    except ValueError:
        valid = date == ""
    if valid:
        assert read_dataset(path).event_date_posted == [date]
    else:
        with pytest.raises(FormatError, match="malformed event_date_posted"):
            read_dataset(path)


def test_read_shares_equal_values_within_one_call(tmp_path):
    path = tmp_path / "dataset.csv"
    write_dataset(sample_dataset(), path)
    first, second = read_dataset(path).records()[:2]  # same product code, device and class
    assert first.product_code is second.product_code
    assert first.device_name is second.device_name and first.device_class is second.device_class
    again = read_dataset(path).records()
    assert again[0] == first and again[0].product_code is not first.product_code


nasty_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"),
    max_size=12,
)


@given(
    st.lists(
        st.builds(
            RecallRecord,
            product_code=nasty_text,
            event_date_posted=st.one_of(st.just(""), iso_dates(dt.date(2018, 1, 1), dt.date(2024, 4, 15))),
            recalling_firm=nasty_text,
            root_cause_description=nasty_text,
            product_quantity=nasty_text,
            device_name=nasty_text,
            device_class=st.sampled_from(["1", "2", "3", "unknown"]),
        ),
        max_size=8,
    )
)
def test_roundtrip_is_lossless_for_arbitrary_fields(tmp_path_factory, recs):
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    write_dataset(Dataset.from_records(recs), path)
    assert read_dataset(path).records() == recs
