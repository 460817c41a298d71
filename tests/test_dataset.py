import csv
import datetime as dt
import hashlib
import io
import string

import pytest
from hypothesis import example, given, strategies as st

from recallscan.dataset import (
    ALLOWED_PUNCTUATION,
    DATASET_HEADER,
    CleaningRules,
    RecallRecord,
    _strip_text,
    clean,
    merge_datasets,
    parse_date,
    read_dataset,
    write_dataset,
)
from recallscan.errors import ContractError, FormatError
from recallscan.fixtures import table2_records
from recallscan.reference import TOTAL_CASES
from recallscan.openfda import _FIELDS, Endpoint

from .conftest import (
    classification_entries,
    classification_rows,
    recall_entries,
    recall_rows,
    sample_records,
)
from .oracles import clean_ref, merge_ref

RULES = CleaningRules(dt.date(2018, 1, 1), dt.date(2024, 4, 15))


def record(**overrides) -> RecallRecord:
    base = dict(
        product_code="FRN",
        event_date_posted=dt.date(2018, 1, 2),
        recalling_firm="Smith Medical ASD Inc.",
        root_cause_description="Process design",
        product_quantity="86 units",
        device_name="Pump, Infusion",
        device_class="2",
    )
    base.update(overrides)
    return RecallRecord(**base)


# --- record type -------------------------------------------------------------


def test_record_fields_follow_the_dataset_header_and_are_read_only():
    assert RecallRecord._fields == DATASET_HEADER
    rec = record()
    for name in DATASET_HEADER:
        with pytest.raises(AttributeError):
            setattr(rec, name, "x")
    assert rec == record() and hash(rec) == hash(record())


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
    merged, stats = merge_datasets(recall_rows(), classification_rows())
    assert len(merged) == len(recall_rows())
    first = merged[0]
    assert first.device_name == "Pump, Infusion"
    assert first.device_class == "2"
    assert first.event_date_posted == dt.date(2018, 1, 2)
    assert stats.unmatched_product_codes == 0


def test_merge_unmatched_code_gets_empty_device_and_unknown_class():
    merged, stats = merge_datasets([("ZZZ", "", "", "Other", "")], classification_rows())
    assert merged[0].device_name == ""
    assert merged[0].device_class == "unknown"
    assert stats.unmatched_product_codes == 1


def test_merge_first_classification_wins_and_counts_duplicates():
    classifications = [("FRN", "Pump, Infusion", "2"), ("FRN", "Other Device", "3")]
    merged, stats = merge_datasets([("FRN", "", "", "Other", "")], classifications)
    assert merged[0].device_name == "Pump, Infusion"
    assert merged[0].device_class == "2"
    assert stats.duplicate_classification_codes == 1


def test_merge_preserves_recall_count_and_order():
    recalls = recall_rows()
    merged, _ = merge_datasets(recalls, [])
    assert len(merged) == len(recalls)
    assert [r.product_code for r in merged] == [row[0] for row in recalls]


def test_merge_maps_odd_class_values_to_unknown():
    merged, _ = merge_datasets([("AAA", "", "", "", "")], [("AAA", "Thing", "U")])
    assert merged[0].device_class == "unknown"


@pytest.mark.parametrize(
    "recalls, classifications",
    [
        (recall_entries(), classification_entries()),  # the dict rows pages once held
        (recall_rows(), classification_entries()),
        (recall_entries(), classification_rows()),
        ([row[:4] for row in recall_rows()], classification_rows()),
        (recall_rows(), [row + ("",) for row in classification_rows()]),
    ],
    ids=["dicts", "dict-classifications", "dict-recalls", "short-recalls", "long-classifications"],
)
def test_merge_refuses_rows_of_another_shape(recalls, classifications):
    with pytest.raises(ContractError, match="rows must be tuples") as caught:
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
    def rows(entries, endpoint):
        return [tuple(entry.get(key, "") for key in _FIELDS[endpoint]) for entry in entries]

    merged, stats = merge_datasets(
        rows(recalls, Endpoint.RECALL), rows(classifications, Endpoint.CLASSIFICATION)
    )
    expected, duplicates, unmatched = merge_ref(recalls, classifications)
    assert [tuple(rec) for rec in merged] == expected
    assert (stats.duplicate_classification_codes, stats.unmatched_product_codes) == (duplicates, unmatched)


# --- clean -----------------------------------------------------------------


def test_cleaning_rules_refuse_a_window_that_ends_before_it_starts():
    with pytest.raises(ContractError, match="is after"):
        CleaningRules(dt.date(2024, 1, 2), dt.date(2024, 1, 1))
    with pytest.raises(ContractError, match="is after"):
        CleaningRules(date_to=dt.date(2024, 1, 1), date_from=dt.date(2024, 1, 2))
    assert CleaningRules(dt.date(2024, 1, 1), dt.date(2024, 1, 1)).date_to == dt.date(2024, 1, 1)


def test_clean_drops_empty_root_cause():
    kept, report = clean([record(root_cause_description="")], RULES)
    assert kept == []
    assert report.dropped_null_root_cause == 1


def test_clean_drops_whitespace_and_strips_to_empty_root_cause():
    kept, report = clean(
        [record(root_cause_description="   "), record(root_cause_description="??!")], RULES
    )
    assert kept == []
    assert report.dropped_null_root_cause == 2


def test_clean_strips_disallowed_characters_and_counts_them():
    rec = record(
        root_cause_description="Process* design?",
        recalling_firm="Smith & Nephew, Inc.",
    )
    kept, report = clean([rec], RULES)
    assert kept[0].root_cause_description == "Process design"
    assert kept[0].recalling_firm == "Smith  Nephew, Inc."
    assert report.stripped_char_count == 3  # '*', '?', '&'


def test_clean_keeps_allowed_punctuation():
    rec = record(
        root_cause_description="Nonconforming Material/Component",
        product_quantity="153 cases, 30 units (each)",
        device_name="Labelling mix-ups Inc.",
    )
    kept, report = clean([rec], RULES)
    assert kept[0] == rec
    assert report.stripped_char_count == 0


@given(st.builds(record, root_cause_description=st.text(alphabet="ab ?*é", max_size=6),
                 recalling_firm=st.sampled_from(["Smith & Nephew", "Baxter, Inc."])))
@example(record())
def test_clean_copies_a_record_only_when_it_stripped_something(rec):
    kept, report = clean([rec], RULES)
    if kept:
        assert (kept[0] is rec) == (report.stripped_char_count == 0)


def test_clean_deduplicates_keeping_first():
    kept, report = clean([record(), record(), record(device_class="3")], RULES)
    assert len(kept) == 2
    assert report.dropped_duplicates == 1


def test_clean_drops_date_outliers_and_missing_dates():
    out_of_range = record(event_date_posted=dt.date(2017, 12, 31))
    missing = record(event_date_posted=None, product_code="ZZZ")
    kept, report = clean([record(), out_of_range, missing], RULES)
    assert len(kept) == 1
    assert report.dropped_date_outliers == 2


@given(
    st.lists(
        st.builds(
            record,
            root_cause_description=st.text(alphabet="ab ?*", max_size=6),
            product_code=st.sampled_from(["FRN", "ZZZ"]),
            event_date_posted=st.one_of(
                st.none(), st.dates(dt.date(2017, 1, 1), dt.date(2025, 1, 1))
            ),
        ),
        max_size=15,
    )
)
def test_clean_is_idempotent(recs):
    once, _ = clean(recs, RULES)
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
            event_date_posted=st.one_of(st.none(), st.dates(dt.date(2017, 1, 1), dt.date(2025, 1, 1))),
        ),
        max_size=15,
    ).map(lambda recs: recs + recs[::2])  # every other record again, as a duplicate
)
@example([record(), record(recalling_firm="Smith & Nephew"), record(device_name="Café²")])
def test_clean_matches_the_per_field_reference(recs):
    kept, report = clean(recs, RULES)
    ref_kept, ref_counts = clean_ref(recs, RULES.date_from, RULES.date_to)
    assert kept == ref_kept
    assert report.to_dict() == {**ref_counts, "unmatched_product_codes": 0}


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
    assert len(records) == TOTAL_CASES and {r.event_date_posted for r in records} == {day}


# --- file round-trips --------------------------------------------------------


def test_empty_dataset_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    write_dataset([], path)
    assert path.read_bytes() == (",".join(DATASET_HEADER) + "\r\n").encode("utf-8")
    assert read_dataset(path) == []


def test_sample_rows_roundtrip_exactly(tmp_path):
    path = tmp_path / "sample.csv"
    records = sample_records()
    write_dataset(records, path)
    assert read_dataset(path) == records


def test_double_write_of_7000_records_is_byte_identical(tmp_path):
    records = table2_records()
    records += [record(product_code=f"Z{i:02d}", root_cause_description="Synthetic cause")
                for i in range(9)]
    assert len(records) == 7000
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(records, a)
    write_dataset(records, b)
    assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


def csv_writer_bytes(records) -> bytes:
    """What csv.writer writes for the header and ``records`` with ISO-string dates."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(DATASET_HEADER)
    for rec in records:
        date = rec.event_date_posted.isoformat() if rec.event_date_posted else ""
        writer.writerow([rec.product_code, date, *rec[2:]])
    return buf.getvalue().encode("utf-8")


def test_write_dataset_matches_csv_writer_over_iso_strings(tmp_path):
    records = [
        record(event_date_posted=None, recalling_firm='Smith, "Jr" & Co'),
        record(root_cause_description="Design, software", product_quantity='12 "cases"'),
        record(device_name="Line one\nline two", event_date_posted=dt.date(2024, 4, 15)),
    ]
    path = tmp_path / "data.csv"
    write_dataset(iter(records), path)  # any iterable of records streams
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
    event_date_posted=st.one_of(st.none(), st.dates()),
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
    write_dataset(recs, path)
    assert path.read_bytes() == csv_writer_bytes(recs)


def test_write_cut_off_midway_keeps_the_previous_dataset(tmp_path):
    path = tmp_path / "dataset.csv"
    write_dataset(sample_records(), path)
    previous = path.read_bytes()

    def cut_off():
        yield from table2_records()
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        write_dataset(cut_off(), path)
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
    write_dataset(table2_records()[:2000], path)
    data = path.read_bytes()
    assert len(data) > 3 * 65536
    path.write_bytes(data[:-40] + b"\xff\xfe" + data[-38:])
    with pytest.raises(FormatError, match="cannot read dataset") as caught:
        read_dataset(path)
    assert caught.value.exit_code == 4


def test_read_shares_equal_values_within_one_call(tmp_path):
    path = tmp_path / "dataset.csv"
    write_dataset(sample_records(), path)
    first, second = read_dataset(path)[:2]  # same product code, device and class
    assert first.product_code is second.product_code
    assert first.device_name is second.device_name and first.device_class is second.device_class
    again = read_dataset(path)
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
            event_date_posted=st.one_of(st.none(), st.dates(dt.date(2018, 1, 1), dt.date(2024, 4, 15))),
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
    write_dataset(recs, path)
    assert read_dataset(path) == recs
