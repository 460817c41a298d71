"""Merge, clean and persist the canonical 7-column recall dataset, held by column."""

from __future__ import annotations

import csv
import datetime as dt
import re
from collections.abc import Iterable, Sequence
from itertools import compress, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

from . import artifacts
from .errors import ContractError, FormatError

DATASET_HEADER = (
    "product_code",
    "event_date_posted",
    "recalling_firm",
    "root_cause_description",
    "product_quantity",
    "device_name",
    "device_class",
)

DEVICE_CLASSES = ("1", "2", "3")
UNKNOWN_DEVICE_CLASS = "unknown"

# Characters preserved by the cleaning pass, beyond letters/digits/space.
# These all occur inside legitimate FDA category names and firm names.
ALLOWED_PUNCTUATION = set("/,()-.")

# The ASCII characters the cleaning pass keeps: for ASCII, str.isalnum() holds
# exactly for [0-9A-Za-z].
_KEPT_ASCII = (
    "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz " + "".join(sorted(ALLOWED_PUNCTUATION))
).encode("ascii")


class RecallRecord(NamedTuple):
    """One cleaned, merged recall event (an immutable tuple, fields in DATASET_HEADER order)."""

    product_code: str
    event_date_posted: str
    recalling_firm: str
    root_cause_description: str
    product_quantity: str
    device_name: str
    device_class: str


_COLUMNS = attrgetter(*DATASET_HEADER)


class Dataset:
    """The dataset by column: one sequence per ``DATASET_HEADER`` field, each named after its
    field, all of one length. ``len()`` is the record count; row ``i`` is the ``i``-th value
    of every column, and is text: a date is ``YYYY-MM-DD``, or ``""`` when absent. Columns
    of other counts or lengths, and rows of other lengths, are a ``ContractError``.
    """

    __slots__ = DATASET_HEADER

    def __init__(self, *columns: Sequence) -> None:
        if len(columns) != len(DATASET_HEADER) or len(set(map(len, columns))) > 1:
            raise ContractError(
                f"a dataset is {len(DATASET_HEADER)} columns of one length, "
                f"got columns of lengths {list(map(len, columns))}"
            )
        for name, column in zip(DATASET_HEADER, columns):
            setattr(self, name, column)

    @classmethod
    def from_records(cls, records: Iterable[Sequence]) -> "Dataset":
        """The dataset of rows in ``DATASET_HEADER`` order, such as ``RecallRecord``s."""
        rows = list(records)
        try:
            return cls(*(map(list, zip(*rows, strict=True)) if rows else ([] for _ in DATASET_HEADER)))
        except ValueError:  # zip's strict check
            raise ContractError(f"dataset rows of unequal lengths {sorted(set(map(len, rows)))}") from None

    @property
    def columns(self) -> tuple[Sequence, ...]:
        return _COLUMNS(self)

    def records(self) -> list[RecallRecord]:
        """The rows, one ``RecallRecord`` each, for callers that read by record."""
        return list(map(RecallRecord, *self.columns))

    def __len__(self) -> int:
        return len(self.product_code)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return [list(c) for c in self.columns] == [list(c) for c in other.columns]

    def __repr__(self) -> str:
        return f"<Dataset of {len(self)} records>"


class MergeStats(NamedTuple):
    """Join statistics reported by merge_datasets."""

    duplicate_classification_codes: int = 0
    unmatched_product_codes: int = 0


class _Window(NamedTuple):  # a NamedTuple's own body may not define __new__
    date_from: dt.date
    date_to: dt.date


class CleaningRules(_Window):
    """Date window used by the outlier rule (the configured fetch range)."""

    __slots__ = ()

    def __new__(cls, date_from: dt.date, date_to: dt.date):
        if date_from > date_to:
            raise ContractError(f"date_from {date_from} is after date_to {date_to}")
        return super().__new__(cls, date_from, date_to)


class CleaningReport(NamedTuple):
    """Removal counters, one per cleaning rule."""

    dropped_null_root_cause: int = 0
    dropped_duplicates: int = 0
    dropped_date_outliers: int = 0
    stripped_char_count: int = 0
    unmatched_product_codes: int = 0

    def to_dict(self) -> dict:
        return self._asdict()


# The two date forms strptime would parse digit for digit; strptime also takes
# 1-digit months and days and other scripts' digits, so everything else goes there.
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{8}")


def iso_date(value: str) -> dt.date:
    """``YYYY-MM-DD`` alone; from 3.11 ``date.fromisoformat`` also takes ``20180101`` and ``2018W011``."""
    if len(value) != 10 or not _ISO_DATE.fullmatch(value):  # only YYYY-MM-DD has ten characters
        raise ValueError("expected YYYY-MM-DD")
    return dt.date.fromisoformat(value)


def parse_date(value: str) -> dt.date | None:
    """Accept YYYY-MM-DD or YYYYMMDD (strptime's ``%Y-%m-%d`` or ``%Y%m%d``); anything
    else is an absent date."""
    if _ISO_DATE.fullmatch(value):
        try:
            if len(value) == 10:
                return dt.date.fromisoformat(value)
            return dt.date(int(value[:4]), int(value[4:6]), int(value[6:]))
        except ValueError:
            return None
    for fmt in ("%Y-%m-%d", "%Y%m%d"):
        try:
            return dt.datetime.strptime(value, fmt).date()
        except ValueError:
            continue
    return None


def _date_text(raw: str) -> str:
    return date.isoformat() if (date := parse_date(raw)) else ""


def merge_datasets(
    recall_columns: Sequence[Sequence[str]], classification_columns: Sequence[Sequence[str]]
) -> tuple[Dataset, MergeStats]:
    """Join recall columns to device name/class on product_code.

    The columns are the ones ``fetch_pages`` keeps: recalls as (product_code,
    event_date_posted, recalling_firm, root_cause_description,
    product_quantity), classifications as (product_code, device_name,
    device_class); another number of columns, or columns of unequal lengths,
    is a ``ContractError``. The first classification row per code wins (page
    order); later duplicates only bump the warning counter. Unmatched codes
    get an empty device name and the unknown class. Recall order and count are
    preserved, and the recall columns are the dataset's own. Here a page date
    becomes dataset text: each distinct string once, to the ``YYYY-MM-DD`` of its
    ``parse_date`` or ``""``. unmatched_product_codes counts distinct codes.
    """
    for columns, fields, name in (
        (recall_columns, 5, "recall"), (classification_columns, 3, "classification")
    ):
        if len(columns) != fields or len(set(map(len, columns))) > 1:
            raise ContractError(
                f"{name} data must be {fields} columns of one length, "
                f"got columns of lengths {[len(column) for column in columns]}"
            )
    codes, posted, firms, causes, quantities = recall_columns
    class_codes, names, raw_classes = classification_columns
    known = {value: value if value in DEVICE_CLASSES else UNKNOWN_DEVICE_CLASS for value in set(raw_classes)}
    # Built last row first, so the first row per code is the one that stays.
    name_of = dict(zip(reversed(class_codes), reversed(names)))
    class_of = dict(zip(reversed(class_codes), map(known.__getitem__, reversed(raw_classes))))
    dates = {raw: _date_text(raw) for raw in set(posted)}
    dataset = Dataset(
        codes, list(map(dates.__getitem__, posted)), firms, causes, quantities,
        list(map(name_of.get, codes, repeat(""))),
        list(map(class_of.get, codes, repeat(UNKNOWN_DEVICE_CLASS))),
    )
    unmatched = len(set(codes).difference(name_of))
    return dataset, MergeStats(len(class_codes) - len(name_of), unmatched)


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII and every character of it is kept: one C pass, no regex."""
    return text.isascii() and not text.encode("ascii").translate(None, _KEPT_ASCII)


def _strip_text(s: str) -> tuple[str, int]:
    if _plain(s):
        return s, 0
    kept = [ch for ch in s if ch.isalnum() or ch == " " or ch in ALLOWED_PUNCTUATION]
    return "".join(kept), len(s) - len(kept)


def _strip_column(column: Sequence[str]) -> tuple[Sequence[str], int]:
    """``column`` with disallowed characters stripped, and the number stripped over every value.

    A column whose joined text is plain comes back as it is. Otherwise each distinct value is
    stripped once, and only the values that lose characters change; the count is what the
    joined text lost.
    """
    text = "".join(column)
    if _plain(text):
        return column, 0
    table = {value: stripped for value in set(column) if (stripped := _strip_text(value)[0]) != value}
    if not table:  # non-ASCII letters alone are kept
        return column, 0
    stripped = list(map(table.get, column, column))
    return stripped, len(text) - len("".join(stripped))


# The text columns the cleaning pass strips, by position in DATASET_HEADER.
_STRIPPED = (0, 2, 3, 4, 5)


def clean(dataset: Dataset, rules: CleaningRules) -> tuple[Dataset, CleaningReport]:
    """Apply the cleaning rules in order and report removals per rule.

    Rules: strip disallowed characters from the text fields, drop records
    whose stripped root cause is empty, drop exact duplicates (all seven
    fields, first occurrence kept), drop records dated outside the rules
    window, compared as text (ISO dates sort in date order, an absent ``""`` first).
    Survivor order follows input order, and the pass is idempotent.

    Each rule runs over whole columns, once per distinct value where it can.
    That is the record-by-record rule: stripping depends only on the value, so
    a table of distinct values strips every record alike, and the character
    count covers every record, dropped ones included. A duplicate is judged
    before its date, so every record enters the duplicate test whatever its
    date; removing duplicates over all records first and then applying the
    window keeps the same survivors and counts.
    """
    columns = list(dataset.columns)
    chars = 0
    for index in _STRIPPED:
        columns[index], removed = _strip_column(columns[index])
        chars += removed

    cause = columns[3]
    present = {value: bool(value.strip()) for value in set(cause)}
    mask = list(map(present.__getitem__, cause))
    null_causes = mask.count(False)
    rows = list(dict.fromkeys(compress(zip(*columns), mask)))  # first occurrences, in order
    duplicates = len(mask) - null_causes - len(rows)

    date_from, date_to = rules.date_from.isoformat(), rules.date_to.isoformat()
    in_window = {date: date_from <= date <= date_to for date in set(columns[1])}
    mask = list(map(in_window.__getitem__, map(itemgetter(1), rows)))
    outliers = mask.count(False)
    return Dataset.from_records(compress(rows, mask)), CleaningReport(null_causes, duplicates, outliers, chars)


# Rows per block that write_dataset encodes and read_dataset decodes: bounds the memory
# held by one block's fields and rows.
BLOCK_ROWS = 1024


def _needs_quotes(text: str) -> bool:
    """Whether csv.writer quotes ``text`` under QUOTE_MINIMAL: it holds the delimiter, the
    quote or a line break. Four ``in`` tests, each a memchr scan."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_fields(column: Sequence[str], written: dict[str, str]) -> Iterable[str]:
    """Each text value as csv.writer writes it: quoted, with ``"`` doubled, when it needs it.

    A column block with nothing to quote is checked once, joined, and passed through. Otherwise
    each value missing from ``written``, the file's table of values as written, is checked and added.
    """
    if not _needs_quotes("".join(column)):
        return column
    for value in set(column).difference(written):
        written[value] = '"' + value.replace('"', '""') + '"' if _needs_quotes(value) else value
    return map(written.__getitem__, column)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Stream the canonical CSV (UTF-8, RFC-4180, CRLF rows) into place.

    The bytes are csv.writer's under its default dialect, all seven columns written alike.
    Columns are encoded and joined into rows in blocks of at most ``BLOCK_ROWS`` values, so
    the file is never built in memory; each distinct value is checked for quoting once per file.
    """
    written: dict[str, str] = {}
    with artifacts.replacing(Path(path)) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(DATASET_HEADER) + "\r\n")
        for start in range(0, len(dataset), BLOCK_ROWS):
            fields = [_csv_fields(column[start : start + BLOCK_ROWS], written) for column in dataset.columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def read_dataset(path: str | Path) -> Dataset:
    """Read a canonical CSV back; raises FormatError on a wrong header, row or date.

    The file is read as a stream, ``BLOCK_ROWS`` rows at a time; equal strings come back as
    one shared object each, and each new distinct date must be ``YYYY-MM-DD`` or ``""``. Of
    the faults in a file, a row csv cannot read included, the one on the earliest is reported.
    """
    checked: set[str] = set()  # the dates found valid so far
    share, width = {}.setdefault, len(DATASET_HEADER)  # one object per distinct string
    columns = tuple([] for _ in DATASET_HEADER)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            if tuple(next(rows, ())) != DATASET_HEADER:
                raise FormatError(f"dataset {path} does not carry the expected header")
            line = 2  # the file row of the block's first row
            while True:
                block, fault = [], None  # each check sees only the rows before the faults found so far
                try:
                    block.extend(islice(rows, BLOCK_ROWS))  # keeps the rows read before a fault
                except csv.Error as exc:
                    fault = f"row {line + len(block)} cannot be read: {exc}"
                widths = list(map(len, block))
                if widths.count(width) != len(widths):
                    bad = [n == width for n in widths].index(False)
                    block, fault = block[:bad], f"row {line + bad} has {widths[bad]} fields"
                fields = list(zip(*block)) or [()] * width
                new = set(fields[1]).difference(checked)
                if malformed := {date for date in new if _date_text(date) != date}:
                    bad = next(i for i, date in enumerate(fields[1]) if date in malformed)
                    fault = f"row {line + bad} has a malformed event_date_posted {fields[1][bad]!r}"
                if fault:
                    raise FormatError(f"dataset {path} {fault}")
                checked |= new
                for column, field in zip(columns, fields):
                    column.extend(map(share, field, field))
                line += len(block)
                if len(block) < BLOCK_ROWS:
                    break
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read dataset {path}: {exc}") from exc
    return Dataset(*columns)
