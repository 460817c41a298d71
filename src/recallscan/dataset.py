"""Merge, clean and persist the canonical 7-column recall dataset."""

from __future__ import annotations

import csv
import datetime as dt
import re
from collections.abc import Iterable
from itertools import islice
from operator import itemgetter
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

# Any ASCII character the cleaning pass would strip: for ASCII, str.isalnum()
# holds exactly for [0-9A-Za-z].
_DIRT = re.compile(
    "[^0-9A-Za-z " + "".join(re.escape(ch) for ch in sorted(ALLOWED_PUNCTUATION)) + "]"
)


class RecallRecord(NamedTuple):
    """One cleaned, merged recall event (an immutable tuple, fields in DATASET_HEADER order)."""

    product_code: str
    event_date_posted: dt.date | None
    recalling_firm: str
    root_cause_description: str
    product_quantity: str
    device_name: str
    device_class: str


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


def merge_datasets(
    recalls: Iterable[tuple[str, str, str, str, str]],
    classifications: Iterable[tuple[str, str, str]],
) -> tuple[list[RecallRecord], MergeStats]:
    """Join recall rows to device name/class on product_code.

    Rows are the tuples ``fetch_pages`` keeps: recalls as (product_code,
    event_date_posted, recalling_firm, root_cause_description,
    product_quantity), classifications as (product_code, device_name,
    device_class); an input whose first row has another shape (a dict, say)
    is a ``ContractError``. The first classification row per code wins (page
    order); later duplicates only bump the warning counter. Unmatched codes
    get an empty device name and the unknown class. Recall order and count are
    preserved; unmatched_product_codes counts distinct codes.
    """
    recalls, classifications = list(recalls), list(classifications)
    for rows, fields, name in ((recalls, 5, "recall"), (classifications, 3, "classification")):
        if rows and not (isinstance(rows[0], tuple) and len(rows[0]) == fields):
            raise ContractError(
                f"{name} rows must be tuples of {fields} field values, got {rows[0]!r:.80}"
            )
    lookup: dict[str, tuple[str, str]] = {}
    for code, device_name, raw_class in classifications:
        if code not in lookup:  # every other row is a duplicate
            device_class = raw_class if raw_class in DEVICE_CLASSES else UNKNOWN_DEVICE_CLASS
            lookup[code] = (device_name, device_class)

    unmatched_device = ("", UNKNOWN_DEVICE_CLASS)
    # parse_date per distinct string, for this call only
    dates = {date: parse_date(date) for date in set(map(itemgetter(1), recalls))}
    make, device = RecallRecord._make, lookup.get
    records = [
        make((code, dates[date], firm, cause, quantity, *device(code, unmatched_device)))
        for code, date, firm, cause, quantity in recalls
    ]
    unmatched = len(set(map(itemgetter(0), recalls)).difference(lookup))
    return records, MergeStats(len(classifications) - len(lookup), unmatched)


_TEXT_FIELDS = (
    "product_code", "recalling_firm", "root_cause_description", "product_quantity", "device_name"
)


def _strip_text(s: str) -> tuple[str, int]:
    if s.isascii() and _DIRT.search(s) is None:
        return s, 0
    kept = [ch for ch in s if ch.isalnum() or ch == " " or ch in ALLOWED_PUNCTUATION]
    return "".join(kept), len(s) - len(kept)


def clean(
    records: list[RecallRecord], rules: CleaningRules
) -> tuple[list[RecallRecord], CleaningReport]:
    """Apply the cleaning rules in order and report removals per rule.

    Rules: strip disallowed characters from the text fields, drop records
    whose stripped root cause is empty, drop exact duplicates (all seven
    fields, first occurrence kept), drop records dated outside the rules
    window (absent dates count as outside). Survivor order follows input
    order, and the pass is idempotent.
    """
    chars = null_causes = duplicates = outliers = 0
    survivors: list[RecallRecord] = []
    seen: set[RecallRecord] = set()
    date_from, date_to = rules.date_from, rules.date_to
    for rec in records:
        cleaned = rec
        code, date, firm, cause, quantity, device_name, _ = rec
        text = code + firm + cause + quantity + device_name
        if not text.isascii() or _DIRT.search(text) is not None:
            stripped = {name: _strip_text(getattr(rec, name)) for name in _TEXT_FIELDS}
            removed = sum(n for _, n in stripped.values())
            if removed:  # non-ASCII letters alone are kept, and so is the record
                chars += removed
                cleaned = rec._replace(**{name: value for name, (value, _) in stripped.items()})
                cause = cleaned.root_cause_description
        if not cause.strip():
            null_causes += 1
            continue
        distinct = len(seen)
        seen.add(cleaned)
        if len(seen) == distinct:
            duplicates += 1
            continue
        if date is None or not date_from <= date <= date_to:
            outliers += 1
            continue
        survivors.append(cleaned)
    return survivors, CleaningReport(null_causes, duplicates, outliers, chars)


# Records per encoded block: bounds the memory held by one block's fields and rows.
WRITE_BLOCK = 1024
# A field csv.writer quotes under QUOTE_MINIMAL: the delimiter, the quote or a line break.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_fields(column: tuple, written: dict[str, str]) -> Iterable[str]:
    """Each text value as csv.writer writes it: quoted, with ``"`` doubled, when it needs it.

    A column block with nothing to quote is scanned once and passed through. Otherwise each
    value missing from ``written``, the file's table of values as written, is checked and added.
    """
    if _NEEDS_QUOTES.search("".join(column)) is None:
        return column
    for value in set(column).difference(written):
        written[value] = '"' + value.replace('"', '""') + '"' if _NEEDS_QUOTES.search(value) else value
    return map(written.__getitem__, column)


def write_dataset(records: Iterable[RecallRecord], path: str | Path) -> None:
    """Stream the canonical CSV (UTF-8, RFC-4180, CRLF rows; ISO dates, None as empty) into place.

    The bytes are csv.writer's under its default dialect. Records are encoded by column in
    blocks of at most ``WRITE_BLOCK``, so the file is never built in memory. Each distinct
    date is formatted, and each distinct text value checked for quoting, once per file.
    """
    dates: dict[dt.date | None, str] = {None: ""}
    written: dict[str, str] = {}
    rows = iter(records)
    with artifacts.replacing(Path(path)) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(DATASET_HEADER) + "\r\n")
        while block := list(islice(rows, WRITE_BLOCK)):
            code, posted, *text = zip(*block)
            dates.update((date, date.isoformat()) for date in set(posted).difference(dates))
            text = (_csv_fields(column, written) for column in text)
            columns = (_csv_fields(code, written), map(dates.__getitem__, posted), *text)
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def read_dataset(path: str | Path) -> list[RecallRecord]:
    """Read a canonical CSV back; raises FormatError on a wrong header, row or date.

    The file is read as a stream, and equal strings and dates within it come
    back as one shared object each.
    """
    values: dict[str, str] = {}
    dates: dict[str, dt.date | None] = {"": None}
    share = values.setdefault
    records = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            if tuple(next(rows, ())) != DATASET_HEADER:
                raise FormatError(f"dataset {path} does not carry the expected header")
            for idx, row in enumerate(rows, start=2):
                if len(row) != len(DATASET_HEADER):
                    raise FormatError(f"dataset {path} row {idx} has {len(row)} fields")
                code, posted, *text = map(share, row, row)
                if posted not in dates:
                    try:
                        dates[posted] = iso_date(posted)
                    except ValueError as exc:
                        raise FormatError(
                            f"dataset {path} row {idx} has a malformed event_date_posted {posted!r}"
                        ) from exc
                records.append(RecallRecord(code, dates[posted], *text))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read dataset {path}: {exc}") from exc
    return records
