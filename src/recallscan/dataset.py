"""Merge, clean and persist the canonical 7-column recall dataset."""

from __future__ import annotations

import csv
import datetime as dt
import re
from collections.abc import Iterable
from dataclasses import asdict, dataclass
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


@dataclass
class MergeStats:
    """Join statistics reported by merge_datasets."""

    duplicate_classification_codes: int = 0
    unmatched_product_codes: int = 0


@dataclass
class CleaningRules:
    """Date window used by the outlier rule (the configured fetch range)."""

    date_from: dt.date
    date_to: dt.date

    def __post_init__(self):
        if self.date_from > self.date_to:
            raise ContractError(f"date_from {self.date_from} is after date_to {self.date_to}")


@dataclass
class CleaningReport:
    """Removal counters, one per cleaning rule."""

    dropped_null_root_cause: int = 0
    dropped_duplicates: int = 0
    dropped_date_outliers: int = 0
    stripped_char_count: int = 0
    unmatched_product_codes: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def parse_date(value: str) -> dt.date | None:
    """Accept YYYY-MM-DD or YYYYMMDD; anything else is an absent date."""
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
    device_class). The first classification row per code wins (page order);
    later duplicates only bump the warning counter. Unmatched codes get an
    empty device name and the unknown class. Recall order and count are
    preserved; unmatched_product_codes counts distinct codes.
    """
    lookup: dict[str, tuple[str, str]] = {}
    stats = MergeStats()
    for code, device_name, raw_class in classifications:
        if code in lookup:
            stats.duplicate_classification_codes += 1
            continue
        device_class = raw_class if raw_class in DEVICE_CLASSES else UNKNOWN_DEVICE_CLASS
        lookup[code] = (device_name, device_class)

    unmatched_device = ("", UNKNOWN_DEVICE_CLASS)
    dates: dict[str, dt.date | None] = {}  # parse_date per distinct string, for this call only
    records: list[RecallRecord] = []
    unmatched: set[str] = set()
    for code, date, firm, cause, quantity in recalls:
        device = lookup.get(code)
        if device is None:
            unmatched.add(code)
            device = unmatched_device
        if date not in dates:
            dates[date] = parse_date(date)
        records.append(RecallRecord(code, dates[date], firm, cause, quantity, *device))
    stats.unmatched_product_codes = len(unmatched)
    return records, stats


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
    report = CleaningReport()
    survivors: list[RecallRecord] = []
    seen: set[RecallRecord] = set()
    for rec in records:
        cleaned = rec
        text = rec.product_code + rec.recalling_firm + rec.root_cause_description
        text += rec.product_quantity + rec.device_name
        if not text.isascii() or _DIRT.search(text) is not None:
            stripped = {name: _strip_text(getattr(rec, name)) for name in _TEXT_FIELDS}
            removed = sum(n for _, n in stripped.values())
            if removed:  # non-ASCII letters alone are kept, and so is the record
                report.stripped_char_count += removed
                cleaned = rec._replace(**{name: value for name, (value, _) in stripped.items()})
        if not cleaned.root_cause_description.strip():
            report.dropped_null_root_cause += 1
            continue
        if cleaned in seen:
            report.dropped_duplicates += 1
            continue
        seen.add(cleaned)
        date = cleaned.event_date_posted
        if date is None or not rules.date_from <= date <= rules.date_to:
            report.dropped_date_outliers += 1
            continue
        survivors.append(cleaned)
    return survivors, report


def write_dataset(records: Iterable[RecallRecord], path: str | Path) -> None:
    """Stream the canonical CSV (UTF-8, RFC-4180, CRLF rows; ISO dates, None as empty) into place."""
    with artifacts.replacing(Path(path)) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        writer.writerows(records)


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
                        dates[posted] = dt.date.fromisoformat(posted)
                    except ValueError as exc:
                        raise FormatError(
                            f"dataset {path} row {idx} has a malformed event_date_posted {posted!r}"
                        ) from exc
                records.append(RecallRecord(code, dates[posted], *text))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read dataset {path}: {exc}") from exc
    return records
